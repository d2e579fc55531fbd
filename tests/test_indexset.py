from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invsys import FULL, below, ind_omega, index_set, tail, tailset
from invsys.indexset import ProPiece

# All generated parameters stay below 12, so membership on a window reaching 64
# determines every set exactly: tails are fully visible past 12 and all finite
# parts end before it.
PARAM_HI = 10
SCAN_I = 21
SCAN_J = 64

tailsets = st.builds(
    lambda finite, threshold: tailset(finite, threshold),
    st.lists(st.integers(0, 2 * PARAM_HI), max_size=6),
    st.one_of(st.none(), st.integers(0, 2 * PARAM_HI)),
)


# -- tail sets -----------------------------------------------------------------


def test_intersect_example():
    assert tail(3).intersect(tailset([1], 5)) == tail(5)


def test_shift_past_example():
    assert FULL.shift_past(4) == tail(5)


def test_minus_example():
    got = tailset([2], 6).minus(tailset([2, 7]))
    assert got == tailset([6], 8)


def test_minus_unbounded_subtrahend_rejected():
    with pytest.raises(ValueError):
        FULL.minus(tail(3))


def test_canonical_absorbs_adjacent_finite():
    assert tailset([5], 6) == tail(5)
    assert tailset([4, 5, 9], 6) == tailset([4], 5)


@given(tailsets, tailsets)
def test_intersect_union_match_brute_membership(a, b):
    for x in range(3 * PARAM_HI):
        assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))
        assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))
    assert a.intersect(b).is_unbounded() == (a.is_unbounded() and b.is_unbounded())
    assert a.union(b).is_unbounded() == (a.is_unbounded() or b.is_unbounded())


@given(tailsets, st.lists(st.integers(0, 2 * PARAM_HI), max_size=6))
def test_minus_matches_brute_membership(a, removed):
    b = tailset(removed)
    got = a.minus(b)
    for x in range(3 * PARAM_HI):
        assert got.contains(x) == (a.contains(x) and not b.contains(x))
    assert got.is_unbounded() == a.is_unbounded()


@given(tailsets, tailsets)
def test_bounded_minus_exact_or_rejected(a, b):
    if a.is_unbounded() and not b.is_unbounded():
        with pytest.raises(ValueError):
            a.bounded_minus(b)
        return
    diff = set(a.bounded_minus(b))
    for x in range(3 * PARAM_HI):
        assert (x in diff) == (a.contains(x) and not b.contains(x))


@given(tailsets, st.integers(0, 2 * PARAM_HI))
def test_min_from_is_least_member(a, k):
    present = [x for x in range(3 * PARAM_HI) if a.contains(x) and x >= k]
    if a.is_unbounded() or present:
        assert a.min_from(k) == min(present)
    else:
        with pytest.raises(ValueError):
            a.min_from(k)


# -- classification ---------------------------------------------------------------


def test_full_index_set_is_everything():
    flags = ind_omega().classify()
    assert flags.cobounded and flags.coherent and flags.eventually_coherent


def _ec_not_coherent_example():
    # full first projection; projections miss one extra value below level 3
    return index_set(FULL, [
        ProPiece(0, 1, tail(2)),
        ProPiece(1, 2, tail(3)),
        ProPiece(2, 3, tail(4)),
        ProPiece(3, None, FULL),
    ])


def test_eventually_coherent_but_not_coherent():
    flags = _ec_not_coherent_example().classify()
    assert flags.eventually_coherent
    assert not flags.coherent


def test_bounded_first_not_eventually_coherent():
    bounded = index_set(below(5), [ProPiece(0, None, FULL)])
    assert not bounded.classify().eventually_coherent


def test_classify_agrees_with_membership_scan():
    # parameters stay below 12, so the window reads each set off exactly:
    # membership at 20 decides unboundedness, [0, 12) decides the finite parts
    rng = Random(5)
    for _ in range(200):
        candidate = _random_index_set(rng)
        flags = candidate.classify()
        first_scan = [
            i for i in range(SCAN_I)
            if any(candidate.contains(i, j) for j in range(i + 1, SCAN_J))
        ]
        unbounded = (SCAN_I - 1) in first_scan
        pro = {
            i: {j for j in range(SCAN_J) if candidate.contains(i, j)} for i in first_scan
        }
        full_tail = {
            i: all(j in pro[i] for j in range(max(12, i + 1), SCAN_J)) for i in first_scan
        }
        brute_ec = unbounded and all(full_tail[i] for i in first_scan)
        brute_cobounded = unbounded and all(full_tail[i] for i in first_scan)
        brute_coherent = unbounded and all(
            {j for j in pro[i] if j < SCAN_I} == {x for x in first_scan if x > i}
            and full_tail[i]
            for i in first_scan
        )
        assert flags.eventually_coherent == brute_ec
        assert flags.cobounded == brute_cobounded
        assert flags.coherent == brute_coherent


def _random_tailset(rng, unbounded_prob=0.7):
    finite = rng.sample(range(PARAM_HI), rng.randint(0, 3))
    threshold = rng.randint(0, PARAM_HI) if rng.random() < unbounded_prob else None
    return tailset(finite, threshold)


def _random_index_set(rng):
    first = _random_tailset(rng)
    cuts = sorted(rng.sample(range(1, 8), rng.randint(0, 2)))
    starts = [0] + cuts
    pieces = []
    for idx, start in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else None
        pieces.append(ProPiece(start, end, _random_tailset(rng)))
    return index_set(first, pieces)


# -- square restriction ---------------------------------------------------------


def test_square_restrict_to_tail():
    got = ind_omega().square_restrict(tail(4))
    assert got.first == tail(4)
    for i, j in [(4, 5), (4, 9), (7, 8)]:
        assert got.contains(i, j)
    for i, j in [(3, 5), (0, 1), (4, 4)]:
        assert not got.contains(i, j)


def test_square_restrict_keeps_eventual_coherence():
    got = ind_omega().square_restrict(tail(6))
    assert got.classify().eventually_coherent


def test_square_restrict_finite_is_bounded():
    got = ind_omega().square_restrict(below(6))
    assert not got.classify().eventually_coherent


def test_square_restrict_membership_randomized():
    rng = Random(13)
    for _ in range(80):
        candidate = _random_index_set(rng)
        s = _random_tailset(rng)
        got = candidate.square_restrict(s)
        for i in range(12):
            for j in range(i + 1, 25):
                expected = s.contains(i) and s.contains(j) and candidate.contains(i, j)
                assert got.contains(i, j) == expected


# -- coherence repair -----------------------------------------------------------------


def test_coherify_full_is_identity():
    assert ind_omega().coherify(FULL) == ind_omega()


def test_coherify_repairs_single_defective_projection():
    candidate = index_set(FULL, [ProPiece(0, 1, tail(2)), ProPiece(1, None, FULL)])
    repaired = candidate.coherify(FULL)
    assert repaired.pro(0) == tail(2)
    assert repaired.pro(1) == tail(2)
    assert repaired.pro(2) == tail(3)
    assert repaired.issubset(candidate)


def test_coherify_with_tail_selector():
    repaired = ind_omega().coherify(tail(5))
    assert repaired == ind_omega().square_restrict(tail(5))
    assert repaired.first == tail(5)


def test_coherify_requires_eventual_coherence():
    bounded = index_set(below(5), [ProPiece(0, None, FULL)])
    with pytest.raises(ValueError):
        bounded.coherify(below(5))
    with pytest.raises(ValueError):
        ind_omega().coherify(below(5))


def test_coherify_end_segment_chain_randomized():
    rng = Random(23)
    produced = 0
    while produced < 60:
        candidate = _random_index_set(rng)
        if not candidate.classify().eventually_coherent:
            continue
        produced += 1
        selector = candidate.first
        repaired = candidate.coherify(selector)
        assert repaired.first == selector
        assert repaired.classify().eventually_coherent
        assert repaired.issubset(candidate)
        minima = []
        for i in selector.elements_below(12) + (selector.min_from(12),):
            pro = repaired.pro(i)
            low = pro.min_value()
            minima.append(low)
            assert pro == selector.intersect(tail(low))
        assert minima == sorted(minima)


# -- successor pairs ---------------------------------------------------------------


def test_successor_pair_full():
    assert ind_omega().successor_pair(0) == (1, 2)


def test_successor_pair_shifted_first():
    shifted = ind_omega().square_restrict(tail(5))
    assert shifted.successor_pair(0) == (5, 6)


def test_successor_pair_after_repair():
    candidate = index_set(FULL, [ProPiece(0, 1, tail(2)), ProPiece(1, None, FULL)])
    repaired = candidate.coherify(FULL)
    i1, i2 = repaired.successor_pair(0)
    assert i1 == 1
    assert i2 == repaired.pro(1).min_value()
    assert 0 < i1 < i2


def test_successor_pair_ordering_facts():
    repaired = _ec_not_coherent_example().coherify(FULL)
    for i in range(5):
        for j in range(i + 1, 6):
            i1, i2 = repaired.successor_pair(i)
            j1, j2 = repaired.successor_pair(j)
            assert i < i1 < i2
            assert i1 <= j1 and i2 <= j2 and i1 < j2
            assert repaired.contains(i1, i2)
            assert repaired.contains(i1, j2)


# -- representation ----------------------------------------------------------------


def test_pieces_must_cover_omega():
    with pytest.raises(ValueError):
        index_set(FULL, [ProPiece(1, None, FULL)])
    with pytest.raises(ValueError):
        index_set(FULL, [ProPiece(0, 4, FULL)])
    with pytest.raises(ValueError):
        index_set(FULL, [ProPiece(0, 2, FULL), ProPiece(3, None, FULL)])


def test_adjacent_equal_pieces_merge():
    got = index_set(FULL, [ProPiece(0, 3, tail(1)), ProPiece(3, None, tail(1))])
    assert got == index_set(FULL, [ProPiece(0, None, tail(1))])
