import itertools
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import (
    COUNTABLY_INFINITE,
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    NoBranchError,
    Planted,
    Ring,
    System,
    branch_generator,
    coboundary,
    decomp,
    decompose,
    indexset,
    equiv_decide,
    extract_branch,
    generator,
    ind_omega,
    index_set,
    module_element,
    normalize_cobounded,
    planted,
    quotient_card_report,
    refine_nonzero,
    support_bound,
    tail,
    tailset,
    witness_equivalence,
    zero_element,
)
from invsys.coherent import default_horizon
from invsys.decomp import Decomposition, EquivalenceWitness
from invsys.indexset import ProPiece
from invsys.sampling import random_coboundary, random_planted, sample_branches, sample_node
from invsys.tree import Node


def with_y0(system, terms):
    return coboundary(system, {0: module_element(0, terms, system.ring, system.tree)})


def counting_entries(monkeypatch):
    """Record the level of every entry computed: a computed entry is one that
    ``eval_entry`` adds to its element's entry table ``_entries``."""
    computed = []
    real = Planted.eval_entry

    def counted(self, i, j):
        before = len(self._entries)
        out = real(self, i, j)
        computed.extend([i] * (len(self._entries) - before))
        return out

    monkeypatch.setattr(Planted, "eval_entry", counted)
    return computed


# -- nonzero test at the probe level ---------------------------------------------------


def test_refine_single_generator_full(sys1):
    b = branch_generator(sys1, sys1.tree.branch(0))
    assert b.probe_bound == 0
    assert all(refine_nonzero(b, p) for p in range(4))


def test_refine_zero_signals(sys1):
    assert not refine_nonzero(zero_element(sys1), 0)


def test_refine_cancelled_combo_signals(sys1):
    t0 = sys1.tree.branch(0)
    b = planted(sys1, [(t0, 1), (t0, 2)])
    assert not refine_nonzero(b, 0)


def test_refine_output_contract(sys3, sysf):
    rng = Random(3)
    for system in (sys3, sysf):
        for _ in range(10):
            b = normalize_cobounded(random_planted(system, rng)).element
            p = b.probe_bound
            if not refine_nonzero(b, p):
                assert not b.combo
                continue
            for i in range(p, p + 4):
                for j in range(i + 1, i + 4):
                    entry = b.eval_entry(i, j)
                    assert not entry.is_zero()
                    assert entry == entry.restrict_to(tail(j))


def test_probe_level_below_probe_bound_raises(sysf):
    b = planted(sysf, {sysf.tree.branch(((0, 1),)): 1, sysf.tree.branch(((2, 1),)): 1})
    assert b.probe_bound == 3
    for phase in (refine_nonzero, support_bound, extract_branch):
        with pytest.raises(ValueError):
            phase(b, 2)


# -- support bounds -----------------------------------------------------------------


def test_support_bound_two_branches(sys3):
    b = planted(sys3, {sys3.tree.branch(0): 1, sys3.tree.branch(1): 1})
    p = b.probe_bound
    n_star = support_bound(b, p)
    assert n_star == 3
    for i in range(p, p + 4):
        for j in range(i + 1, i + 4):
            assert len(b.eval_entry(i, j).support()) < n_star


def test_support_bound_single_branch(sys1):
    b = branch_generator(sys1, sys1.tree.branch(0))
    assert support_bound(b, 0) == 2


def test_support_bound_merged_branches(sys1):
    t0 = sys1.tree.branch(0)
    b = planted(sys1, [(t0, 1), (t0, 1)])  # merges to coefficient 2
    assert support_bound(b, 0) == 2


# -- branch extraction ---------------------------------------------------------------


def test_extract_reads_constant_coefficient(sys1):
    b = branch_generator(sys1, sys1.tree.branch(1), 2)
    [(t, d)] = extract_branch(b, 0)
    assert d == 2
    assert t == sys1.tree.branch(1)
    for i in range(4):
        for j in range(i + 1, i + 4):
            assert b.entry_coefficient(i, j, sys1.tree.branch_node(t, i), j).value == d


def three_branches(sysf):
    tree = sysf.tree
    return planted(sysf, {tree.branch(((0, 1),)): 1, tree.branch(((1, 1),)): 2,
                          tree.branch(((0, 1), (2, 1))): 1})


def test_extract_returns_every_branch_in_node_order(sys1, sysf):
    b = planted(sys1, {sys1.tree.branch(1): 2, sys1.tree.branch(0): 1})
    assert extract_branch(b, 0) == [(sys1.tree.branch(0), 1), (sys1.tree.branch(1), 2)]
    tree = sysf.tree
    b = three_branches(sysf)
    p = b.probe_bound
    extracted = extract_branch(b, p)
    nodes = [tree.branch_node(t, p) for t, _ in extracted]
    assert nodes == sorted(nodes) == [node for node, _, _ in b.eval_entry(p, p + 1).terms]
    assert sorted(extracted) == list(b.combo)


def test_extract_on_branchless_system_raises(sys2):
    fact = with_y0(sys2, {(Node(0, ()), 1): 1})
    b = normalize_cobounded(planted(sys2, {}, fact)).element
    with pytest.raises(NoBranchError):
        extract_branch(b, b.probe_bound)


def test_extract_soundness_sampled(sys3, sysf):
    rng = Random(7)
    for system in (sys3, sysf):
        b = normalize_cobounded(
            random_planted(system, rng, max_fact_levels=2)
        ).element
        if not b.combo:
            b = branch_generator(system, system.tree.branch(0) if system is sys3
                                 else system.tree.branch(((0, 1),)))
        p = b.probe_bound
        extracted = extract_branch(b, p)
        assert sorted(extracted) == list(b.combo)
        tree = system.tree
        for t, d in extracted:
            for i in range(p, p + 10):
                for j in range(i + 1, i + 6):
                    assert b.entry_coefficient(i, j, tree.branch_node(t, i), j).value == d


def test_spot_check_refuses_a_changed_coefficient(monkeypatch, sysf):
    """A coefficient changed at any one of the six spot pairs, on one branch's
    node, makes the extraction raise instead of returning that branch."""
    b = three_branches(sysf)
    p = b.probe_bound
    real = Planted.eval_entry
    for i in range(p, p + 3):
        for j in range(i + 1, i + 3):
            def changed(self, i2, j2, at=(i, j)):
                entry = real(self, i2, j2)
                if (i2, j2) != at:
                    return entry
                (node, l, c), *rest = entry.terms
                return entry._replace(terms=((node, l, c % 2 + 1), *rest))

            with monkeypatch.context() as patched:
                patched.setattr(Planted, "eval_entry", changed)
                with pytest.raises(AssertionError, match="^extracted coefficient is not constant"):
                    extract_branch(planted(sysf, dict(b.combo)), p)
    assert sorted(extract_branch(b, p)) == list(b.combo)


# -- full decomposition -----------------------------------------------------------------


def test_decompose_round_trip_with_coboundary(sys1):
    t0, t1 = sys1.tree.branch(0), sys1.tree.branch(1)
    fact = with_y0(sys1, {(Node(0, 0), 1): 1})
    a = planted(sys1, {t0: 1, t1: 2}, fact)
    dec = decompose(a)
    assert dec.combo == ((t0, 1), (t1, 2))
    assert dec.residual.y(0) == fact.y(0)
    assert dec.provenance == 0


def test_decompose_pure_coboundary_over_branchless(sys2):
    fact = with_y0(sys2, {(Node(0, ()), 2): 1})
    dec = decompose(planted(sys2, {}, fact))
    assert dec.combo == ()
    assert dec.residual.y(0) == fact.y(0)


def test_decompose_zero(sys1):
    dec = decompose(zero_element(sys1))
    assert dec.combo == ()
    assert dec.residual.is_zero()
    assert dec.provenance == 0


def test_decompose_round_trip_randomized(sys1, sys3, sysf):
    rng = Random(11)
    for system in (sys1, sys3, sysf):
        for _ in range(25):
            a = random_planted(system, rng)
            dec = decompose(a)
            assert dec.combo == a.combo


def test_decompose_combo_size_is_the_support_bound_less_one(sys2, sys3, sysf):
    """The combo and the support bound both count the probe entry's nodes, so
    the bound the per-round loop checked is met exactly, zero elements too."""
    rng = Random(13)
    for system in (sys2, sys3, sysf):
        for _ in range(15):
            a = random_planted(system, rng)
            remainder = normalize_cobounded(a).element
            p = remainder.probe_bound
            dec = decompose(a)
            assert len(dec.combo) == support_bound(remainder, p) - 1
            assert dec.provenance == p


def test_decompose_branches_diverge_at_probe_level(sysf):
    rng = Random(17)
    found = 0
    while found < 8:
        a = random_planted(sysf, rng)
        if len(a.combo) < 2:
            continue
        found += 1
        dec = decompose(a)
        assert dec.provenance == normalize_cobounded(a).element.probe_bound
        tree = sysf.tree
        for i in range(dec.provenance, dec.provenance + 4):
            nodes = [tree.branch_node(t, i) for t, _ in dec.combo]
            assert len(set(nodes)) == len(nodes)


def test_every_round_probes_one_level_and_builds_no_index_set(monkeypatch, sys3, sysf):
    """Each phase of the one peeling pass reads the probe bound of the
    normalized remainder, and the peel never constructs or queries an
    ``IndexSet``."""
    def refuse(*args, **kwargs):
        raise AssertionError("the peel touched an index set")

    monkeypatch.setattr(indexset, "index_set", refuse)
    for name in ("classify", "square_restrict", "issubset", "pro", "coherify"):
        monkeypatch.setattr(indexset.IndexSet, name, refuse)
    levels = []
    for name in ("refine_nonzero", "support_bound", "extract_branch"):
        phase = getattr(decomp, name)
        monkeypatch.setattr(decomp, name,
                            lambda b, p, phase=phase: levels.append(p) or phase(b, p))
    rng = Random(29)
    branches = 0
    for system in (sys3, sysf):
        for _ in range(20):
            a = random_planted(system, rng)
            levels.clear()
            dec = decompose(a)
            assert dec.combo == a.combo
            assert set(levels) == {normalize_cobounded(a).element.probe_bound}
            branches += len(dec.combo)
    assert branches > 20


def test_each_element_computes_its_probe_bound_once(monkeypatch, sysf):
    """The probe bound reads every combo branch's presentation level once, on
    the normalized remainder: 3 reads for three branches, however often the
    phases probe.  What is left after the one subtraction has no branch to
    read, where a new remainder per peeled branch read 3 + 2 + 1."""
    tree = sysf.tree
    levels = []
    real = type(tree).presentation_level
    monkeypatch.setattr(type(tree), "presentation_level",
                        lambda self, b: levels.append(b) or real(self, b))
    branches = [tree.branch(((0, 1),)), tree.branch(((0, 1), (3, 1))), tree.branch(((1, 1),))]
    fact = coboundary(sysf, {2: module_element(2, {(Node(2, ((0, 1),)), 4): 1},
                                               sysf.ring, tree)})
    a = planted(sysf, dict(zip(branches, (1, 2, 1))), fact)
    levels.clear()
    dec = decompose(a)
    assert sorted(dec.combo) == sorted(zip(branches, (1, 2, 1)))
    assert len(levels) == 3


def wide_element(n):
    """``n`` distinct branches of the width-3-then-2 finite-support tree over
    Z/5, positions below 10, with the same two-level ``y`` for every ``n``."""
    system = System(Ring(5), FiniteSupportTree((3,), 2))
    ring, tree = system.ring, system.tree

    def address(k):
        digits = [(0, k % 3), *((pos, (k // 3) >> (pos - 1) & 1) for pos in range(1, 10))]
        return tuple((pos, v) for pos, v in digits if v)

    fact = coboundary(system, {
        1: module_element(1, {(Node(1, ((0, 2),)), 3): 1}, ring, tree),
        4: module_element(4, {(Node(4, ((1, 1), (3, 1))), 6): 2}, ring, tree),
    })
    return planted(system, {tree.branch(address(k)): k % 4 + 1 for k in range(n)}, fact)


def test_decompose_computes_as_many_entries_at_200_branches_as_at_50(monkeypatch):
    """One entry per ``y`` level to normalize, the six spot pairs (the probe
    pair among them) and the closing probe: 2 + 6 + 1 entries, however many
    branches.  A new remainder per peeled branch computed 7 more per branch."""
    computed = counting_entries(monkeypatch)
    counts = []
    for n in (50, 200):
        a = wide_element(n)
        computed.clear()
        assert decompose(a).combo == a.combo
        counts.append(len(computed))
    assert counts == [2 + 6 + 1] * 2


def test_spot_check_restricts_each_branch_once_per_spot_level(monkeypatch):
    """With the six spot entries already computed, ``extract_branch`` restricts
    each branch at the three spot levels once each: 3 ``branch_node`` calls
    per branch, where one call per spot pair made 6."""
    for n in (50, 200):
        b = wide_element(n)
        p = b.probe_bound
        for i in range(p, p + 3):
            for j in range(i + 1, i + 3):
                b.eval_entry(i, j)
        tree = b.system.tree
        levels = []
        real = type(tree).branch_node
        with monkeypatch.context() as patched:
            patched.setattr(type(tree), "branch_node",
                            lambda self, branch, i: levels.append(i) or real(self, branch, i))
            assert sorted(extract_branch(b, p)) == list(b.combo)
        assert sorted(levels) == [p] * n + [p + 1] * n + [p + 2] * n


def test_closing_probe_catches_a_dropped_branch(monkeypatch, sysf):
    """With one branch missing from the extraction, what is left after the
    subtraction keeps a branch part at the probe pair: the closing probe
    raises before the presentation check is reached."""
    real = decomp.extract_branch
    monkeypatch.setattr(decomp, "extract_branch", lambda b, p: real(b, p)[1:])
    tree = sysf.tree
    a = planted(sysf, {tree.branch(((0, 1),)): 1, tree.branch(((1, 1),)): 2},
                with_y0(sysf, {(Node(0, ()), 2): 1}))
    with pytest.raises(AssertionError,
                       match="^peeling must leave no branch part at the probe level$"):
        decompose(a)


# -- certification by presentation -------------------------------------------------------


def _seeded_decompositions(systems, seed, per_system=20):
    rng = Random(seed)
    for system in systems:
        for _ in range(per_system):
            a = random_planted(system, rng)
            yield a, decompose(a)


def test_decomposition_presents_the_element(sys1, sys2, sysf):
    """The certificate's combo plus residual is ``a``'s own canonical presentation."""
    for a, dec in _seeded_decompositions((sys1, sys2, sysf), 31, per_system=40):
        assert planted(a.system, dict(dec.combo), dec.residual) == a


def _forge(tamper, dec, system, rng):
    """``dec`` with one part tampered with, or ``None`` when ``dec`` has no such part."""
    tree, combo = system.tree, dec.combo
    if tamper == "residual":
        level = rng.randrange(6)
        bump = generator(sample_node(tree, rng, level), level + 1 + rng.randrange(3),
                         system.ring, system.tree)
        return dec._replace(residual=dec.residual + coboundary(system, {level: bump}))
    if tamper == "add":
        if tree.branch_count() == 0:
            return None
        present = {b for b, _ in combo}
        extra = [b for b in sample_branches(tree, rng, 4) if b not in present]
        return extra and dec._replace(combo=((extra[0], 1), *combo))
    if not combo:
        return None
    if tamper == "drop":
        return dec._replace(combo=combo[1:])
    # The other nonzero residue mod 3, the modulus of every system with branches here.
    (branch, coeff), *rest = combo
    return dec._replace(combo=((branch, coeff % 2 + 1), *rest))


@pytest.mark.parametrize("tamper", ["coefficient", "drop", "add", "residual"])
def test_verify_refuses_a_tampered_certificate(tamper, sys1, sys2, sysf):
    """One changed coefficient, a dropped or added branch, or a residual changed
    at one level no longer presents the element: the check raises."""
    rng = Random(37)
    tampered = 0
    for a, dec in _seeded_decompositions((sys1, sys2, sysf), 41):
        forged = _forge(tamper, dec, a.system, rng)
        if not forged:
            continue
        decomp._verify_decomposition(a, dec)
        with pytest.raises(AssertionError, match="presentation"):
            decomp._verify_decomposition(a, forged)
        tampered += 1
    assert tampered >= 20


def test_verify_evaluates_no_entries(monkeypatch, sys1, sys2, sysf):
    """The certificate is checked on the presentation: not one entry is computed,
    where an entry sweep below the horizon h computed C(h, 2) per side."""
    decs = list(_seeded_decompositions((sys1, sys2, sysf), 43))
    calls = []
    real = Planted.eval_entry
    monkeypatch.setattr(Planted, "eval_entry",
                        lambda self, i, j: calls.append((i, j)) or real(self, i, j))
    for a, dec in decs:
        decomp._verify_decomposition(a, dec)
    assert calls == []


# -- equivalence witnesses ------------------------------------------------------------


def test_witness_for_equal_elements(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    w = witness_equivalence(a, a, ind_omega())
    assert w.y.is_zero()


def test_witness_reproduces_coboundary_difference(sys1):
    rng = Random(19)
    for _ in range(10):
        a = random_planted(sys1, rng, max_fact_levels=2)
        fact = random_coboundary(sys1, rng)
        b = a + planted(sys1, {}, fact)
        pairs = ind_omega().square_restrict(tail(max(1, (a - b).stab_bound)))
        w = witness_equivalence(a, b, pairs)
        diff = a - b
        for i in range(12):
            for j in range(i + 1, 12):
                assert diff.eval_entry(i, j) == w.y.induced(i, j)


def test_witness_computes_only_the_agreement_probe(sys1, monkeypatch):
    """The witness is read off the canonical form, so only the agreement
    check's probe computes an entry: 1 for a ``y`` term at level L = 400,
    where the repair construction computed one entry per level below the
    stabilization bound plus the probe, L + 2 = 402."""
    level = 400
    fact = coboundary(sys1, {level: module_element(
        level, {(Node(level, 1), level + 1): 1}, sys1.ring, sys1.tree)})
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = a + planted(sys1, {}, fact)
    computed = counting_entries(monkeypatch)
    w = witness_equivalence(a, b, ind_omega().square_restrict(tail(level + 1)))
    assert len(computed) == 1
    assert w.y == (a - b).fact
    assert w.verified_to == 2 * (level + 1) + 4


def test_agreement_check_evaluates_only_pairs_at_the_y_levels(sys1, monkeypatch):
    """Past the probe the difference has no branch part, so entry ``(i, j)``
    vanishes unless ``i`` or ``j`` is a level of its ``y``.  With the index
    set omitting only that level L = 400, the probe is the one entry
    computed, where a sweep of every represented pair below L + 1 computed
    80,201; the full index set still fails at ``(0, L)``."""
    level = 400
    fact = coboundary(sys1, {level: module_element(
        level, {(Node(level, 1), level + 1): 1}, sys1.ring, sys1.tree)})
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = a + planted(sys1, {}, fact)
    all_but_level = tailset(range(level), level + 1)
    computed = counting_entries(monkeypatch)
    w = witness_equivalence(a, b, index_set(all_but_level, [ProPiece(0, None, all_but_level)]))
    assert len(computed) == 1
    assert w.y == (a - b).fact
    with pytest.raises(ValueError, match=rf"^entries differ on the index set at \(0, {level}\)$"):
        witness_equivalence(a, b, ind_omega())


def test_witness_refuses_a_tampered_coboundary(sys1, monkeypatch):
    """With the agreement check stubbed out, an inequivalent pair reaches the
    presentation check, and a coboundary cannot present a branch part."""
    monkeypatch.setattr(decomp, "_check_vanishes_on", lambda diff, pairs: None)
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = branch_generator(sys1, sys1.tree.branch(1))
    with pytest.raises(AssertionError, match="^witness does not present the difference$"):
        witness_equivalence(a, b, ind_omega())


WITNESS_SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
)


def repair_witness(diff, pairs):
    """The witness by the repair construction: ``pairs`` coherified, then
    ``y_i`` read off the difference at the successor pair of each level below
    the stabilization bound."""
    repaired = pairs.coherify(pairs.first)
    table = {}
    for i in range(diff.stab_bound):
        _, i2 = repaired.successor_pair(i)
        table[i] = diff.eval_entry(i, i2)
    return coboundary(diff.system, table)


def agreeing_index_set(data, floor):
    """An eventually coherent index set whose first members all lie at or past
    ``floor``, with piecewise projections that the repair construction cuts."""
    t = data.draw(st.integers(floor, floor + 3), label="first threshold")
    extra = data.draw(st.lists(st.integers(floor, t + 3), max_size=3), label="first finite")
    cuts = sorted(data.draw(st.sets(st.integers(1, t + 5), max_size=2), label="cuts"))
    starts = [0, *cuts]
    pieces = []
    for n, start in enumerate(starts):
        end = starts[n + 1] if n + 1 < len(starts) else None
        finite = data.draw(st.lists(st.integers(0, t + 8), max_size=3), label="stored finite")
        threshold = data.draw(st.integers(0, t + 6), label="stored threshold")
        pieces.append(ProPiece(start, end, tailset(finite, threshold)))
    return index_set(tailset(extra, t), pieces)


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(WITNESS_SYSTEMS), rng=st.randoms(use_true_random=False),
       data=st.data())
def test_witness_is_the_difference_fact(system, rng, data):
    """On every family the witness is ``(a - b).fact``, the coboundary the
    repair construction builds, and it records the index set it was given."""
    a = random_planted(system, rng, max_fact_levels=2)
    b = a + planted(system, {}, random_coboundary(system, rng))
    diff = a - b
    pairs = agreeing_index_set(data, diff.stab_bound)
    w = witness_equivalence(a, b, pairs)
    assert w.y == diff.fact
    assert w.y == repair_witness(diff, pairs)
    assert w.to_json()["index_set"] == pairs.to_json()


def reference_vanishes_on(diff, pairs):
    """The sweep the agreement check replaced: the probe, then every
    represented pair below the stabilization bound and one representative of
    each row past it, in lexicographic order."""
    p = pairs.first.min_from(diff.probe_bound)
    q = pairs.pro(p).min_value()
    if not diff.eval_entry(p, q).is_zero():
        raise ValueError(f"entries differ on the index set at ({p}, {q})")
    stab = diff.stab_bound
    for i in range(stab):
        if not pairs.first.contains(i):
            continue
        pro = pairs.pro(i)
        for j in (*pro.elements_below(stab), pro.min_from(stab)):
            if not diff.eval_entry(i, j).is_zero():
                raise ValueError(f"entries differ on the index set at ({i}, {j})")


def vanishing_verdict(check, diff, pairs):
    try:
        check(diff, pairs)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(WITNESS_SYSTEMS), rng=st.randoms(use_true_random=False),
       data=st.data())
def test_agreement_check_matches_the_full_sweep(system, rng, data):
    """Agreement and the first disagreeing pair, read at the levels of ``y``
    only, are those of the sweep over every represented pair."""
    a = random_planted(system, rng, max_fact_levels=2)
    if data.draw(st.booleans(), label="branch part"):
        b = random_planted(system, rng, max_fact_levels=2)
    else:
        # one level of y, so most pairs (i, k) have i outside the levels of y
        b = a + planted(system, {}, random_coboundary(system, rng, max_levels=1))
    diff = a - b
    pairs = agreeing_index_set(data, data.draw(st.integers(0, diff.stab_bound), label="floor"))
    assert (vanishing_verdict(decomp._check_vanishes_on, diff, pairs)
            == vanishing_verdict(reference_vanishes_on, diff, pairs))


def test_equiv_witness_index_set_is_the_full_index_set(sys1):
    assert decomp.IND_OMEGA.to_json() == ind_omega().to_json()
    a = branch_generator(sys1, sys1.tree.branch(0))
    equivalent, w = equiv_decide(a, a)
    assert equivalent and w.index_set is decomp.IND_OMEGA
    # Each report of a witness builds its own copy of the shared set's JSON.
    w.to_json()["index_set"]["pro"].clear()
    assert w.to_json()["index_set"] == ind_omega().to_json()


def test_a_changed_witness_report_changes_no_later_report(sys1):
    """Editing the index set of one ``equiv`` witness's JSON leaves the shared
    set's JSON, and the next witness's report, as they were."""
    pristine = ind_omega().to_json()
    a = branch_generator(sys1, sys1.tree.branch(0))
    report = equiv_decide(a, a)[1].to_json()
    report["index_set"]["first"]["finite"].append(5)
    report["index_set"]["pro"][0]["set"]["threshold"] = 7
    report["index_set"]["pro"].append({"i_from": 1})
    assert decomp.IND_OMEGA.to_json() == pristine
    assert equiv_decide(a, a)[1].to_json()["index_set"] == pristine


def test_witness_precondition_violation_raises(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = branch_generator(sys1, sys1.tree.branch(1))
    with pytest.raises(ValueError):
        witness_equivalence(a, b, ind_omega())
    # coboundary difference visible on the index set is also rejected
    c = a + planted(sys1, {}, with_y0(sys1, {(Node(0, 0), 1): 1}))
    with pytest.raises(ValueError):
        witness_equivalence(a, c, ind_omega())


def test_operands_of_two_systems_are_refused(sys1, sys3):
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = branch_generator(sys3, sys3.tree.branch(0))
    with pytest.raises(ValueError, match="^operands live in different systems$"):
        equiv_decide(a, b)
    with pytest.raises(ValueError, match="^operands live in different systems$"):
        witness_equivalence(a, b, ind_omega())


def test_witness_off_first_correction(sys1):
    # difference supported at level 0 only; agreement holds on pairs with i >= 1
    fact = with_y0(sys1, {(Node(0, 0), 1): 2})
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = a + planted(sys1, {}, fact)
    pairs = ind_omega().square_restrict(tail(1))
    w = witness_equivalence(a, b, pairs)
    diff = a - b
    for i in range(10):
        for j in range(i + 1, 10):
            assert diff.eval_entry(i, j) == w.y.induced(i, j)


# -- equivalence decision ---------------------------------------------------------------


def test_equiv_modulo_coboundary(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = a + planted(sys1, {}, with_y0(sys1, {(Node(0, 0), 1): 1}))
    equivalent, certificate = equiv_decide(a, b)
    assert equivalent
    assert isinstance(certificate, EquivalenceWitness)
    diff = a - b
    for i in range(8):
        for j in range(i + 1, 8):
            assert diff.eval_entry(i, j) == certificate.y.induced(i, j)


def test_inequivalent_generators(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    b = branch_generator(sys1, sys1.tree.branch(1))
    equivalent, certificate = equiv_decide(a, b)
    assert not equivalent
    assert isinstance(certificate, Decomposition)
    assert certificate.combo == ((sys1.tree.branch(0), 1), (sys1.tree.branch(1), 2))


def test_equiv_reflexive_with_zero_witness(sys3):
    a = branch_generator(sys3, sys3.tree.branch(2))
    equivalent, certificate = equiv_decide(a, a)
    assert equivalent
    assert certificate.y.is_zero()


def test_everything_trivial_over_branchless(sys2):
    rng = Random(23)
    for _ in range(15):
        a = random_planted(sys2, rng)
        equivalent, certificate = equiv_decide(a, zero_element(sys2))
        assert equivalent


# -- the per-round peel, as a reference ---------------------------------------------------


def per_round_extract(b, p):
    """The extraction the batch replaced: the least node's branch and its
    coefficient, spot-checked by a scan of each entry."""
    tree = b.system.tree
    node, _, c = b.eval_entry(p, p + 1).terms[0]
    branch = tree.branch_from_node(node)
    for i in range(p, p + 3):
        for j in range(i + 1, i + 3):
            assert b.entry_coefficient(i, j, tree.branch_node(branch, i), j).value == c
    return branch, c


def per_round_decompose(a):
    """The peeling loop the batch replaced: one round per branch, each building
    a new remainder and probing it again, below the support bound."""
    normal = normalize_cobounded(a)
    remainder = normal.element
    p = remainder.probe_bound
    extracted = []
    n_star = support_bound(remainder, p)
    while refine_nonzero(remainder, p):
        branch, c = per_round_extract(remainder, p)
        extracted.append((branch, c))
        remainder = remainder - branch_generator(a.system, branch, c)
        assert len(extracted) < n_star
    dec = Decomposition(tuple(sorted(extracted)), normal.witness, p, default_horizon(a))
    decomp._verify_decomposition(a, dec)
    return dec


def per_round_equiv(a, b):
    dec = per_round_decompose(a - b)
    if dec.combo:
        return False, dec
    return True, EquivalenceWitness(dec.residual, decomp.IND_OMEGA, dec.verified_to)


def seeded_element(system, rng, wide):
    """A random element, with up to 8 more branches planted when ``wide``."""
    a = random_planted(system, rng, max_fact_levels=2)
    if wide and system.tree.branch_count() != 0:
        extra = sample_branches(system.tree, rng, rng.randint(1, 8))
        m = system.ring.modulus
        a = a + planted(system, {t: rng.randrange(1, m) for t in extra})
    return a


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(WITNESS_SYSTEMS), rng=st.randoms(use_true_random=False),
       wide=st.booleans(), other=st.sampled_from(["random", "cobounded", "shared"]))
def test_batch_peel_matches_the_per_round_loop(system, rng, wide, other):
    """``decompose`` gives the per-round loop's combo, residual, provenance and
    horizon, and ``equiv_decide`` its flag and certificate bytes."""
    a = seeded_element(system, rng, wide)
    assert decompose(a) == per_round_decompose(a)
    if other == "random":
        b = seeded_element(system, rng, wide)
    elif other == "cobounded":
        b = a + planted(system, {}, random_coboundary(system, rng))
    else:
        b = a - planted(system, dict(a.combo[:1]))
    flag, certificate = equiv_decide(a, b)
    ref_flag, ref_certificate = per_round_equiv(a, b)
    assert flag == ref_flag
    assert certificate.to_json() == ref_certificate.to_json()


# -- quotient cardinality -----------------------------------------------------------------


def test_card_branchless(sys2):
    assert quotient_card_report(sys2) == {"cardinality": 1}


def test_card_three_branches_mod_2(sys3):
    report = quotient_card_report(sys3)
    assert report["cardinality"] == 8
    assert report["certified"] == {
        "classes": 8, "pairs_checked": 28, "all_inequivalent": True,
    }


def test_card_one_branch_mod_3():
    from invsys import DisjointBranchesTree, Ring, System

    report = quotient_card_report(System(Ring(3), DisjointBranchesTree(1)))
    assert report["cardinality"] == 3
    assert report["certified"]["classes"] == 3


def test_card_countably_infinite(sysf):
    assert quotient_card_report(sysf) == {"cardinality": COUNTABLY_INFINITE}


@pytest.mark.parametrize("modulus, count", [(2, 3), (3, 2), (2, 6)])
def test_card_certifies_by_one_entry(monkeypatch, modulus, count):
    from invsys import DisjointBranchesTree, Ring, System

    calls = []
    for name in ("equiv_decide", "decompose"):
        real = getattr(decomp, name)
        monkeypatch.setattr(decomp, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    computed = counting_entries(monkeypatch)
    report = quotient_card_report(System(Ring(modulus), DisjointBranchesTree(count)))
    classes = modulus ** count
    assert report["certified"] == {
        "classes": classes, "pairs_checked": math.comb(classes, 2), "all_inequivalent": True,
    }
    assert calls == []
    assert len(computed) == 1


def test_card_large_finite_uncertified():
    from invsys import DisjointBranchesTree, Ring, System

    report = quotient_card_report(System(Ring(3), DisjointBranchesTree(4)))
    assert report["cardinality"] == 81
    assert "certified" not in report


# -- independence of distinct combinations ---------------------------------------------------


def test_distinct_combos_never_equivalent_exhaustive():
    """Every pair of distinct combinations is decided inequivalent, and every
    nonzero combination peels to its own combo: the per-class certificate
    ``card`` ran before the separation lemma, kept as a reference for the
    systems ``card`` certifies, up to 64 classes."""
    from invsys import DisjointBranchesTree, Ring, System

    for modulus, count in [(2, 3), (3, 2), (5, 1), (2, 6)]:
        system = System(Ring(modulus), DisjointBranchesTree(count))
        branches = [system.tree.branch(k) for k in range(count)]
        combos = [
            planted(system, dict(zip(branches, coeffs)))
            for coeffs in itertools.product(range(modulus), repeat=count)
        ]
        assert quotient_card_report(system)["certified"]["classes"] == len(combos)
        for c in combos:
            if not c.is_zero():
                assert decompose(c).combo == c.combo
        if len(combos) > 27:
            continue  # by linearity, the pairs add nothing the per-class peels miss
        for x, y in itertools.combinations(combos, 2):
            equivalent, _ = equiv_decide(x, y)
            assert not equivalent
