"""The defect sweep of ``check_eq_recurrences`` against the recurrences written
out coefficient by coefficient.

``reference_eq_recurrences`` is the candidate-by-candidate check the sweep
replaced: for every ``(nu, l)`` that any of the three entries of a triple can
touch, it rebuilds the expected ``(i,k)`` coefficient from the ``(i,j)`` and
``(j,k)`` entries with ring arithmetic.  Faults are injected by pre-filling
the entry table of a fresh copy of an element (``conftest.prefilled``), the
only entry source of the checks.  On faulted tables the sweep must report
the same violations in the same order, and ``check_coherence`` must hold
exactly when that report is ok, which is what lets ``check`` read coherence
off the recurrence sweep.

``check_coherence`` sweeps only the consecutive triples ``(i, i+1, k)``; on
faulted tables it must agree with ``all_triples_coherent``, the sweep over
every triple that it replaced.  Both sweeps read ``_defects``, which sums
the defect coefficients of the triples ``(i, j, k)`` of one pair ``(i, j)``
into unreduced maps without building an element; on faulted tables each map
must present ``reference_defect``, the defect written in module arithmetic,
and a misplaced entry must be rejected with the same error.

``_defects`` reads ``a[i, j]`` once, starts each defect from the map of
``-a[i, j]``, and maps ``a[j, k]`` through one restriction map ``node ->
node|i`` per level, which a recording table and a counted ``_restrict`` pin.
``restriction_stability`` answers from one scan of each entry when the
``(i, j)`` entry has no term below ``j``.  On faulted and misplaced entries
both must answer, or raise, exactly as ``per_triple_coherence`` and
``filtered_stability``, the per-triple code they replaced.
"""

from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    ModuleElement,
    Ring,
    System,
    apply_hom,
    check_coherence,
    check_eq_recurrences,
    coboundary,
    module_element,
    planted,
    restriction_stability,
)
from invsys import coherent
from invsys.coherent import EqViolation
from invsys.freemod import _add_hom, _add_terms
from invsys.sampling import random_planted, sample_node

from conftest import prefilled

SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
)
FAMILY_IDS = [s.tree.kind for s in SYSTEMS]


def reference_eq_recurrences(a, horizon, ev):
    tree = a.system.tree
    ring = a.system.ring
    violations = []
    for i in range(horizon):
        for j in range(i + 1, horizon):
            for k in range(j + 1, horizon):
                e_ij = ev(i, j)
                e_ik = ev(i, k)
                e_jk = ev(j, k)
                upper_nodes = tuple({eta for eta, _, _ in e_jk.terms})
                candidates = set()
                for nu, l, _ in e_ij.terms:
                    candidates.add((nu, l))
                for nu, l, _ in e_ik.terms:
                    candidates.add((nu, l))
                for eta, l, _ in e_jk.terms:
                    down = tree.restrict(eta, i)
                    candidates.add((down, l))
                    candidates.add((down, j))
                for nu, l in sorted(candidates, key=lambda t: (tree.node_sort_key(t[0]), t[1])):
                    got = e_ik.coefficient(nu, l)
                    above = tree.pro_level_within(j, nu, upper_nodes)
                    if l < j:
                        want = e_ij.coefficient(nu, l)
                        tag = "below"
                    elif l == j:
                        total = ring.zero
                        for eta in above:
                            for eta2, l2, c in e_jk.terms:
                                if eta2 == eta and l2 > j:
                                    total = total + ring.elem(c)
                        want = e_ij.coefficient(nu, j) - total
                        tag = "at"
                    else:
                        total = ring.zero
                        for eta in above:
                            total = total + e_jk.coefficient(eta, l)
                        want = e_ij.coefficient(nu, l) + total
                        tag = "above"
                    if got != want:
                        violations.append(EqViolation(tag, i, j, k, nu, l))
    return tuple(violations)


def fault_at(a, i, j, horizon, rng: Random):
    """A perturbation of entry ``(i, j)``.

    It reuses the entry's own support half the time, so faults also cancel
    terms, not only add them.
    """
    system = a.system
    m = system.ring.modulus
    support = a.eval_entry(i, j).support()
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if support and rng.random() < 0.5:
            key = rng.choice(support)
        else:
            key = (sample_node(system.tree, rng, i), rng.randint(i + 1, horizon + 1))
        terms[key] = terms.get(key, 0) + rng.randint(1, m - 1)
    return module_element(i, terms, system.ring, system.tree)


def perturbed(a, faults):
    """A copy of ``a`` whose table holds ``a``'s entry plus the fault at each
    pair of ``faults``, a ``(i, j) -> element`` map."""
    return prefilled(a, {pair: a.eval_entry(*pair) + fault for pair, fault in faults.items()})


def faulted(a, horizon, rng: Random):
    """A copy of ``a`` with a few entries below the horizon perturbed."""
    faults = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(horizon - 1)
        j = rng.randint(i + 1, horizon - 1)
        faults[(i, j)] = fault_at(a, i, j, horizon, rng)
    return perturbed(a, faults)


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(SYSTEMS), rng=st.randoms(use_true_random=False),
       horizon=st.integers(3, 7), fault=st.booleans())
def test_defect_sweep_matches_reference(system, rng, horizon, fault):
    a = random_planted(system, rng, level_cap=horizon)
    b = faulted(a, horizon, rng) if fault else a
    report = check_eq_recurrences(b, horizon)
    assert report.violations == reference_eq_recurrences(b, horizon, b.eval_entry)
    assert check_coherence(b, horizon) == report.ok


def all_triples_coherent(horizon, ev):
    return all(
        ev(i, k) == ev(i, j) + apply_hom(ev(j, k), i)
        for i in range(horizon) for j in range(i + 1, horizon) for k in range(j + 1, horizon)
    )


def pairs_below(horizon):
    return [(i, j) for i in range(horizon) for j in range(i + 1, horizon)]


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(SYSTEMS), rng=st.randoms(use_true_random=False),
       horizon=st.integers(3, 8), data=st.data())
def test_consecutive_triples_decide_coherence(system, rng, horizon, data):
    a = random_planted(system, rng, level_cap=horizon)
    pairs = data.draw(st.lists(st.sampled_from(pairs_below(horizon)), max_size=3, unique=True),
                      label="faulted pairs")
    b = perturbed(a, {(i, j): fault_at(a, i, j, horizon, rng) for i, j in pairs})
    assert check_coherence(b, horizon) == all_triples_coherent(horizon, b.eval_entry)


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_consecutive_triples_decide_coherence_at_every_pair(system):
    """One faulted entry at every pair below the horizon, the last pair
    ``(h-2, h-1)``, read only through a hom, included."""
    rng = Random(f"every-pair/{system.tree.kind}")
    horizon = 6
    for _ in range(4):
        a = random_planted(system, rng, level_cap=horizon)
        for i, j in pairs_below(horizon):
            b = perturbed(a, {(i, j): fault_at(a, i, j, horizon, rng)})
            assert check_coherence(b, horizon) == all_triples_coherent(horizon, b.eval_entry)


def reference_defect(ev, i, j, k):
    """The coherence defect of one triple in module arithmetic, canonical."""
    return ev(i, k) - (ev(i, j) + apply_hom(ev(j, k), i))


def sweep_reads(triples):
    """The entry reads of a sweep over ``triples`` through ``_defects``: the
    ``(i, j)`` entry once per run of triples of one pair, then ``(i, k)``
    and ``(j, k)`` per triple."""
    reads, pair = [], None
    for i, j, k in triples:
        if (i, j) != pair:
            pair = (i, j)
            reads.append(pair)
        reads += [(i, k), (j, k)]
    return reads


class Recording(dict):
    """An entry table that records the pair of every read."""

    def __init__(self, entries):
        super().__init__(entries)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def full_tables(a, h, rng):
    """``a``'s full table below ``h``, and a copy with a fault at entry
    ``(0, 7)``: one term of index 9."""
    system = a.system
    entries = {pair: a.eval_entry(*pair) for pair in pairs_below(h)}
    fault = module_element(0, {(sample_node(system.tree, rng, 0), 9): 1},
                           system.ring, system.tree)
    return entries, {**entries, (0, 7): entries[(0, 7)] + fault}


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_full_sweep_runs_only_on_a_defect(system, monkeypatch):
    rng = Random(f"fallback/{system.tree.kind}")
    a = random_planted(system, rng, max_fact_levels=4, level_cap=9)
    h = 14
    entries, faulty = full_tables(a, h, rng)
    consecutive = [(i, i + 1, k) for i in range(h - 2) for k in range(i + 2, h)]
    every = [(i, j, k) for i in range(h) for j in range(i + 1, h) for k in range(j + 1, h)]
    swept = []
    defects = coherent._defects

    # Both sweeps take their defects from ``_defects``; the wrapper records
    # each triple whose defect is taken, and a recording table, installed
    # fully pre-filled, records every entry read.
    def counted(ev, i, j, horizon, down):
        for k, acc in enumerate(defects(ev, i, j, horizon, down), j + 1):
            swept.append((i, j, k))
            yield acc

    monkeypatch.setattr(coherent, "_defects", counted)
    assert check_eq_recurrences(a, h).ok
    swept.clear()
    b = prefilled(a, entries, Recording)
    assert check_eq_recurrences(b, h).ok
    assert swept == consecutive and len(consecutive) == comb(h - 1, 2)
    assert b._entries.reads == sweep_reads(consecutive)

    # The fast path reads entry (0, 7) only as the (i,k) entry of (0, 1, 7),
    # stops there, and the full sweep then reads (i, j) once per pair and
    # (i, k), (j, k) per triple.
    swept.clear()
    b = prefilled(a, faulty, Recording)
    report = check_eq_recurrences(b, h)
    assert not report.ok
    fast = consecutive[:consecutive.index((0, 1, 7)) + 1]
    assert swept == fast + every and len(every) == comb(h, 3)
    assert b._entries.reads == sweep_reads(fast) + sweep_reads(every)
    assert report.violations == reference_eq_recurrences(b, h, b.eval_entry)


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_full_sweep_restricts_each_node_once_per_level(system, monkeypatch):
    """The full sweep shares one restriction map per level ``i`` across its
    pairs ``(i, j)``: ``tree._restrict`` runs once for each node of an entry
    ``a[j, k]``, ``i < j < k``, and level ``i``, not once per triple."""
    rng = Random(f"restrict-once/{system.tree.kind}")
    ring, tree = system.ring, system.tree
    # a term in every y_l, 1 <= l <= 8, so every level has nodes to restrict
    y = {l: module_element(l, {(sample_node(tree, rng, l), l + 2): 1}, ring, tree)
         for l in range(1, 9)}
    a = random_planted(system, rng, level_cap=9) + planted(system, {}, coboundary(system, y))
    h = 14
    _, faulty = full_tables(a, h, rng)
    b = prefilled(a, faulty)
    once = sum(len({eta for j in range(i + 1, h) for k in range(j + 1, h)
                    for eta, _, _ in faulty[(j, k)].terms}) for i in range(h - 2))
    per_triple = sum(len(faulty[(j, k)].terms)
                     for i in range(h) for j in range(i + 1, h) for k in range(j + 1, h))
    real, restricted = type(system.tree)._restrict, []

    def counting(self, address, i):
        restricted.append((address, i))
        return real(self, address, i)

    # the table is incoherent, so the full sweep runs; it alone is counted
    monkeypatch.setattr(coherent, "check_coherence", lambda *args: False)
    monkeypatch.setattr(type(system.tree), "_restrict", counting)
    assert not check_eq_recurrences(b, h).ok
    assert len(restricted) == once < per_triple


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(SYSTEMS), rng=st.randoms(use_true_random=False),
       horizon=st.integers(3, 8), data=st.data())
def test_defect_matches_reference(system, rng, horizon, data):
    """The unreduced defect map presents the reference defect at every triple
    of a faulted table."""
    a = random_planted(system, rng, level_cap=horizon)
    pairs = data.draw(st.lists(st.sampled_from(pairs_below(horizon)), max_size=3, unique=True),
                      label="faulted pairs")
    b = perturbed(a, {(i, j): fault_at(a, i, j, horizon, rng) for i, j in pairs})
    ev, triples = coherent._reader(b), 0
    for i in range(horizon - 2):
        down = {}
        for j in range(i + 1, horizon - 1):
            for k, acc in enumerate(coherent._defects(ev, i, j, horizon, down), j + 1):
                got = module_element(i, acc, system.ring, system.tree)
                assert got == reference_defect(b.eval_entry, i, j, k)
                triples += 1
    assert triples == comb(horizon, 3)


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
@pytest.mark.parametrize("role", ["ik", "ij", "jk"])
def test_defect_paths_reject_a_misplaced_entry_alike(system, role):
    """An entry of the wrong level, or from another system, raises the same
    ``ValueError`` on the defect map and on the reference defect."""
    a = random_planted(system, Random(f"misplaced/{system.tree.kind}"), level_cap=5)
    i, j, k = 1, 2, 4
    pair = {"ik": (i, k), "ij": (i, j), "jk": (j, k)}[role]
    other = System(Ring(system.ring.modulus + 1), system.tree)
    # A level-i entry at (i, k) or (i, j) is in place; at (j, k) any level
    # above i is mapped without complaint, so there the wrong level is i.
    wrong_level = i if role == "jk" else i + 1
    misplaced = (
        ModuleElement.zero(0, system.ring, system.tree),
        ModuleElement.zero(wrong_level, system.ring, system.tree),
        ModuleElement.zero(pair[0], other.ring, other.tree),
    )
    for wrong in misplaced:
        b = prefilled(a, {pair: wrong})
        message = raised(reference_defect, b.eval_entry, i, j, k)
        assert raised(list, coherent._defects(coherent._reader(b), i, j, k + 1, {})) == message


def per_triple_defect(ev, i, j, k):
    """The defect map of one triple, summed from scratch, with the entry
    checks of module arithmetic."""
    e_ik, e_ij, e_jk = ev(i, k), ev(i, j), ev(j, k)
    if i >= e_jk.level:
        raise ValueError(f"target level {i} must be below the source level {e_jk.level}")
    for e, mate in ((e_ij, e_jk), (e_ik, e_ij)):
        if e.level != i:
            raise ValueError(f"mismatched levels: {e.level} vs {i}")
        if (e.ring, e.tree) != (mate.ring, mate.tree):
            raise ValueError("operands live in different systems")
    acc = {}
    _add_terms(acc, e_ik, 1)
    _add_terms(acc, e_ij, -1)
    _add_hom(acc, e_jk, i, -1)
    return acc


def per_triple_coherence(a, horizon, ev):
    m = a.system.ring.modulus
    return not any(
        c % m
        for i in range(horizon - 2) for k in range(i + 2, horizon)
        for c in per_triple_defect(ev, i, i + 1, k).values()
    )


def filtered_stability(ev, i, j, k):
    low = [t for t in ev(i, j).terms if t[1] < j]
    return low == [t for t in ev(i, k).terms if t[1] < j]


def outcome(fn, *args):
    try:
        return "answer", fn(*args)
    except ValueError as exc:
        return "raised", str(exc)


# Where a term below j goes at one triple (i, j, k): nowhere, into the (i, j)
# entry only, into the (i, k) entry only, or into both, with equal or
# different coefficients.
LOW_TERM_PLACES = ("none", "ij", "ik", "both-equal", "both-different")


@settings(max_examples=150, deadline=None)
@given(system=st.sampled_from(SYSTEMS), rng=st.randoms(use_true_random=False),
       horizon=st.integers(4, 8), place=st.sampled_from(LOW_TERM_PLACES),
       misplace=st.booleans(), every_pair=st.booleans(), data=st.data())
def test_shared_work_sweeps_match_the_per_triple_code(system, rng, horizon, place, misplace,
                                                     every_pair, data):
    ring, tree = system.ring, system.tree
    a = random_planted(system, rng, level_cap=horizon)
    pairs = data.draw(st.lists(st.sampled_from(pairs_below(horizon)), max_size=2, unique=True),
                      label="faulted pairs")
    faults = {(i, j): fault_at(a, i, j, horizon, rng) for i, j in pairs}
    i, j, k = data.draw(st.sampled_from([t for t in combinations(range(horizon), 3)
                                         if t[1] >= t[0] + 2]), label="low-term triple")
    key = (sample_node(tree, rng, i), rng.randint(i + 1, j - 1))
    c = rng.randrange(1, ring.modulus)
    other_c = c % (ring.modulus - 1) + 1  # nonzero, and not c
    coeffs = {"ij": {(i, j): c}, "ik": {(i, k): c}, "both-equal": {(i, j): c, (i, k): c},
              "both-different": {(i, j): c, (i, k): other_c}}.get(place, {})
    for pair, coeff in coeffs.items():
        low = module_element(i, {key: coeff}, ring, tree)
        faults[pair] = faults[pair] + low if pair in faults else low
    table = {pair: a.eval_entry(*pair) + fault for pair, fault in faults.items()}
    if misplace:
        # an entry of the wrong level or system, refused by the defect where
        # its level or system is checked
        p, q = data.draw(st.sampled_from(pairs_below(horizon)), label="misplaced pair")
        table[(p, q)] = data.draw(st.sampled_from([
            ModuleElement.zero(p + 1, ring, tree),
            ModuleElement.zero(p, Ring(ring.modulus + 1), tree)]), label="misplaced entry")

    # a fresh copy of ``a`` whose table already holds the faulted entries
    # and every other entry, or some of them; the sweeps read that table and
    # compute the rest
    b = prefilled(a, {pair: table.get(pair) or a.eval_entry(*pair) for pair in pairs_below(horizon)
                      if pair in table or every_pair or rng.random() < 0.5})
    ev = b.eval_entry
    assert outcome(check_coherence, b, horizon) == outcome(per_triple_coherence, b, horizon, ev)
    for t in combinations(range(horizon), 3):
        assert outcome(restriction_stability, b, *t) == outcome(filtered_stability, ev, *t)
