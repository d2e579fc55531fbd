from random import Random

import pytest

from invsys import (
    Branch,
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Node,
    Planted,
    Ring,
    System,
    below,
    branch_generator,
    check_coherence,
    check_eq_recurrences,
    coboundary,
    decompose,
    default_horizon,
    generator,
    module_element,
    normalize_cobounded,
    planted,
    restriction_stability,
    singleton,
    zero_element,
)
from invsys.coherent import EqViolation
from invsys.sampling import random_coboundary, random_planted, sample_branches, sample_node

from conftest import prefilled


def b0(level):
    return Node(level, 0)


def y_elem(system, level, entries):
    return module_element(level, entries, system.ring, system.tree)


def with_y0(system, terms):
    return coboundary(system, {0: y_elem(system, 0, terms)})


# -- evaluation ------------------------------------------------------------------


def test_eval_branch_generator(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    assert a.eval_entry(0, 1) == generator(b0(0), 1, sys1.ring, sys1.tree)
    assert a.eval_entry(2, 5) == generator(b0(2), 5, sys1.ring, sys1.tree)


def test_eval_pure_coboundary(sys1):
    fact = with_y0(sys1, {(b0(0), 1): 1})
    a = planted(sys1, {}, fact)
    for j in range(1, 7):
        assert a.eval_entry(0, j) == y_elem(sys1, 0, {(b0(0), 1): 1})
    for i in range(1, 6):
        for j in range(i + 1, 7):
            assert a.eval_entry(i, j).is_zero()


def test_eval_zero_element(sys1):
    z = zero_element(sys1)
    for i in range(4):
        for j in range(i + 1, 5):
            assert z.eval_entry(i, j).is_zero()


def test_eval_rejects_bad_pairs(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    with pytest.raises(ValueError):
        a.eval_entry(2, 2)
    with pytest.raises(ValueError):
        a.eval_entry(3, 1)


def test_entry_coefficient_reads_off(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    assert a.entry_coefficient(0, 1, b0(0), 1).value == 1
    assert a.entry_coefficient(0, 1, Node(0, 1), 1).value == 0


def test_entry_coefficient_of_zero(sys1):
    assert zero_element(sys1).entry_coefficient(0, 3, b0(0), 2).value == 0


def test_entry_coefficient_sees_coboundary(sys1):
    fact = with_y0(sys1, {(b0(0), 3): 2})
    a = planted(sys1, {}, fact)
    assert a.entry_coefficient(0, 5, b0(0), 3).value == 2


# -- coherence -----------------------------------------------------------------


def test_coherence_holds_for_planted(sys1):
    fact = with_y0(sys1, {(b0(0), 1): 1})
    a = planted(sys1, {sys1.tree.branch(0): 1, sys1.tree.branch(1): 2}, fact)
    assert check_coherence(a, 8)


def test_coherence_detects_injected_fault(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    corrupted = prefilled(a, {(1, 3): a.eval_entry(1, 3) + generator(b0(1), 2, sys1.ring, sys1.tree)})
    assert check_coherence(a, 8) is True
    assert check_coherence(corrupted, 8) is False


def test_coherence_of_zero(sys1):
    assert check_coherence(zero_element(sys1), 8)


def test_coherence_horizon_floor(sys1):
    with pytest.raises(ValueError):
        check_coherence(zero_element(sys1), 2)


# -- coefficient recurrences -------------------------------------------------------


def test_eq_hand_instance_at_j(sys1):
    # entry (0,2) of a single branch generator has no coefficient at index 1:
    # the (0,1) coefficient is cancelled by the level-1 mass
    a = branch_generator(sys1, sys1.tree.branch(0))
    assert a.entry_coefficient(0, 2, b0(0), 1).value == 0
    assert a.entry_coefficient(0, 1, b0(0), 1).value == 1
    assert a.entry_coefficient(1, 2, b0(1), 2).value == 1
    assert check_eq_recurrences(a, 5).ok


def test_eq_hand_instance_above_j(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    # at l = k = 2 the (0,2) coefficient equals the level-1 contribution
    assert a.entry_coefficient(0, 2, b0(0), 2).value == 1
    assert a.entry_coefficient(0, 1, b0(0), 2).value == 0


def test_eq_zero_element(sys1):
    assert check_eq_recurrences(zero_element(sys1), 6).ok


def test_eq_report_lists_injected_violation(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    corrupted = prefilled(a, {(0, 2): a.eval_entry(0, 2) + generator(b0(0), 1, sys1.ring, sys1.tree)})
    report = check_eq_recurrences(corrupted, 4)
    assert not report.ok
    # the extra (b0(0), 1) sits at index j = 1 of the (i,k) entry of (0, 1, 2)
    # and below j = 2 in the (i,j) entry of (0, 2, 3)
    assert report.violations == (EqViolation("at", 0, 1, 2, b0(0), 1),
                                 EqViolation("below", 0, 2, 3, b0(0), 1))


def test_entries_past_stab_bound_are_pure_branch_form(sys1, sysf):
    rng = Random(77)
    for system in (sys1, sysf):
        for _ in range(10):
            a = random_planted(system, rng)
            bare = planted(system, dict(a.combo))
            for i in range(a.stab_bound, a.stab_bound + 3):
                for j in range(i + 1, i + 4):
                    assert a.eval_entry(i, j) == bare.eval_entry(i, j)


def pairwise_probe_bound(a):
    """The probe bound as the larger of the stability bound, every presentation
    level and every pair's separation level, each family's formula spelled out."""
    tree = a.system.tree
    branches = [b for b, _ in a.combo]

    def separation(b1, b2):
        if isinstance(tree, DisjointBranchesTree):
            return 0
        m1, m2 = dict(b1.presentation), dict(b2.presentation)
        return min(p for p in set(m1) | set(m2) if m1.get(p, 0) != m2.get(p, 0)) + 1

    bound = max([a.stab_bound, *(tree.presentation_level(b) for b in branches)])
    for k, b1 in enumerate(branches):
        for b2 in branches[k + 1:]:
            bound = max(bound, separation(b1, b2))
    return bound


@pytest.mark.parametrize("system", (
    System(Ring(3), DisjointBranchesTree(7)),
    System(Ring(2), FiniteSupportTree((), 2)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(5), FiniteSupportTree((1, 3, 1), 3)),
    System(Ring(6), DecreasingSeqTree()),
), ids=lambda s: f"{s.tree.kind}-m{s.ring.modulus}")
def test_probe_bound_matches_pairwise_separation(system):
    """Presentation levels alone give the probe bound: no pair of branches
    separates above the larger of their presentation levels."""
    rng = Random(f"probe/{system.tree.to_json()}/{system.ring.modulus}")
    has_branches = system.tree.branch_count() != 0
    for _ in range(60):
        count = rng.randint(0, 6) if has_branches else 0
        combo = {b: rng.randrange(1, system.ring.modulus)
                 for b in sample_branches(system.tree, rng, count)}
        a = planted(system, combo, random_coboundary(system, rng))
        assert a.probe_bound == pairwise_probe_bound(a)


def test_eq_randomized(sys1, sys3, sysf):
    rng = Random(21)
    for system in (sys1, sys3, sysf):
        for _ in range(12):
            a = random_planted(system, rng)
            report = check_eq_recurrences(a, 8)
            assert report.ok, report.violations[:3]


# -- restriction stability -----------------------------------------------------------


def test_restriction_stability_randomized(sys1, sysf):
    rng = Random(31)
    for system in (sys1, sysf):
        for _ in range(20):
            a = random_planted(system, rng)
            i = rng.randint(0, 5)
            j = rng.randint(i + 1, 6)
            k = rng.randint(j + 1, 7)
            assert restriction_stability(a, i, j, k)


def test_restriction_stability_detects_fault(sys1):
    cobounded = planted(sys1, {}, with_y0(sys1, {(b0(0), 2): 1}))
    bare = branch_generator(sys1, sys1.tree.branch(0))
    fault = generator(b0(0), 2, sys1.ring, sys1.tree)
    # the (0, 3) entry of ``cobounded`` has a term below 3 and that of
    # ``bare`` has none: the low-term comparison and the early return
    for a in (cobounded, bare):
        assert restriction_stability(a, 0, 3, 5)
        corrupted = prefilled(a, {(0, 5): a.eval_entry(0, 5) + fault})
        assert restriction_stability(corrupted, 0, 3, 5) is False


def test_restriction_stability_computes_a_missing_entry(sys1, sys2, sysf):
    """A missing entry is computed through ``eval_entry``, which files it in
    the table and validates the pair."""
    rng = Random(33)
    for system in (sys1, sys2, sysf):
        for _ in range(10):
            a = random_planted(system, rng)
            twin = Planted.from_json(a.to_json(), system)
            i = rng.randint(0, 5)
            j = rng.randint(i + 1, 6)
            k = rng.randint(j + 1, 7)
            assert restriction_stability(a, i, j, k)
            assert sorted(a._entries) == [(i, j), (i, k)]
            assert all(a._entries[key] == twin.eval_entry(*key) for key in a._entries)
            assert restriction_stability(a, i, j, k)
        with pytest.raises(ValueError, match=r"^need 0 <= i < j, got \(-1, 1\)$"):
            restriction_stability(a, -1, 1, 2)
        with pytest.raises(ValueError, match=r"^need i < j < k, got \(1, 1, 2\)$"):
            restriction_stability(a, 1, 1, 2)


def test_restriction_stability_zero(sys2):
    assert restriction_stability(zero_element(sys2), 0, 1, 2)


def test_coherence_rejects_every_fault_that_breaks_stability(sys1, sys2, sysf):
    """Stability is a corollary of coherence: ``a[i,k] - a[i,j] = hom_i(a[j,k])``
    has every term at index >= j.  So a single-term fault that breaks stability
    on some triple below the horizon also breaks coherence there."""
    h = 9
    rng = Random(91)
    for system in (sys1, sys2, sysf):
        ring, tree = system.ring, system.tree
        unstable = 0
        for _ in range(200):
            a = random_planted(system, rng, level_cap=4, index_cap=h)
            i = rng.randrange(h - 1)
            j = rng.randrange(i + 1, h)
            terms = a.eval_entry(i, j).terms
            if terms and rng.random() < 0.5:  # a fault on a term already there
                node, l, _ = rng.choice(terms)
            else:
                node, l = sample_node(tree, rng, i), rng.randint(i + 1, h)
            fault = y_elem(system, i, {(node, l): rng.randrange(1, ring.modulus)})
            faulted = prefilled(a, {(i, j): a.eval_entry(i, j) + fault})
            stable = all(restriction_stability(faulted, p, q, r)
                         for p in range(h) for q in range(p + 1, h) for r in range(q + 1, h))
            if not stable:
                unstable += 1
                assert not check_coherence(faulted, h), (a, i, j, fault)
        assert unstable >= 10, (system, unstable)


# -- the nonzero-cut witness for coboundaries ------------------------------------------


def test_pure_coboundary_has_nonzero_cut(sys1, sysf):
    # every nonzero pure-coboundary element shows itself below some cut:
    # the first index past the least generator index of the first nonzero y
    rng = Random(51)
    for system in (sys1, sysf):
        produced = 0
        while produced < 25:
            fact = random_coboundary(system, rng)
            if fact.is_zero():
                continue
            produced += 1
            a = planted(system, {}, fact)
            bound = max(l for _, y in fact.entries for _, l, _ in y.terms) + 2
            hits = [
                (i, j)
                for i in range(bound)
                for j in range(i + 1, bound)
                if not a.eval_entry(i, j).restrict_to(below(j)).is_zero()
            ]
            assert hits, "nonzero coboundary never surfaced below the cut"


def test_pure_combo_cuts_always_vanish(sys1, sys3, sysf):
    # branch combinations never surface below the cut, so they are never
    # equivalent to a nonzero coboundary
    rng = Random(61)
    for system in (sys1, sys3, sysf):
        for _ in range(15):
            a = random_planted(system, rng, max_fact_levels=0)
            for i in range(6):
                for j in range(i + 1, 8):
                    assert a.eval_entry(i, j).restrict_to(below(j)).is_zero()


# -- the constant-coefficient transfer across index pairs ------------------------------


def test_top_concentrated_coefficient_transfer(sys1, sys3):
    # for elements whose entries sit at the top index, the coefficient at
    # (nu, j) in entry (i,j) transfers to (nu', k) at entry (i,k)
    rng = Random(71)
    for system in (sys1, sys3):
        for _ in range(15):
            a = random_planted(system, rng, max_fact_levels=0)
            tree = system.tree
            for _ in range(10):
                i = rng.randint(0, 4)
                j = rng.randint(i + 1, 6)
                k = rng.randint(j + 1, 8)
                e_ij = a.eval_entry(i, j)
                e_jk = a.eval_entry(j, k)
                upper = tuple({eta for eta, _, _ in e_jk.terms})
                for nu, l in e_ij.support():
                    assert l == j
                    total = system.ring.zero
                    for eta in tree.pro_level_within(j, nu, upper):
                        total = total + e_jk.coefficient(eta, k)
                    assert e_ij.coefficient(nu, j) == total
                    assert total == a.eval_entry(i, k).coefficient(nu, k)


# -- normalization ----------------------------------------------------------------------


def test_normalize_pure_combo_is_identity(sys1):
    a = planted(sys1, {sys1.tree.branch(0): 1})
    normal = normalize_cobounded(a)
    assert normal.element == a
    assert normal.witness.is_zero()
    assert all(normal.bounds.at(i) == i + 1 for i in range(8))


def test_normalize_absorbs_coboundary(sys1):
    a = planted(sys1, {}, with_y0(sys1, {(b0(0), 1): 1}))
    normal = normalize_cobounded(a)
    assert normal.bounds.at(0) == 2
    assert normal.witness.y(0) == y_elem(sys1, 0, {(b0(0), 1): 1})
    assert normal.element.is_zero()


def test_normalize_is_linear_in_the_parts(sys1):
    fact = with_y0(sys1, {(b0(0), 1): 1})
    combo = planted(sys1, {sys1.tree.branch(0): 1, sys1.tree.branch(1): 2})
    a = combo + planted(sys1, {}, fact)
    normal = normalize_cobounded(a)
    assert normal.element == combo
    assert normal.witness.y(0) == fact.y(0)


def test_normalize_contract_randomized(sys1, sysf):
    rng = Random(81)
    for system in (sys1, sysf):
        for _ in range(15):
            a = random_planted(system, rng)
            normal = normalize_cobounded(a)
            b = normal.element
            for i in range(8):
                istar = normal.bounds.at(i)
                assert istar > i
                for j in range(istar, istar + 3):
                    entry = b.eval_entry(i, j)
                    assert entry.restrict_to(below(j)).is_zero()
                    assert entry == entry.restrict_to(singleton(j))
            assert all(normal.bounds.at(i) == i + 1 for i in range(a.stab_bound, 8))
            for i in range(8):
                for j in range(i + 1, 12):
                    diff = a.eval_entry(i, j) - b.eval_entry(i, j)
                    assert diff == normal.witness.induced(i, j)


def test_normalize_computes_one_entry_per_nonzero_level(sys1, monkeypatch):
    # levels between and below the two nonzero ones are never evaluated, and
    # each cut is an entry of the coboundary part alone, not of ``a``
    fact = coboundary(sys1, {3: y_elem(sys1, 3, {(b0(3), 4): 1}),
                             5000: y_elem(sys1, 5000, {(Node(5000, 1), 5003): 2})})
    a = planted(sys1, {sys1.tree.branch(0): 1}, fact)
    real, evaluated = Planted.eval_entry, []

    def recording(self, i, j):
        evaluated.append((self.combo, self.fact, i, j))
        return real(self, i, j)

    monkeypatch.setattr(Planted, "eval_entry", recording)
    normal = normalize_cobounded(a)
    assert evaluated == [((), fact, 3, 5), ((), fact, 5000, 5004)]
    assert a._entries == {}
    assert [normal.bounds.at(i) for i in (0, 3, 4, 4999, 5000, 5001)] == [1, 5, 5, 5000, 5004, 5002]
    assert normal.witness == fact
    assert normal.element == planted(sys1, {sys1.tree.branch(0): 1})


def test_normalize_restricts_no_branch(monkeypatch):
    """The cuts never read the branch part, so normalizing an element of 50
    branches asks the tree for no branch node."""
    system = System(Ring(5), DisjointBranchesTree(60))
    tree = system.tree
    fact = coboundary(system, {i: y_elem(system, i, {(Node(i, i), i + 2): 1}) for i in (0, 2, 4, 6, 8)})
    a = planted(system, {tree.branch(t): 1 + t % 4 for t in range(50)}, fact)
    real, calls = type(tree).branch_node, []

    def counting(self, branch, i):
        calls.append((branch, i))
        return real(self, branch, i)

    monkeypatch.setattr(type(tree), "branch_node", counting)
    normal = normalize_cobounded(a)
    assert calls == []
    assert normal.witness == fact and normal.element == planted(system, dict(a.combo))


def test_normalize_refuses_a_perturbed_cut(sys1, monkeypatch):
    """A cut that is not ``y_i`` yields a witness other than the coboundary
    part, which normalization must absorb whole."""
    a = planted(sys1, {sys1.tree.branch(1): 1}, with_y0(sys1, {(b0(0), 1): 1}))
    cut = (0, normalize_cobounded(a).bounds.at(0))
    real = Planted.eval_entry

    def perturbed(self, i, j):
        entry = real(self, i, j)
        if (i, j) == cut:
            entry = entry + y_elem(sys1, 0, {(b0(0), 1): 1})
        return entry

    monkeypatch.setattr(Planted, "eval_entry", perturbed)
    with pytest.raises(AssertionError, match="^normalization must absorb the whole coboundary part$"):
        normalize_cobounded(a)


def test_default_horizon_rule(sys1):
    assert default_horizon(zero_element(sys1)) == 8
    deep = planted(sys1, {}, coboundary(sys1, {
        5: module_element(5, {(b0(5), 6): 1}, sys1.ring, sys1.tree)
    }))
    assert default_horizon(deep) == max(8, 2 * 6 + 4)


# -- canonical form and serialization ----------------------------------------------------


def test_combo_merges_and_drops_zero(sys1):
    t0 = sys1.tree.branch(0)
    a = planted(sys1, [(t0, 1), (t0, 2)])
    assert a.combo == ()
    assert a.is_zero()


def test_planted_checks_a_branch_whose_coefficient_vanishes(sys1):
    with pytest.raises(ValueError, match="branch index must lie below 2"):
        planted(sys1, {Branch(99): 3})


def test_planted_refuses_a_coefficient_of_another_ring(sys1):
    with pytest.raises(ValueError, match=r"^mismatched rings: Ring\(modulus=3\) vs Ring\(modulus=5\)$"):
        planted(sys1, {sys1.tree.branch(0): Ring(5).elem(4)})


def test_coboundary_merges_a_repeated_level(sys1):
    e1 = y_elem(sys1, 0, {(b0(0), 1): 1, (Node(0, 1), 2): 2})
    e2 = y_elem(sys1, 0, {(b0(0), 1): 1, (b0(0), 3): 1})
    repeated = coboundary(sys1, [(0, e1), (2, y_elem(sys1, 2, {(b0(2), 3): 1})), (0, e2)])
    merged = coboundary(sys1, {0: e1 + e2, 2: y_elem(sys1, 2, {(b0(2), 3): 1})})
    assert repeated == merged
    assert coboundary(sys1, [(0, e1), (0, -e1)]).is_zero()
    a = planted(sys1, {sys1.tree.branch(1): 2}, repeated)
    dec = decompose(a)
    assert dec.combo == ((sys1.tree.branch(1), 2),)
    assert dec.residual == merged


def test_planted_json_round_trip(sys1, sysf):
    rng = Random(91)
    for system in (sys1, sysf):
        for _ in range(10):
            a = random_planted(system, rng)
            assert Planted.from_json(a.to_json(), system) == a
