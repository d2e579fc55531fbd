"""The defect sweep of ``check_eq_recurrences`` against the recurrences written
out coefficient by coefficient.

``reference_eq_recurrences`` is the candidate-by-candidate check the sweep
replaced: for every ``(nu, l)`` that any of the three entries of a triple can
touch, it rebuilds the expected ``(i,k)`` coefficient from the ``(i,j)`` and
``(j,k)`` entries with ring arithmetic.  On faulted entry maps the sweep must
report the same violations in the same order, and ``check_coherence`` must
hold exactly when that report is ok, which is what lets ``check`` read
coherence off the recurrence sweep.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Ring,
    System,
    check_coherence,
    check_eq_recurrences,
    module_element,
)
from invsys.coherent import EqViolation
from invsys.sampling import random_planted, sample_node

SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
)


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


def faulted(a, horizon, rng: Random):
    """The entry map of ``a`` with a few entries below the horizon perturbed.

    A perturbation reuses the entry's own support half the time, so faults
    also cancel terms, not only add them.
    """
    system = a.system
    m = system.ring.modulus
    faults = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(horizon - 1)
        j = rng.randint(i + 1, horizon - 1)
        support = a.eval_entry(i, j).support()
        terms = {}
        for _ in range(rng.randint(1, 3)):
            if support and rng.random() < 0.5:
                key = rng.choice(support)
            else:
                key = (sample_node(system.tree, rng, i), rng.randint(i + 1, horizon + 1))
            terms[key] = terms.get(key, 0) + rng.randint(1, m - 1)
        faults[(i, j)] = module_element(i, terms, system.ring, system.tree)

    def ev(i, j):
        entry = a.eval_entry(i, j)
        fault = faults.get((i, j))
        return entry if fault is None else entry + fault

    return ev


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(SYSTEMS), rng=st.randoms(use_true_random=False),
       horizon=st.integers(3, 7), fault=st.booleans())
def test_defect_sweep_matches_reference(system, rng, horizon, fault):
    a = random_planted(system, rng, level_cap=horizon)
    ev = faulted(a, horizon, rng) if fault else a.eval_entry
    report = check_eq_recurrences(a, horizon, eval_fn=ev)
    assert report.violations == reference_eq_recurrences(a, horizon, ev)
    assert check_coherence(a, horizon, eval_fn=ev) == report.ok
