"""Constructive decomposition of coherent families into branch generators.

The peeling loop writes any planted element as a branch-generator combination
plus a coboundary: normalize, refine the index set to pairs with nonzero
entries concentrated at the top index, fix a support-size bound, then
repeatedly extract a branch whose coefficient is constant on a refinement and
subtract it.  The support bound caps the number of rounds: were it ever
reached, the extracted branch nodes would all sit inside one entry's support,
exceeding the bound.

Branch extraction re-derives its branch purely from evaluated coefficients:
supports are probed at levels past the element's probe bound, where every
support node determines a unique branch with a constant coefficient.  The
probe bound is the only representation metadata consulted besides the
stabilization bound, and it stands in for three facts that are otherwise not
decidable from finitely many black-box probes:

* zero detection (``refine_nonzero``): an element whose entries vanish at one
  pair past the bound has no branch part at all, hence is equivalent to zero;
* support stabilization (``support_bound``): past the bound, entry supports
  all have the same size, so one probe fixes the strict bound;
* coefficient persistence (``extract_branch``): past the bound, a support
  node's coefficient is the same at every pair and names its branch outright.

Everything read at or past the bound is re-certified against the evaluation
map before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coherent import (
    Coboundary,
    Planted,
    branch_generator,
    coboundary,
    default_horizon,
    normalize_cobounded,
    planted,
)
from .indexset import IndexSet, ind_omega, tail
from .ring import RingElem
from .system import System
from .tree import COUNTABLY_INFINITE, Branch, NoBranchError


@dataclass(frozen=True)
class Decomposition:
    """A certified peeling result: ``a`` is the combo plus the residual coboundary."""

    combo: tuple[tuple[Branch, int], ...]
    residual: Coboundary
    provenance: tuple[IndexSet, ...]
    verified_to: int

    def to_json(self) -> dict:
        return {
            "combo": [{"branch": b.to_json(), "coeff": c} for b, c in self.combo],
            "residual_y": self.residual.to_json(),
            "verified_to": self.verified_to,
        }


@dataclass(frozen=True)
class EquivalenceWitness:
    """A coboundary witnessing that two families differ by a boundary."""

    y: Coboundary
    index_set: IndexSet
    verified_to: int

    def to_json(self) -> dict:
        return {
            "y": self.y.to_json(),
            "index_set": self.index_set.to_json(),
            "verified_to": self.verified_to,
        }


def refine_nonzero(b: Planted, pairs: IndexSet) -> IndexSet | None:
    """An eventually coherent refinement on which entries are nonzero and
    concentrated at the top generator index, or ``None`` when the element is
    equivalent to zero (no such refinement exists)."""
    if not pairs.classify().eventually_coherent:
        raise ValueError("index set must be eventually coherent")
    probe_from = b.probe_bound
    p = pairs.first.min_from(probe_from)
    q = pairs.pro(p).min_value()
    entry = b.eval_entry(p, q)
    if entry.is_zero():
        return None
    if entry.restrict_to(tail(q)) != entry:
        raise AssertionError("probed entry is not concentrated at the top index")
    return pairs.square_restrict(tail(probe_from))


def support_bound(b: Planted, pairs: IndexSet) -> tuple[int, IndexSet]:
    """A strict bound on entry support sizes over a refinement of ``pairs``."""
    refined = pairs.square_restrict(tail(b.probe_bound))
    if not refined.classify().eventually_coherent:
        raise ValueError("index set must stay eventually coherent past the probe bound")
    p = refined.first.min_value()
    q = refined.pro(p).min_value()
    n_star = len(b.eval_entry(p, q).support()) + 1
    return n_star, refined


def extract_branch(b: Planted, pairs: IndexSet) -> tuple[RingElem, Branch, IndexSet]:
    """A branch whose coefficient in ``b`` is a nonzero constant on a refinement.

    The support of the entry at the least probe pair past the probe bound is
    read off; its least node (by canonical address) determines the branch and
    the coefficient.  The coefficient identity is then spot-checked across the
    returned refinement before the result is handed back.
    """
    if not pairs.classify().eventually_coherent:
        raise ValueError("index set must be eventually coherent")
    p = pairs.first.min_from(b.probe_bound)
    q = pairs.pro(p).min_value()
    entry = b.eval_entry(p, q)
    if entry.is_zero():
        raise NoBranchError("no persistent branch chain: the element is equivalent to zero")
    tree = b.system.tree
    nodes = sorted((node for node, _ in entry.support()), key=tree.node_sort_key)
    if any(l != q for _, l in entry.support()):
        raise AssertionError("probed entry carries indices below the top")
    node = nodes[0]
    d = entry.coefficient(node, q)
    branch = tree.branch_from_node(node)
    refined = pairs.square_restrict(tail(p))

    for i in _sample_first(refined, 3):
        for j in _sample_pro(refined, i, 2):
            if b.entry_coefficient(i, j, tree.branch_node(branch, i), j) != d:
                raise AssertionError("extracted coefficient is not constant on the refinement")
    return d, branch, refined


def _sample_first(pairs: IndexSet, count: int) -> list[int]:
    out = []
    i = 0
    for _ in range(count):
        try:
            i = pairs.first.min_from(i)
        except ValueError:
            break
        out.append(i)
        i += 1
    return out


def _sample_pro(pairs: IndexSet, i: int, count: int) -> list[int]:
    out = []
    j = 0
    pro = pairs.pro(i)
    for _ in range(count):
        try:
            j = pro.min_from(j)
        except ValueError:
            break
        out.append(j)
        j += 1
    return out


def decompose(a: Planted) -> Decomposition:
    """Peel ``a`` into branch generators modulo a coboundary, certified."""
    normal = normalize_cobounded(a)
    remainder = normal.element
    residual = normal.witness

    extracted: list[tuple[Branch, int]] = []
    provenance: list[IndexSet] = []
    refined = refine_nonzero(remainder, normal.index_set)
    if refined is not None:
        n_star, current = support_bound(remainder, refined)
        while True:
            d, branch, current = extract_branch(remainder, current)
            extracted.append((branch, d.value))
            provenance.append(current)
            remainder = remainder - branch_generator(a.system, branch, d)
            if len(extracted) > n_star:
                raise AssertionError("peeling exceeded its support bound")
            next_pairs = refine_nonzero(remainder, current)
            if next_pairs is None:
                break
            current = next_pairs
        if not len(extracted) < n_star:
            raise AssertionError("peeling must finish strictly below the support bound")

    tree = a.system.tree
    combo = tuple(sorted(extracted, key=lambda e: tree.branch_sort_key(e[0])))
    horizon = default_horizon(a)
    result = Decomposition(combo, residual, tuple(provenance), horizon)
    _verify_decomposition(a, result, horizon)
    return result


def _verify_decomposition(a: Planted, dec: Decomposition, horizon: int) -> None:
    rebuilt = planted(a.system, dict(dec.combo), dec.residual)
    for i in range(horizon):
        for j in range(i + 1, horizon):
            if a.eval_entry(i, j) != rebuilt.eval_entry(i, j):
                raise AssertionError(f"decomposition does not reproduce entry ({i}, {j})")
    for earlier, later in zip(dec.provenance, dec.provenance[1:]):
        if not later.issubset(earlier):
            raise AssertionError("refinement sets must form a decreasing chain")
    if dec.provenance and len(dec.combo) >= 2:
        tree = a.system.tree
        i0 = dec.provenance[-1].first.min_value()
        nodes = [tree.branch_node(b, i0) for b, _ in dec.combo]
        if len(set(nodes)) != len(nodes):
            raise AssertionError("extracted branches must differ on the last refinement")


def witness_equivalence(a: Planted, b: Planted, pairs: IndexSet) -> EquivalenceWitness:
    """A coboundary ``y`` with ``(a - b)[i,j] = y_i - hom(y_j)`` everywhere,
    built from agreement of ``a`` and ``b`` on an eventually coherent set.

    The construction repairs ``pairs`` into a set whose projections are a
    decreasing chain of end segments, then reads ``y_i`` off the difference at
    the pair ``(i, i'')`` given by the successor levels.  Agreement is checked
    exactly first: the difference must vanish on every represented pair.
    """
    if b.system != a.system:
        raise ValueError("operands live in different systems")
    if not pairs.classify().eventually_coherent:
        raise ValueError("index set must be eventually coherent")
    diff = a - b
    _check_vanishes_on(diff, pairs)

    repaired = pairs.coherify(pairs.first)
    stab = diff.stab_bound
    table = {}
    for i in range(stab):
        _, i2 = repaired.successor_pair(i)
        y_i = diff.eval_entry(i, i2)
        if not y_i.is_zero():
            table[i] = y_i
    y = coboundary(a.system, table)

    horizon = max(12, default_horizon(diff))
    for i in range(horizon):
        for j in range(i + 1, horizon):
            if diff.eval_entry(i, j) != y.induced(i, j):
                raise AssertionError(f"witness identity fails at ({i}, {j})")
    return EquivalenceWitness(y, pairs, horizon)


def _check_vanishes_on(diff: Planted, pairs: IndexSet) -> None:
    """Exact check that every represented pair evaluates to zero in ``diff``.

    One probe past the probe bound decides whether a branch part survives;
    with none, entries with both coordinates past the stabilization bound
    vanish identically, so the finitely many remaining pairs are evaluated
    directly (entries with only the upper coordinate past it are constant in
    that coordinate, so one representative is enough).
    """
    p = pairs.first.min_from(diff.probe_bound)
    q = pairs.pro(p).min_value()
    if not diff.eval_entry(p, q).is_zero():
        raise ValueError(f"entries differ on the index set at ({p}, {q})")
    stab = diff.stab_bound
    for i in range(stab):
        if not pairs.first.contains(i):
            continue
        pro = pairs.pro(i)
        for j in pro.elements_below(stab):
            if not diff.eval_entry(i, j).is_zero():
                raise ValueError(f"entries differ on the index set at ({i}, {j})")
        j_tail = pro.min_from(stab)
        if not diff.eval_entry(i, j_tail).is_zero():
            raise ValueError(f"entries differ on the index set at ({i}, {j_tail})")


def equiv_decide(a: Planted, b: Planted):
    """Decide equivalence modulo coboundaries; returns (flag, certificate).

    Equivalent pairs come with an ``EquivalenceWitness``; inequivalent pairs
    with the nonempty ``Decomposition`` of the difference.
    """
    if b.system != a.system:
        raise ValueError("operands live in different systems")
    dec = decompose(a - b)
    if dec.combo:
        return False, dec
    witness = EquivalenceWitness(dec.residual, ind_omega(), dec.verified_to)
    return True, witness


def quotient_card_report(system: System) -> dict:
    """Size of the quotient of coherent families modulo coboundaries.

    Branchless trees collapse to a single class.  A finite branch family of
    size n yields exactly ``|R| ** n`` classes; small cases are certified by
    enumerating all combinations and deciding every pair inequivalent.

    Equivalence is linear, so ``x`` and ``y`` are equivalent exactly when
    ``x - y`` is equivalent to zero, and the differences of distinct
    combinations are exactly the nonzero combinations.  Each nonzero
    combination is therefore decided against zero once, with a full peeling
    certificate that must give back its own combo, and every pair is decided
    by finding its difference among those certified classes.
    """
    count = system.tree.branch_count()
    if count == 0:
        return {"cardinality": 1}
    if count == COUNTABLY_INFINITE:
        return {"cardinality": COUNTABLY_INFINITE}
    m = system.ring.modulus
    total = m ** count
    report: dict = {"cardinality": total, "branches": count, "modulus": m}
    if total <= 64:
        branches = [system.tree.branch(k) for k in range(count)]
        combos = [planted(system, dict(zip(branches, coeffs)))
                  for coeffs in itertools.product(range(m), repeat=count)]
        zero = planted(system, {})
        certified = set()
        for c in combos:
            if c.is_zero():
                continue
            equivalent, dec = equiv_decide(c, zero)
            if equivalent:
                raise AssertionError("distinct canonical combinations decided equivalent")
            if dec.combo != c.combo:
                raise AssertionError("a nonzero class does not decompose to its own combination")
            certified.add(c)
        pairs_checked = 0
        for x, y in itertools.combinations(combos, 2):
            if x - y not in certified:
                raise AssertionError("a pair's difference is not a certified nonzero class")
            pairs_checked += 1
        report["certified"] = {
            "classes": len(combos),
            "pairs_checked": pairs_checked,
            "all_inequivalent": True,
        }
    return report
