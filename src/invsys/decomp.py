"""Constructive decomposition of coherent families into branch generators.

Peeling writes any planted element as a branch-generator combination plus a
coboundary.  Normalization splits off the coboundary, leaving a remainder in
pure branch form; peeling then reads that remainder at one *probe level*
``p``, its probe bound, through the single probe pair ``(p, p+1)``.  The
level is the corner of the square tail ``[p, omega)^2``: on it every entry is
supported on separated branch nodes at the top index, so that one entry
names every branch and its coefficient, and one pass peels them all.

The probe level stands in for three facts that are otherwise not decidable
from finitely many black-box probes:

* zero detection (``refine_nonzero``): an element whose entry vanishes at the
  probe pair has no branch part at all, hence is equivalent to zero;
* support stabilization (``support_bound``): past the probe bound, entry
  supports all have the same size, so the probe entry's term count is the
  combo size;
* coefficient persistence (``extract_branch``): past the probe bound, a
  support node's coefficient is the same at every pair and names its branch
  outright.

Each extracted coefficient is spot-checked against the evaluation map on
the pairs ``p <= i < j <= i + 2`` before it is returned.  The decomposition
as a whole is certified by its presentation: the canonical form of
``combo + residual`` must be ``a`` itself.  ``eval_entry`` is a pure function
of the presentation, so equal canonical presentations agree at every index
pair, not only below the ``verified_to`` horizon, and the check takes time
linear in the presentation where comparing entries below the horizon took
O(h^2) evaluations.  Comparing the entries of ``a`` with those of its rebuilt
copy would run the same evaluation code twice, so it could not catch an
evaluation bug either; re-checking entries independently is the matrix
oracle's job.  ``verified_to`` stays the default horizon of ``a``, so the
printed certificates keep their bytes.

The witness and cardinality certificates are arguments too.  A finitely
supported ``z`` with ``z_i = hom(z_j)`` for all ``i < j`` is zero, so a
coboundary witness is unique: it is the difference's own ``fact``, read off
its canonical form, and it must present the difference exactly.
Branches through pairwise distinct nodes at one level cannot be cancelled by
a finitely supported coboundary, so one entry shows that all ``m ** n``
combinations are pairwise inequivalent.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .coherent import (
    Coboundary,
    Planted,
    _planted,
    default_horizon,
    normalize_cobounded,
    planted,
)
from .freemod import ModuleElement
from .system import System
from .tree import COUNTABLY_INFINITE, Branch, NoBranchError

if TYPE_CHECKING:
    from .indexset import IndexSet


class _FullIndexSet:
    """The index set ``ind_omega()`` of every pair ``i < j``: the set of every
    witness ``equiv_decide`` returns.  It stands in for that ``IndexSet``
    without loading ``indexset``, and ``to_json`` builds the same JSON, fresh
    on each call, so no report shares a list with another."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"first": {"finite": [], "threshold": 0},
                "pro": [{"i_from": 0, "i_to": None, "set": {"finite": [], "threshold": 0}}]}


IND_OMEGA = _FullIndexSet()


class Decomposition(NamedTuple):
    """A certified peeling result: ``a`` is the combo plus the residual coboundary.

    ``provenance`` is the probe level ``p`` whose one entry named every
    branch; the extracted branches pass through distinct nodes there.
    """

    combo: tuple[tuple[Branch, int], ...]
    residual: Coboundary
    provenance: int
    verified_to: int

    def to_json(self) -> dict:
        return {
            "combo": [{"branch": b.to_json(), "coeff": c} for b, c in self.combo],
            "residual_y": self.residual.to_json(),
            "verified_to": self.verified_to,
        }


class EquivalenceWitness(NamedTuple):
    """A coboundary witnessing that two families differ by a boundary, with
    the index set their agreement was checked on: an ``IndexSet``, or
    ``IND_OMEGA``.  Both are immutable and build their JSON afresh."""

    y: Coboundary
    index_set: IndexSet | _FullIndexSet
    verified_to: int

    def to_json(self) -> dict:
        return {
            "y": self.y.to_json(),
            "index_set": self.index_set.to_json(),
            "verified_to": self.verified_to,
        }


def _probe(b: Planted, p: int) -> ModuleElement:
    """The entry at the probe pair ``(p, p+1)``, concentrated at its top index."""
    if p < b.probe_bound:
        raise ValueError(f"probe level {p} lies below the probe bound {b.probe_bound}")
    entry = b.eval_entry(p, p + 1)
    if any(l != p + 1 for _, l, _ in entry.terms):
        raise AssertionError("probed entry is not concentrated at the top index")
    return entry


def refine_nonzero(b: Planted, p: int) -> bool:
    """Whether ``b`` keeps a branch part: its entries on ``[p, omega)^2`` are
    nonzero and concentrated at the top generator index.  ``False`` means the
    element is equivalent to zero."""
    return not _probe(b, p).is_zero()


def support_bound(b: Planted, p: int) -> int:
    """A strict bound on entry support sizes on ``[p, omega)^2``: the combo
    size plus one.  It has no caller in ``decompose``, where it could not fail."""
    return len(_probe(b, p).support()) + 1


def extract_branch(b: Planted, p: int) -> list[tuple[Branch, int]]:
    """Every branch of ``b``, in node order, with its coefficient: a nonzero
    constant on ``[p, omega)^2``.

    The entry at the probe pair is canonical and ``_probe`` has checked that
    every term sits at index ``p + 1``, so each term's node determines a
    branch and holds its coefficient.  Each coefficient is then spot-checked
    on the six pairs ``p <= i < j <= i + 2``, each read once, before the
    result is handed back.
    """
    entry = _probe(b, p)
    if entry.is_zero():
        raise NoBranchError("no persistent branch chain: the element is equivalent to zero")
    tree = b.system.tree
    pairs = [(i, j) for i in range(p, p + 3) for j in range(i + 1, i + 3)]
    spots = {(node, l): c for i, j in pairs for node, l, c in b.eval_entry(i, j).terms}
    extracted = [(tree.branch_from_node(node), c) for node, _, c in entry.terms]
    for branch, c in extracted:
        if any(spots.get((tree.branch_node(branch, i), j)) != c for i, j in pairs):
            raise AssertionError("extracted coefficient is not constant past the probe level")
    return extracted


def decompose(a: Planted) -> Decomposition:
    """Peel ``a`` into branch generators modulo a coboundary, certified.

    One probe entry names every branch; subtracting them all must leave that
    entry zero.  The combo size is not checked against ``support_bound``,
    which counts the same entry's nodes, so the check could not fail.
    """
    normal = normalize_cobounded(a)
    remainder = normal.element
    p = remainder.probe_bound
    combo = ()
    if refine_nonzero(remainder, p):
        peeled = _planted(a.system, dict(extract_branch(remainder, p)), remainder.fact)
        if not _probe(remainder - peeled, p).is_zero():
            raise AssertionError("peeling must leave no branch part at the probe level")
        combo = peeled.combo
    result = Decomposition(combo, normal.witness, p, default_horizon(a))
    _verify_decomposition(a, result)
    return result


def _verify_decomposition(a: Planted, dec: Decomposition) -> None:
    """Raise ``AssertionError`` unless ``combo + residual`` presents ``a`` exactly
    and the extracted branches pass through distinct nodes at the probe level."""
    if _planted(a.system, dict(dec.combo), dec.residual) != a:
        raise AssertionError("decomposition does not reproduce the element's presentation")
    tree = a.system.tree
    nodes = [tree.branch_node(b, dec.provenance) for b, _ in dec.combo]
    if len(set(nodes)) != len(nodes):
        raise AssertionError("extracted branches must differ at the probe level")


def witness_equivalence(a: Planted, b: Planted, pairs: IndexSet) -> EquivalenceWitness:
    """A coboundary ``y`` with ``(a - b)[i,j] = y_i - hom(y_j)`` everywhere,
    given agreement of ``a`` and ``b`` on an eventually coherent set.

    Agreement is checked exactly first: the difference must vanish on every
    represented pair, so it has no branch part.  A finitely supported ``z``
    with ``z_i = hom(z_j)`` for all ``i < j`` is zero, so the witness is
    unique: it is the difference's own ``fact``, read off its canonical form
    without evaluating an entry.  It is certified by its presentation,
    ``planted({}, y) == a - b``, and equal presentations agree at every index
    pair, not only below ``verified_to``.
    """
    diff = a - b
    if not pairs.classify().eventually_coherent:
        raise ValueError("index set must be eventually coherent")
    _check_vanishes_on(diff, pairs)
    y = diff.fact
    if _planted(a.system, {}, y) != diff:
        raise AssertionError("witness does not present the difference")
    return EquivalenceWitness(y, pairs, max(12, default_horizon(diff)))


def _check_vanishes_on(diff: Planted, pairs: IndexSet) -> None:
    """Exact check that every represented pair evaluates to zero in ``diff``.

    One probe past the probe bound decides whether a branch part survives.
    With none, entry ``(i, j)`` is ``y_i - hom(y_j)`` for ``y = diff.fact``,
    so it vanishes unless ``i`` or ``j`` is a level ``k`` of ``y``; only the
    represented pairs ``(i, k)`` and ``(k, j)`` are evaluated, in
    lexicographic order.  Past the stabilization bound ``y_j`` is zero, so
    ``(k, j)`` is ``y_k`` there and one representative stands for all such ``j``.
    """
    p = pairs.first.min_from(diff.probe_bound)
    q = pairs.pro(p).min_value()
    if not diff.eval_entry(p, q).is_zero():
        raise ValueError(f"entries differ on the index set at ({p}, {q})")
    stab = diff.stab_bound
    todo = set()
    for k, _ in diff.fact.entries:
        todo.update((i, k) for i in range(k) if pairs.contains(i, k))
        if pairs.first.contains(k):
            pro = pairs.pro(k)
            todo.update((k, j) for j in pro.elements_below(stab))
            todo.add((k, pro.min_from(stab)))
    for i, j in sorted(todo):
        if not diff.eval_entry(i, j).is_zero():
            raise ValueError(f"entries differ on the index set at ({i}, {j})")


def equiv_decide(a: Planted, b: Planted):
    """Decide equivalence modulo coboundaries; returns (flag, certificate).

    Equivalent pairs come with an ``EquivalenceWitness``; inequivalent pairs
    with the nonempty ``Decomposition`` of the difference.
    """
    dec = decompose(a - b)
    if dec.combo:
        return False, dec
    witness = EquivalenceWitness(dec.residual, IND_OMEGA, dec.verified_to)
    return True, witness


def quotient_card_report(system: System) -> dict:
    """Size of the quotient of presented coherent families modulo coboundaries.

    A presented family is a finite combination of presented branches plus a
    finitely supported coboundary; those are the classes counted here.  On
    ``finite_support`` that count is countably infinite, but the full
    quotient is larger.  With eventual width at least 2 there are 2^aleph_0
    paths, and each path ``t`` gives the coherent family
    ``(i, j) -> (t(i), j)``.  A coboundary's entries vanish above its top
    level, and there entry ``(q, q+1)`` of the difference between two such
    families, or between one and a presented family, is a sum of
    ``(node, q+1)`` terms over the level-``q`` nodes of finitely many paths.
    It is nonzero for all large ``q`` when the paths differ and, against a
    presented family, when ``t`` is not finitely supported: then ``t(q)`` is
    none of the finitely many ``s(q)``.  So the full quotient has at least
    2^aleph_0 classes.

    Branchless trees collapse to a single class.  On ``decreasing_seq`` that
    ``1`` likewise counts presented families only: the tree has no branch, so
    every presented family is its own coboundary part.  It does not decide
    the full quotient on that tree.  A finite branch family of size n yields
    exactly ``|R| ** n`` classes, certified up to 64 classes by the
    separation lemma.  The probe bound ``p`` of the sum of all n
    generators is their largest presentation level, where each branch node
    names its branch.  Entry ``(p, p+1)`` must be n terms at index ``p + 1``
    with coefficient 1, which checks that: the branch nodes at ``p`` are
    pairwise distinct, and stay so at every ``q >= p``.  Entry ``(q, q+1)`` of ``sum_t c_t g_t`` is
    ``sum_t c_t (t(q), q+1)``, nonzero whenever some ``c_t`` is, while a
    coboundary's entries vanish once ``q`` passes its top level.  So no
    nonzero combination is equivalent to zero and, by linearity, all
    C(m^n, 2) pairs of distinct combinations are inequivalent.
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
        every = planted(system, {branch: 1 for branch in system.tree.branches()})
        terms = _probe(every, every.probe_bound).terms
        if len(terms) != count or any(c != 1 for _, _, c in terms):
            raise AssertionError("branch nodes are not separated at the probe level")
        report["certified"] = {
            "classes": total,
            "pairs_checked": math.comb(total, 2),
            "all_inequivalent": True,
        }
    return report
