"""Finitely presented coherent families and their normalization.

A coherent family assigns to every index pair ``(i, j)`` an element of the
level-i module so that ``a[i,k] = a[i,j] + hom(a[j,k])`` for all ``i < j < k``.
The presented members are *planted elements*: a finite combination of branch
generators (entry ``(i,j)`` of the generator of branch t is the basis element
``(t(i), j)``) plus a coboundary part induced by a finitely supported sequence
``y`` via ``y_i - hom(y_j)``.  Such combinations span everything expressible
modulo coboundaries, so they are complete for quotient-level questions.

Every identity checked here is universally quantified below a horizon and
guaranteed by the algebra above it: beyond the stabilization bound (one past
the last level carrying a nonzero ``y``) all entries are pure branch form, so
finite checks plus that uniformity give exact answers.

The checks read *coherence defects* ``a[i,k] - (a[i,j] + hom(a[j,k]))``.
The family is coherent exactly when every defect is zero, and the three
coefficient recurrences are that identity written out coefficient by
coefficient, so each nonzero term of a defect is one recurrence violation.
The connecting maps compose, so every defect vanishes once those of the
consecutive triples ``(i, i+1, k)`` do (``check_eq_recurrences`` gives the
induction): coherence is swept over those C(h-1, 2) triples, and the full
sweep over all C(h, 3) runs only to report the violations of an incoherent
family.  ``check`` still tests restriction stability on every triple, so its
cost stays O(h^3).

Both sweeps read their defects from one generator, ``_defects``, over the
triples ``(i, j, k)`` of one pair ``(i, j)``.  Every such triple subtracts
the same entry ``a[i, j]``, so it reads it once, sums ``-a[i, j]`` into a
base map and starts each defect from a copy of it.  Every triple maps its
``(j, k)`` entry into level ``i``, and those entries share most of their
nodes, so the caller keeps one restriction map ``node -> node|i`` per level
``i``, which ``_add_hom`` fills on a node's first use.  Per triple two
entries are read, all three are checked, and one ``_add_terms`` and one
``_add_hom`` remain.  The coherence sweep runs it at ``j = i + 1``, the full
sweep at every ``j``.  The stability test reads each of its two entries
once, and most entries have no term below ``j``; for those it answers from
one scan of each entry and builds no list.

The element's entry table is the only entry source: the sweeps read an
entry that is already in it directly, and compute only the others through
``eval_entry``.  A presented element is coherent, so only a table that
evaluation got wrong can fail a check; tests inject such faults by
pre-filling the table of a fresh ``Planted(a.system, a.combo, a.fact)``.

Restriction stability is a corollary of coherence: coherence on all triples
implies stability on all triples.  For ``i < j < k`` coherence gives
``a[i,k] - a[i,j] = hom_i(a[j,k])``, and ``hom_i`` sends a level-j generator
``(eta, l)``, where ``l > j``, to ``(eta|i, l) - (eta|i, j)``, so every term of
the difference has index >= j and the parts below ``j`` agree.  The stability
sweep is kept as an independent reading of the entries.

Input is validated where it enters, once: ``planted`` checks every branch
presentation and ``coboundary`` every level, and the ``from_json``
constructors check each combo entry, level and term of a file as they read
it.  Behind the two validating constructors sit the trusted ``_planted`` and
``_coboundary``, which only merge, reduce, drop zeros and sort.
``from_json`` builds through them once its items are checked, and so do the
internal rebuilds of valid elements: the arithmetic of ``Planted`` and
``Coboundary``, the remainder and witness of ``normalize_cobounded``, and
the rebuilds that check the certificates in ``decomp``.  A ``Planted`` is a
frozen value, so each element keeps its own entry table: ``eval_entry``
computes an entry once, from trusted branch handles, and the identity checks
below, which read every entry O(h) times, look the rest up.

Entries and defects are each built in one accumulator.  The branch part of
every entry ``(i, j)`` is the level's *branch row* at index ``j``: the branch
nodes of level ``i`` with their coefficients, merged, reduced, without zeros
and sorted, built once per level.  An entry with no ``y`` at level ``i`` or
``j`` is that row placed at index ``j``, already canonical.  Otherwise
``eval_entry`` sums the row, ``y_i`` and ``-hom(y_j)`` into one unreduced term
map with ``freemod``'s ``_add_terms`` and ``_add_hom`` and canonicalizes it
once.  ``_defects`` sums ``a[i,k] - a[i,j] - hom(a[j,k])`` the same way.
``check_coherence`` only asks whether every coefficient of that map vanishes
mod m, so it sorts nothing and builds no element; the full sweep that lists
the violations of an incoherent family canonicalizes each map once.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .freemod import ModuleElement, _add_hom, _add_terms, _canonical, apply_hom
from .ring import RingElem
from .schema import SchemaError, Value, at, fail_at, json_int, json_list
from .system import System
from .tree import Branch, Node, _new_tuple


class Coboundary(Value):
    """A finitely supported sequence ``y`` of module elements, one per level.

    Levels not listed carry zero.  The induced family ``y_i - hom(y_j)`` is
    coherent for free, by the composition law of the connecting maps.
    ``_by_level`` is filled on first use; it has no ``__slots__``, since the
    cached property keeps its value in the instance ``__dict__``.
    """

    _fields = ("system", "entries")

    def __init__(self, system: System, entries: tuple[tuple[int, ModuleElement], ...]):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "entries", entries)  # (level, nonzero element), sorted

    def _key(self) -> tuple:
        return (self.system, self.entries)

    @cached_property
    def _by_level(self) -> dict[int, ModuleElement]:
        return dict(self.entries)

    def y(self, i: int) -> ModuleElement:
        elem = self._by_level.get(i)
        if elem is None:
            return ModuleElement.zero(i, self.system.ring, self.system.tree)
        return elem

    @property
    def stab_bound(self) -> int:
        """One past the last level with nonzero ``y``; 0 when empty."""
        return self.entries[-1][0] + 1 if self.entries else 0

    def induced(self, i: int, j: int) -> ModuleElement:
        """Entry ``(i, j)`` of the induced coherent family."""
        if i >= j:
            raise ValueError(f"need i < j, got ({i}, {j})")
        return self.y(i) - apply_hom(self.y(j), i)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: Coboundary) -> Coboundary:
        if other.system != self.system:
            raise ValueError("operands live in different systems")
        return _coboundary(self.system, self.entries + other.entries)

    def __neg__(self) -> Coboundary:
        return _coboundary(self.system, [(lvl, -elem) for lvl, elem in self.entries])

    def __sub__(self, other: Coboundary) -> Coboundary:
        return self + (-other)

    def to_json(self) -> list:
        return [{"level": lvl, "elem": elem.to_json()} for lvl, elem in self.entries]

    @staticmethod
    def from_json(obj: list, system: System, path: str = "$") -> Coboundary:
        ring, tree = system.ring, system.tree
        entries = []
        n = 0  # the entry being read
        try:
            for n, entry in enumerate(json_list(obj, path)):
                lvl, elem = json_int(entry["level"], "level"), entry["elem"]
                elem = ModuleElement.from_json(elem, ring, tree, f"{path}[{n}].elem")
                if elem.level != lvl:
                    raise SchemaError(f"{path}[{n}].level: level tag {lvl!r} does not match "
                                      f"element level {elem.level}")
                entries.append((lvl, elem))
        except (KeyError, TypeError, ValueError) as exc:
            fail_at(f"{path}[{n}]", exc)
        return _coboundary(system, entries)


def coboundary(system: System, table) -> Coboundary:
    """Canonicalizing constructor from a ``level -> element`` mapping or a
    sequence of such pairs, by ``module_element``'s rule: every element is
    checked, the elements at one level are summed, zeros are dropped and the
    levels sorted."""
    items = list(table.items() if isinstance(table, dict) else table)
    for level, elem in items:
        if elem.level != level:
            raise ValueError(f"element at level {elem.level} filed under level {level}")
        if elem.ring != system.ring or elem.tree != system.tree:
            raise ValueError("element lives in a different system")
    return _coboundary(system, items)


def _coboundary(system: System, items) -> Coboundary:
    """The trusted constructor behind ``coboundary``, for ``(level, element)``
    pairs of valid elements of ``system``, each filed at its own level: the
    elements at one level are summed, zeros dropped and the levels sorted."""
    acc: dict[int, ModuleElement] = {}
    for level, elem in items:
        acc[level] = acc[level] + elem if level in acc else elem
    entries = [(lvl, e) for lvl, e in acc.items() if not e.is_zero()]
    entries.sort()
    return Coboundary(system, tuple(entries))


class Planted(Value):
    """A branch-generator combination plus a coboundary part.

    ``_entries`` is the element's table of evaluated entries, keyed by
    ``(i, j)``, and ``_branch_nodes`` maps a level ``i`` to its branch row,
    which every entry ``(i, j)`` shares: the ``(node, coefficient)`` pairs of
    ``combo`` at that level, nodes merged, coefficients reduced mod m, zeros
    dropped, sorted.  ``_probe_bound`` holds ``probe_bound`` once it has been
    read.  None of them is a field, so none takes part in equality, hashing
    or ``repr``.
    """

    _fields = ("system", "combo", "fact")
    __slots__ = (*_fields, "_entries", "_branch_nodes", "_probe_bound")

    def __init__(self, system: System, combo: tuple[tuple[Branch, int], ...], fact: Coboundary):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "combo", combo)  # (branch, nonzero coefficient), canonical
        object.__setattr__(self, "fact", fact)
        object.__setattr__(self, "_entries", {})
        object.__setattr__(self, "_branch_nodes", {})
        object.__setattr__(self, "_probe_bound", None)

    def _key(self) -> tuple:
        return (self.system, self.combo, self.fact)

    @property
    def stab_bound(self) -> int:
        return self.fact.stab_bound

    @property
    def probe_bound(self) -> int:
        """A level past which entries are supported on separated branch nodes,
        each naming its branch outright and carrying its exact coefficient.

        It is the larger of the coboundary's stability bound and every
        branch's presentation level: at or above both presentation levels a
        node names its branch, so distinct branches already select distinct
        nodes there, with no pairwise comparison.  This single number stands
        in for the unbounded-pigeonhole arguments that justify branch
        extraction: all structure read at or beyond it is still certified
        against the evaluation map afterwards.  It is computed on the first
        read; ``decompose`` probes its remainder in two phases.
        """
        bound = self._probe_bound
        if bound is None:
            tree = self.system.tree
            bound = max([self.stab_bound, *(tree.presentation_level(b) for b, _ in self.combo)])
            object.__setattr__(self, "_probe_bound", bound)
        return bound

    def is_zero(self) -> bool:
        return not self.combo and self.fact.is_zero()

    # -- evaluation -----------------------------------------------------------

    def eval_entry(self, i: int, j: int) -> ModuleElement:
        """Entry ``(i, j)`` of the presented coherent family, canonical;
        computed on the first request and looked up in the table after."""
        out = self._entries.get((i, j))
        if out is not None:
            return out
        if not 0 <= i < j:
            raise ValueError(f"need 0 <= i < j, got ({i}, {j})")
        ring, tree = self.system.ring, self.system.tree
        row = self._branch_nodes.get(i)
        if row is None:
            merged: dict[Node, int] = {}
            for branch, coeff in self.combo:
                node = tree.branch_node(branch, i)
                merged[node] = merged.get(node, 0) + coeff
            m = ring.modulus
            row = [(node, v) for node, c in merged.items() if (v := c % m)]
            row.sort()
            row = tuple(row)
            self._branch_nodes[i] = row
        y = self.fact._by_level
        if i in y or j in y:
            # the coboundary part y_i - hom(y_j), summed into the row's map
            acc = {(node, j): c for node, c in row}
            if i in y:
                _add_terms(acc, y[i], 1)
            if j in y:
                _add_hom(acc, y[j], i, -1)
            out = _canonical(i, acc, ring, tree)
        else:
            # a trusted constructor (see the ``tree`` module docstring)
            terms = tuple([(node, j, c) for node, c in row])
            out = _new_tuple(ModuleElement, (i, terms, ring, tree))
        self._entries[(i, j)] = out
        return out

    def entry_coefficient(self, i: int, j: int, node: Node, l: int) -> RingElem:
        if l <= i:
            raise ValueError(f"generator index {l} must exceed the level {i}")
        return self.eval_entry(i, j).coefficient(node, l)

    # -- arithmetic -------------------------------------------------------------

    def _merge(self, other: Planted, sign: int) -> Planted:
        if other.system != self.system:
            raise ValueError("operands live in different systems")
        acc = {b: c for b, c in self.combo}
        for b, c in other.combo:
            acc[b] = acc.get(b, 0) + sign * c
        fact = self.fact + other.fact if sign > 0 else self.fact - other.fact
        return _planted(self.system, acc, fact)

    def __add__(self, other: Planted) -> Planted:
        return self._merge(other, 1)

    def __sub__(self, other: Planted) -> Planted:
        return self._merge(other, -1)

    def __neg__(self) -> Planted:
        return _planted(self.system, {b: -c for b, c in self.combo}, -self.fact)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "combo": [{"branch": b.to_json(), "coeff": c} for b, c in self.combo],
            "fact_y": self.fact.to_json(),
        }

    @staticmethod
    def from_json(obj: dict, system: System, path: str = "$") -> Planted:
        with at(path):
            if not isinstance(obj, dict):
                raise ValueError(f"element description must be an object, got {type(obj).__name__}")
            combo, fact_y = obj.get("combo", ()), obj.get("fact_y", ())
        branch_from_json = system.tree.branch_from_json
        acc: dict[Branch, int] = {}
        n, where = 0, ""  # the combo entry being read, and "" or ".branch": its field
        try:
            for n, entry in enumerate(json_list(combo, f"{path}.combo")):
                branch, coeff = entry["branch"], json_int(entry["coeff"], "coefficient")
                where = ".branch"
                branch = branch_from_json(branch)
                where = ""
                acc[branch] = acc.get(branch, 0) + coeff
        except (KeyError, TypeError, ValueError) as exc:
            fail_at(f"{path}.combo[{n}]{where}", exc)
        fact = Coboundary.from_json(fact_y, system, f"{path}.fact_y")
        return _planted(system, acc, fact)


def planted(system: System, combo, fact: Coboundary | None = None) -> Planted:
    """Canonicalizing constructor from a ``branch -> coefficient`` mapping or a
    sequence of such pairs, by ``module_element``'s rule: every branch is
    checked, a zero coefficient's too, duplicates are merged, coefficients
    reduced mod m, zeros dropped and the pairs sorted in tuple order."""
    if fact is None:
        fact = coboundary(system, {})
    if fact.system != system:
        raise ValueError("coboundary part lives in a different system")
    items = combo.items() if isinstance(combo, dict) else combo
    ring, tree = system.ring, system.tree
    acc: dict[Branch, int] = {}
    for branch, coeff in items:
        tree.branch(branch.presentation)
        acc[branch] = acc.get(branch, 0) + ring.value_of(coeff)
    return _planted(system, acc, fact)


def _planted(system: System, acc: dict[Branch, int], fact: Coboundary) -> Planted:
    """The trusted canonicalizing constructor behind ``planted``, for branches
    the tree has validated with integer coefficients and a coboundary of
    ``system``: coefficients reduced mod m, zeros dropped, pairs sorted.
    Arithmetic, normalization and the certificate checks recombine valid
    elements, and ``Planted.from_json`` has checked each branch once, so they
    all build through it."""
    m = system.ring.modulus
    combo = [(b, v) for b, c in acc.items() if (v := c % m)]
    combo.sort()
    return Planted(system, tuple(combo), fact)


def branch_generator(system: System, branch: Branch, coeff=1) -> Planted:
    """The coherent family attached to one branch, scaled by ``coeff``."""
    return planted(system, {branch: coeff})


def zero_element(system: System) -> Planted:
    return planted(system, {})


def default_horizon(a: Planted) -> int:
    """Default check horizon: everything interesting happens below it."""
    return max(8, 2 * a.stab_bound + 4)


# -- identity checks ----------------------------------------------------------


def _check_entries(i: int, e_ik: ModuleElement, e_ij: ModuleElement, e_jk: ModuleElement) -> None:
    """Check the entries of one triple as ``-``, ``+`` and ``apply_hom`` check
    their operands, so an entry of the wrong level or system raises the same
    ``ValueError`` as the defect written in module arithmetic."""
    if i >= e_jk.level:
        raise ValueError(f"target level {i} must be below the source level {e_jk.level}")
    for e, mate in ((e_ij, e_jk), (e_ik, e_ij)):
        if e.level != i:
            raise ValueError(f"mismatched levels: {e.level} vs {i}")
        if (e.ring, e.tree) != (mate.ring, mate.tree):
            raise ValueError("operands live in different systems")


def _reader(a: Planted):
    """The entry map the identity sweeps read: ``a``'s table, with
    ``eval_entry`` computing an entry not yet in it.  An entry is a named
    tuple of four fields, so only a miss reads falsy."""
    get, compute = a._entries.get, a.eval_entry
    return lambda i, j: get((i, j)) or compute(i, j)


def _defects(ev, i: int, j: int, horizon: int, down: dict[Node, Node]):
    """The coherence defects ``a[i,k] - (a[i,j] + hom(a[j,k]))`` of the
    triples ``(i, j, k)``, ``j < k < horizon``, in order of ``k``, each as an
    unreduced ``(node, l) -> int`` map: the identity holds at a triple
    exactly when every coefficient of its map vanishes mod m.

    ``a[i,j]`` is read once, and each defect starts from a copy of the map
    of ``-a[i,j]``.  ``down`` is level ``i``'s restriction map ``node ->
    node|i``, filled on first use; the caller shares it across the ``j`` of
    the level.  Per triple ``a[i,k]`` and ``a[j,k]`` are read and the three
    entries checked by ``_check_entries``.
    """
    e_ij = ev(i, j)
    base = {(n, l): -c for n, l, c in e_ij.terms}
    for k in range(j + 1, horizon):
        e_ik, e_jk = ev(i, k), ev(j, k)
        _check_entries(i, e_ik, e_ij, e_jk)
        acc = base.copy()
        _add_terms(acc, e_ik, 1)
        _add_hom(acc, e_jk, i, -1, down)
        yield acc


def check_coherence(a: Planted, horizon: int) -> bool:
    """Verify ``a[i,k] = a[i,j] + hom(a[j,k])`` for all ``i < j < k < horizon``
    by sweeping the defects of the consecutive triples ``(i, i+1, k)`` only;
    ``check_eq_recurrences`` proves the rest follow.

    Each level ``i`` runs ``_defects`` at ``j = i + 1`` with its own
    restriction map, and the sweep stops at the first coefficient that is
    nonzero mod m.  The entries are read from ``a``'s table, so a test
    injects a fault by pre-filling it.
    """
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    ev = _reader(a)
    m = a.system.ring.modulus
    for i in range(horizon - 2):
        for acc in _defects(ev, i, i + 1, horizon, {}):
            for c in acc.values():
                if c % m:
                    return False
    return True


class EqViolation(NamedTuple):
    equation: str
    i: int
    j: int
    k: int
    node: Node
    l: int

    def to_json(self) -> dict:
        return {
            "equation": self.equation, "i": self.i, "j": self.j, "k": self.k,
            "node": self.node.to_json(), "l": self.l,
        }


class EqReport(NamedTuple):
    horizon: int
    violations: tuple[EqViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }


def check_eq_recurrences(a: Planted, horizon: int) -> EqReport:
    """Check the three coefficient recurrences relating entries at ``(i,k)``,
    ``(i,j)`` and ``(j,k)`` over every triple below the horizon.

    For a fixed intermediate level j, the coefficient of ``(nu, l)`` in the
    ``(i,k)`` entry equals the ``(i,j)`` coefficient when ``l < j``; picks up
    the sum of the ``(j,k)`` coefficients over nodes extending ``nu`` when
    ``l > j``; and loses the total such mass at ``l = j``.  These are the
    coefficients of the coherence defect ``a[i,k] - (a[i,j] + hom(a[j,k]))``,
    so each term ``(nu, l)`` of a triple's defect is one violation, tagged by
    where ``l`` lies against ``j``.  The report is ok exactly when
    ``check_coherence`` holds, so the command line reads both answers off it.

    A coherent family has no violation, and ``check_coherence`` decides
    coherence from the consecutive triples ``(i, i+1, k)`` alone; only when
    it fails does the sweep over every triple run, to list the violations.
    Why the consecutive triples suffice, by induction on ``j - i``: the case
    ``j = i + 1`` is checked.  For ``j > i + 1`` the checked triples
    ``(i, i+1, k)`` and ``(i, i+1, j)`` and the triple ``(i+1, j, k)``, which
    holds by induction, give

        a[i,k] = a[i,i+1] + hom_i(a[i+1,k])
               = a[i,i+1] + hom_i(a[i+1,j]) + hom_i(hom_{i+1}(a[j,k]))
               = a[i,j] + hom_i(a[j,k]),

    using that ``apply_hom`` is additive and that ``hom_i o hom_{i+1} =
    hom_i``.  Nothing else is assumed of the entries, so the argument holds
    for any table of level-i elements, a pre-filled faulty one included.

    The full sweep runs ``_defects`` at every pair ``(i, j)`` that has a
    triple below the horizon, with one restriction map per level ``i``, and
    lists the violations in lexicographic order of ``(i, j, k)``.
    """
    if check_coherence(a, horizon):
        return EqReport(horizon, ())
    ev = _reader(a)
    ring, tree = a.system.ring, a.system.tree
    violations = []
    for i in range(horizon - 2):
        down: dict[Node, Node] = {}
        for j in range(i + 1, horizon - 1):
            for k, acc in enumerate(_defects(ev, i, j, horizon, down), j + 1):
                for nu, l, _ in _canonical(i, acc, ring, tree).terms:
                    tag = "below" if l < j else "at" if l == j else "above"
                    violations.append(EqViolation(tag, i, j, k, nu, l))
    return EqReport(horizon, tuple(violations))


def restriction_stability(a: Planted, i: int, j: int, k: int) -> bool:
    """Whether the parts below ``j`` of the ``(i,j)`` and ``(i,k)`` entries agree.

    Entries are canonical, so the parts agree exactly when the terms with
    generator index below ``j`` do, in order.  Each entry is read once.  When
    the ``(i,j)`` entry has no term below ``j``, as no entry without a ``y``
    at level ``i`` or ``j`` has, the answer is whether the ``(i,k)`` entry has
    none either, and no list of terms is built.

    Coherence on all triples implies stability on all triples:
    ``a[i,k] - a[i,j] = hom_i(a[j,k])``, and every term of that has index
    >= j, since ``hom_i`` sends the level-j generator ``(eta, l)`` to
    ``(eta|i, l) - (eta|i, j)`` with ``l > j``.  The argument needs only that
    every entry's generator indices exceed its level.

    The entries are read from ``a``'s table, so a test injects a fault by
    pre-filling it.
    """
    if not i < j < k:
        raise ValueError(f"need i < j < k, got ({i}, {j}, {k})")
    # the table read of ``_reader``, inline: this test runs per triple
    table = a._entries
    ij = (table.get((i, j)) or a.eval_entry(i, j)).terms
    ik = (table.get((i, k)) or a.eval_entry(i, k)).terms
    for t in ij:
        if t[1] < j:
            break
    else:  # no term of (i, j) below j
        for t in ik:
            if t[1] < j:
                return False
        return True
    return [t for t in ij if t[1] < j] == [t for t in ik if t[1] < j]


# -- normalization ---------------------------------------------------------------


class LevelBounds(NamedTuple):
    """Per-level stabilization bounds, listed for the levels where ``y`` is
    nonzero; at every other level the bound is ``i + 1``."""

    table: dict[int, int]

    def at(self, i: int) -> int:
        return self.table.get(i, i + 1)


class Normalized(NamedTuple):
    element: Planted
    witness: Coboundary
    bounds: LevelBounds


def normalize_cobounded(a: Planted) -> Normalized:
    """Split off a coboundary so the remainder has entries concentrated at the
    top generator index.

    For each level i the entries cut below ``j`` stabilize from some least
    bound ``i* > i`` on; the stabilized cut defines the witness sequence
    ``y_i``, and subtracting its induced family leaves an element whose
    ``(i, j)`` entry, for ``j >= i*``, vanishes below ``j`` and is supported
    entirely at index ``j``.  ``bounds`` records those ``i*``.

    Only the levels where ``y`` is nonzero are read.  At any other level the
    bound is ``i + 1``, and every level-i generator index exceeds ``i``, so
    the cut of entry ``(i, i + 1)`` below ``i + 1`` is zero by definition.
    The work is thus one entry per nonzero level of ``y``, however high the
    levels lie.  It is an entry of the coboundary part alone: every branch
    term of entry ``(i, i*)`` sits at index ``i*``, outside the cut, so no
    branch row is built.
    """
    system = a.system
    bounds = LevelBounds({i: max(l for _, l, _ in y_i.terms) + 1 for i, y_i in a.fact.entries})
    cobounded = _planted(system, {}, a.fact)
    table = {}
    for i, _ in a.fact.entries:
        istar = bounds.at(i)
        cut = cobounded.eval_entry(i, istar).below(istar)
        if not cut.is_zero():
            table[i] = cut
    witness = _coboundary(system, table.items())
    if witness != a.fact:
        raise AssertionError("normalization must absorb the whole coboundary part")
    return Normalized(_planted(system, dict(a.combo), _coboundary(system, ())), witness, bounds)
