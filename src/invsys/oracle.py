"""Brute-force verification at a finite truncation height.

The truncated system materializes the level modules as explicit coordinate
spaces over Z/m (one coordinate per generator ``(node, l)`` with ``l`` below
the height) and the connecting maps as rows placed directly from the generator
rule and tree restriction.  Coherence, agreement with the symbolic evaluation
path, and coboundary solvability are then plain modular linear algebra on
Python integers, exact for every modulus and sharing no evaluation code with
the symbolic side.

Layout.  The generators of every level are laid end to end, level 0 first, so
level ``i`` owns the coordinates ``o[i]:o[i+1]`` (``_offsets``), and
``_level[c]`` is the level of coordinate ``c``.  Within a level they run node
by node in sorted order, ``l = i+1 .. height-1`` within a node, so the
generator ``(node, l)`` of level ``i`` is coordinate ``_row0[i][node] + l``:
``_row0[i][node]`` is the node's *base*, and a node of level ``i`` owns the
``height - 1 - i`` coordinates above it.  The generator rule sends a
coordinate ``(eta, l)`` of level ``j``, in each lower level ``i``, to
``(eta|i, l) - (eta|i, j)``: a 1 at ``base_i + l`` and an ``m - 1`` at
``base_i + j``, where ``base_i`` is the base of ``eta|i``.  Every column of
one node uses the same restrictions, so only the node's *row* is stored:
``_down[j][p]``, for the ``p``-th node ``eta`` of level ``j``, is the tuple
of the bases of ``eta|i`` for ``i < j``, ``sum_j j * |nodes at level j|``
integers in all.  No column is stored; ``hom_matrix`` densifies one block
from the rows on request.  A vector, such as a coboundary sequence ``y``
stacked over all levels, is a dict from coordinate to nonzero residue.  A
table is a dict from ``(coordinate, column j)`` to nonzero residue; its
level-``i`` coordinates in column ``j`` are the entry ``(i, j)``.

Build.  One ``oracle-verify`` call shares one ``NodeTable`` between its
truncations: it maps each node to the tuple of its restrictions to every
lower level, each computed once per call, and records the nodes
``check_node`` has passed, so each node is validated once per call.
``truncate`` checks each universe node through the table, then lists
``_down`` in one pass over the levels ``j`` and their nodes ``eta``, both
ascending.  Each ``eta``'s row reads its restrictions from the table, and a
restriction outside the universe is refused.  The composition law is then
checked on the result.  A truncation keeps all its own checks: the size
caps, the level each node is filed under, closure and composition on its
own rows; only the validation of a node and its restrictions are shared.  Every derived table is the coboundary table
``d(y)[i,j] = y_i - hom(i, j) y_j`` of one stacked vector, built by
``_coboundary_table``: a coordinate ``c = (eta, l)`` of level ``j`` adds
``y_c`` at ``(c, k)`` for every ``k > j`` and, in column ``j``, ``-y_c`` at
``base_i + l`` and ``+y_c`` at ``base_i + j`` for each base in its node's row.

Checks.  The composition law reads each node's row once per middle level.
For a column ``(eta, l)`` of level ``k`` and levels ``i < j < k``,

    hom(i, j) hom(j, k) (eta, l) - hom(i, k) (eta, l)
        = ((eta|j)|i, l) - ((eta|j)|i, k) - (eta|i, l) + (eta|i, k),

since the two images of ``(eta|j, j)`` cancel.  As ``l > k``, and two bases
of one level differ by at least ``height - 1 - i``, the four coordinates are
distinct unless ``(eta|j)|i = eta|i``, so the difference is zero mod m
exactly when those bases agree, for every ``l`` at once.  The row of
``eta|j`` is stored, so the law holds at every ``(i, j, k)`` for the columns
of ``eta`` exactly when that row equals the first ``j`` entries of ``eta``'s
row; the first entry where they differ is the least failing ``i``.  Nodes of
the top level own no column and are skipped.  A table ``t`` is coherent
when ``t[i,j] = t[i,k] - hom(i, j) t[j,k]`` at every triple ``i < j < k``, and
that is one comparison: ``t`` is coherent exactly when it equals ``d(y)`` for
its top column ``y = t[., height-1]``.  If ``t`` is coherent, the triples
``(i, j, height-1)`` say ``t[i,j] = d(y)[i,j]``, and ``d(y)[i, height-1] =
y_i`` because level ``height - 1`` has no generators.  Conversely, under the
composition law every coboundary table is coherent, since ``d(v)[i,j] +
hom(i, j) d(v)[j,k]`` is ``v_i - hom(i, j) hom(j, k) v_k = d(v)[i,k]``, and
``truncate`` has checked that law.  So at any finite height every coherent
table is a coboundary, solved by its top column, and the oracle checks
evaluations and witnesses, not quotient structure.  A primary table that
passes ``agreement``, exact equality with ``d(v)`` for the presentation
vector ``v``, is therefore coherent and solved by ``v``; ``oracle-verify``
tests coherence only to explain a table that fails it.

Node universe.  ``universe_for`` closes the nodes an element touches under
restriction: a branch adds only its top node, whose restrictions are the
branch's lower nodes, so a branch costs one ``branch_node`` call and, the
first time the call's table meets its top node, ``height - 1`` restrictions.
It validates nothing: an element read from a file was validated on load, a
sampled one is valid by construction, and ``truncate`` checks every universe
node before it builds a row, whatever the element's source.  Every shipped
family obeys that rule by construction (``Tree.branch_node``); a
subclass whose ``branch_node`` broke it would still be caught: by
``truncate``'s closure check, by ``independent_table``, which refuses a branch
node outside the universe, and by ``agreement``, since each branch node enters
through the node rows.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat

from .coherent import Planted
from .freemod import ModuleElement
from .schema import Value
from .system import System
from .tree import Node

MAX_HEIGHT = 8
MAX_NODES_PER_LEVEL = 16

Vector = dict[int, int]
Table = dict[tuple[int, int], int]


class TruncatedSystem(Value):
    """The layout of the module docstring, built by ``truncate``."""

    __slots__ = _fields = ("system", "height", "_offsets", "_row0", "_level", "_down")
    system: System
    height: int
    _offsets: tuple[int, ...]
    _row0: tuple[dict[Node, int], ...]
    _level: tuple[int, ...]
    _down: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, *fields):
        for name, value in zip(self._fields, fields, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    @property
    def modulus(self) -> int:
        return self.system.ring.modulus

    def dim(self, level: int) -> int:
        return self._offsets[level + 1] - self._offsets[level]

    def _rows(self, level: int) -> range:
        return range(self._offsets[level], self._offsets[level + 1])

    def hom_matrix(self, i: int, j: int) -> list[list[int]]:
        """``hom(i, j)`` for ``i < j`` below the height, as a fresh list of rows."""
        if not 0 <= i < j < self.height:
            raise KeyError((i, j))
        o, h = self._offsets[i], self.height
        block = [[0] * self.dim(j) for _ in self._rows(i)]
        col = 0
        for row in self._down[j]:
            b = row[i] - o
            for l in range(j + 1, h):
                block[b + l][col] += 1
                block[b + j][col] -= 1
                col += 1
        return [[x % self.modulus for x in row] for row in block]

    # -- vectors ------------------------------------------------------------

    def vectorize(self, elem: ModuleElement) -> Vector:
        if elem.level >= self.height:
            raise ValueError(f"level {elem.level} lies outside the truncation")
        m = self.modulus
        return {self._position(elem.level, node, l): c % m for node, l, c in elem.terms}

    def _position(self, level: int, node: Node, l: int) -> int:
        """The coordinate of the generator ``(node, l)`` of ``level``."""
        if l >= self.height:
            raise ValueError(f"generator index {l} lies outside the truncation")
        r = self._row0[level].get(node)
        if r is None or l <= level:
            raise ValueError(f"generator ({node!r}, {l}) lies outside the node universe")
        return r + l

    def _coboundary_table(self, y: Vector) -> Table:
        """The table whose entry ``(i, j)`` is ``y_i - hom(i, j) y_j``, for a
        stacked sequence ``y``, reduced mod m."""
        h, o, level, down, m = self.height, self._offsets, self._level, self._down, self.modulus
        # column j's entries summed in a row -> int map, keyed by plain ints
        cols: list[Vector] = [{} for _ in range(h)]
        for c, v in y.items():
            j = level[c]
            for k in range(j + 1, h):
                col = cols[k]
                col[c] = col.get(c, 0) + v
            # c is the generator (eta, l) of the p-th node eta of level j
            p, l = divmod(c - o[j], h - 1 - j)
            l += j + 1
            col = cols[j]
            for b in down[j][p]:
                r = b + l
                col[r] = col.get(r, 0) - v
                r = b + j
                col[r] = col.get(r, 0) + v
        return {(r, j): x for j, col in enumerate(cols) for r, s in col.items() if (x := s % m)}

    def _reduced(self, d: dict) -> dict:
        """A vector or table ``d`` reduced mod m, without its zero values."""
        m = self.modulus
        return {key: v % m for key, v in d.items() if v % m}

    def primary_table(self, a: Planted) -> Table:
        """The symbolic evaluation path, every entry's coordinates gathered into
        one table."""
        h = self.height
        t: Table = {}
        for i in range(h - 1):
            base = self._row0[i].get
            for j in range(i + 1, h):
                for node, l, c in a.eval_entry(i, j).terms:
                    r = base(node)
                    if r is None or not i < l < h:
                        self._position(i, node, l)  # raises
                    t[r + l, j] = c  # canonical, so already reduced mod m and nonzero
        return t

    def presentation_vector(self, a: Planted) -> Vector:
        """The stacked vector ``v`` whose coboundary table ``d(v)`` is ``a``'s
        table: ``y`` plus, for each branch ``t`` with coefficient ``c``, ``c``
        at ``(t(i), h-1)`` for every ``i < h-1``.  Let ``z`` be one branch's
        part of ``v``.  Level ``h-1`` has no generators, so ``z_{h-1} = 0`` and
        ``d(z)[i, h-1] = (t(i), h-1)``; for ``j < h-1``, ``hom(i, j)`` sends
        ``(t(j), h-1)`` to ``(t(i), h-1) - (t(i), j)``, since ``t(j)|i = t(i)``,
        so ``d(z)[i, j] = (t(i), j)``.  So ``d(z)`` is the branch generator's
        table, and ``z`` its entries against the top level (see
        ``solve_coboundary``).  Reduced mod m."""
        h = self.height
        tree = self.system.tree
        v: Vector = {}
        # levels at or above the height touch no entry below it
        for level, elem in a.fact.entries:
            if level >= h:
                break
            row0 = self._row0[level]
            for node, l, c in elem.terms:
                r = row0.get(node)
                if r is None or not level < l < h:
                    self._position(level, node, l)  # raises
                v[r + l] = c  # canonical, so already reduced mod m
        # branches can share a node, and a y term can sit at index h-1 on a
        # branch node, so a coordinate can repeat: its coefficients add
        top = h - 1
        bases = self._row0[:top]
        for branch, coeff in a.combo:
            for i, row0 in enumerate(bases):
                node = tree.branch_node(branch, i)
                r = row0.get(node)
                if r is None:
                    raise ValueError(f"generator ({node!r}, {top}) lies outside the node universe")
                r += top
                v[r] = v.get(r, 0) + coeff
        return self._reduced(v)

    def independent_table(self, a: Planted) -> Table:
        """Entries recomputed from the raw presentation: the coboundary table
        ``d(v)`` of ``a``'s ``presentation_vector``."""
        return self._coboundary_table(self.presentation_vector(a))

    # -- checks ---------------------------------------------------------------

    def composition_fault(self) -> tuple[int, int, int] | None:
        """The first triple ``(i, j, k)`` in lexicographic order at which
        ``hom(i, j) hom(j, k)`` differs from ``hom(i, k)``, or None: the law
        fails at ``(i, j, k)`` for the columns of a node ``eta`` of level ``k``
        exactly when the row of ``eta|j`` and ``eta``'s row differ at ``i``
        (see the module docstring)."""
        h, o, down = self.height, self._offsets, self._down
        faults = []
        # the top level owns no column
        for k in range(h - 1):
            for row in down[k]:
                for j, b in enumerate(row):
                    # the row of eta|j, found from its base b by its position
                    mid = down[j][(b - o[j] + j + 1) // (h - 1 - j)]
                    if mid != row[:j]:
                        i = next(i for i, (x, z) in enumerate(zip(mid, row)) if x != z)
                        faults.append((i, j, k))
        return min(faults, default=None)

    def table_coherent(self, t: Table) -> bool:
        """Whether ``t[i,k] = t[i,j] + hom(i, j) t[j,k]`` at every triple
        ``i < j < k``: whether ``t`` is the coboundary table of its top column
        (see the module docstring)."""
        return self.coboundary_fault(t, self._top_column(t)) is None

    def _top_column(self, t: Table) -> Vector:
        top = self.height - 1
        return {r: v for (r, j), v in t.items() if j == top}

    def agreement(self, a: Planted, primary: Table) -> bool:
        """Whether ``primary``, ``a``'s table from the symbolic path, equals the
        table the independent path builds."""
        return self.agreement_fault(a, primary) is None

    def agreement_fault(self, a: Planted, primary: Table) -> tuple[int, int] | None:
        """The first pair ``(i, j)`` in lexicographic order at which ``primary``
        differs from ``independent_table(a)``, or None.  The comparison is exact,
        not mod m, so an unreduced or zero primary coefficient is a difference."""
        independent = self.independent_table(a)
        if primary == independent:
            return None
        return self._first_pair(primary.items() ^ independent.items())

    def coboundary_fault(self, t: Table, y: Vector) -> tuple[int, int] | None:
        """The first pair ``(i, j)`` in lexicographic order at which
        ``t[i,j] = y_i - hom(i, j) y_j`` fails, or None."""
        return self._first_pair(self._reduced(t).items() ^ self._coboundary_table(y).items())

    def _first_pair(self, differing) -> tuple[int, int] | None:
        """The least pair ``(i, j)`` among the keys of the differing items."""
        return min(((self._level[r], j) for (r, j), _ in differing), default=None)

    def solve_coboundary(self, t: Table) -> Vector:
        """A stacked sequence ``y`` with ``t[i,j] = y_i - hom(y_j)`` at every pair.

        ``y`` is the top column of ``t``: each ``y_i`` is the entry against the
        top level, and the top level has no coordinates.  Incoherent tables are
        rejected as a usage error.  A table that passes ``agreement`` needs no
        solve: it is coherent, and its ``y`` is the presentation vector (see the
        module docstring).
        """
        if not self.table_coherent(t):
            raise ValueError("table is not coherent; no coboundary solve is attempted")
        return self._top_column(t)


class NodeTable(dict):
    """The tree work one ``oracle-verify`` call shares between its truncations.

    The table maps a node to the tuple of its restrictions to levels ``0 ..
    level - 1``, computed on the first read of the node and kept; ``checked``
    holds the nodes ``check_node`` has passed.  A node is recorded there only
    after its check returns, so an invalid node fails every truncation that
    holds it.  A table is made for one tree and lives for one call.
    """

    __slots__ = ("tree", "checked")

    def __init__(self, tree):
        super().__init__()
        self.tree = tree
        self.checked: set[Node] = set()

    def __missing__(self, node: Node) -> tuple[Node, ...]:
        level = node.level
        below = self[node] = tuple(map(self.tree._restrict, repeat(node.address, level), range(level)))
        return below


def truncate(system: System, height: int, universe, table: NodeTable | None = None) -> TruncatedSystem:
    """Build the explicit truncated modules and node rows in the pass the
    module docstring describes.  ``universe`` maps each level below ``height``
    to its node set, which must be closed under restriction.  ``table`` is the
    call's node table; without one, a fresh table is used."""
    if not 3 <= height <= MAX_HEIGHT:
        raise ValueError(f"height must lie in [3, {MAX_HEIGHT}], got {height}")
    tree = system.tree
    if table is None:
        table = NodeTable(tree)
    checked = table.checked
    levels: list[tuple[Node, ...]] = []
    for i in range(height):
        nodes = set(universe.get(i, ()))
        if len(nodes) > MAX_NODES_PER_LEVEL:
            raise ValueError(f"level {i} universe exceeds {MAX_NODES_PER_LEVEL} nodes")
        for node in nodes:
            if node not in checked:
                tree.check_node(node)
                checked.add(node)
            if node.level != i:
                raise ValueError(f"node {node!r} filed under level {i}")
        levels.append(tuple(sorted(nodes)))
    dims = [len(levels[i]) * (height - 1 - i) for i in range(height)]
    offsets = tuple(accumulate(dims, initial=0))
    row0 = tuple({node: offsets[i] + p * (height - 1 - i) - i - 1 for p, node in enumerate(levels[i])}
                 for i in range(height))
    # per node, in sort order within each level: the bases of its restrictions
    down = []
    for j in range(height):
        rows = []
        for eta in levels[j]:
            row = tuple(map(dict.get, row0, table[eta]))
            if None in row:
                raise ValueError(
                    f"universe is not closed under restriction: {eta!r} at level {row.index(None)}"
                )
            rows.append(row)
        down.append(tuple(rows))
    level = tuple(chain.from_iterable(map(repeat, range(height), dims)))
    trunc = TruncatedSystem(system, height, offsets, row0, level, tuple(down))

    fault = trunc.composition_fault()
    if fault is not None:
        raise AssertionError(f"hom matrices fail to compose at {fault}")
    return trunc


def universe_for(system: System, elements, height: int,
                 table: NodeTable | None = None) -> dict[int, set[Node]]:
    """The restriction closure of every node an element can touch below ``height``.

    Each node is restricted through ``table``, the call's node table (a fresh
    one when none is given), so a node already in it costs no restriction.
    Nothing is validated here: ``truncate`` checks every universe node.
    """
    tree = system.tree
    if table is None:
        table = NodeTable(tree)
    levels: dict[int, set[Node]] = {i: set() for i in range(height)}

    def add(node: Node) -> None:
        # a node already present came with all its restrictions
        if node in levels[node.level]:
            return
        levels[node.level].add(node)
        for lower, below in enumerate(table[node]):
            levels[lower].add(below)

    for elem in elements:
        for branch, _ in elem.combo:
            # the restrictions of the top node are the branch's lower nodes
            add(tree.branch_node(branch, height - 1))
        for level, y_elem in elem.fact.entries:
            if level >= height:
                raise ValueError(f"coboundary level {level} lies outside the truncation")
            for node, l, _ in y_elem.terms:
                if l >= height:
                    raise ValueError(f"generator index {l} lies outside the truncation")
                add(node)
    return levels
