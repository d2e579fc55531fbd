"""Brute-force verification at a finite truncation height.

The truncated system materializes the level modules as explicit coordinate
spaces over Z/m (one axis per generator ``(node, l)`` with ``l`` below the
height) and the connecting maps as matrices built directly from the generator
rule and tree restriction.  Coherence, agreement with the symbolic evaluation
path, and coboundary solvability are then plain modular matrix arithmetic,
sharing no evaluation code with the symbolic side.

Layout.  The generators of every level are laid end to end, level 0 first, so
level ``i`` owns the coordinates ``o[i]:o[i+1]`` (``_offsets``) with
``o[i] = dim(0) + ... + dim(i-1)``.  Within a level they run node by node in
sorted order, ``l = i+1 .. height-1`` within a node, so the generator
``(node, l)`` of level ``i`` is coordinate ``_row0[i][node] + l``, and only the
nodes are indexed.  All hom maps live in one ``(Σ dim) × (Σ dim)`` array ``H``
(``_hom``) whose block ``(i, j)`` (level ``i``'s rows, level ``j``'s columns)
is ``hom(i, j)`` for ``i < j`` and zero otherwise; ``hom_matrix`` hands out
read-only views of its blocks.  A table is one ``(Σ dim) × height`` array
``t`` whose block ``(i, j)`` (level ``i``'s rows, column ``j``) is the entry
``(i, j)``; ``_upper`` marks the blocks with ``i < j``, and ``t`` is zero
outside them.  A coboundary sequence ``y`` is one stacked vector of length
``Σ dim``.  Tables and sequences stay in this layout from their build through
every check.

Build.  ``truncate`` validates each universe node once, then places ``H`` in
one pass over the levels ``j`` and their nodes ``eta``, both ascending.  Each
``eta`` is restricted, without re-validation, to every lower level ``i``,
ascending, and a restriction outside the universe is refused.  By the
generator rule ``(eta, l) -> (eta|i, l) - (eta|i, j)``, column
``_row0[j][eta] + l`` gets a 1 at row ``_row0[i][eta|i] + l`` and an ``m - 1``
at row ``_row0[i][eta|i] + j``; the two rows differ, so two fancy assignments
place every entry.  The composition law is then checked on the result.

Checks.  Each triple law reads off one product per middle level ``j``: the
rows above ``o[j]`` are the levels ``i < j``, the columns from ``o[j+1]``
(from ``j + 1`` in a table) are the levels ``k > j``, and block ``(i, k)`` of
``H[:o[j], o[j]:o[j+1]] @ H[o[j]:o[j+1], o[j+1]:]`` is
``hom(i, j) @ hom(j, k)``.  So the products for ``j = 1 .. height-2`` cover
every triple ``i < j < k``, each exactly once, and the checks stay complete
in ``height - 2`` numpy calls rather than ``C(height, 3)``.  Coherence reads
the same way: ``t[:o[j], j+1:] - t[:o[j], j]`` must equal, mod m,
``H[:o[j], o[j]:o[j+1]] @ t[o[j]:o[j+1], j+1:]``.  The coboundary table
``y_i - hom(i, j) @ y_j`` of every pair comes from one ``H @ diag(y)``, summed
over each level's columns; ``independent_table`` and ``coboundary_fault``
both read it from ``_coboundary_table``.  The coboundary solve reads ``y`` off
the top column ``t[:, height-1]``.

Vectors and matrices are kept reduced mod m, so a matrix-vector product is a
sum of at most ``dim`` terms, each at most ``(m - 1) ** 2``, and at most one
more reduced vector is added to it before the next reduction.  Stacking keeps
that bound: a block product sums over one level's coordinates only, and the
blocks of ``H`` outside the upper triangle contribute exact zeros, so stacking
adds rows and columns to a product but never a nonzero term to any of its
sums.  (The branch part of an independent entry sums one coefficient per
branch, far below that bound for any combination that fits in memory.)  The
arrays are ``int64`` whenever ``(m - 1) ** 2 * (max dim + 1)`` fits, which
covers every small modulus; above it they hold Python integers
(``dtype=object``), so the oracle stays exact for every ``m``.

Node universe.  ``universe_for`` closes the nodes an element touches under
restriction: a branch adds only its top node, whose restrictions are the
branch's lower nodes, so a branch costs one ``branch_node`` call and
``height - 1`` restrictions.  Those nodes come from trusted branch handles and
validated ``y`` terms, so they are restricted without re-validation.  A tree
whose branch nodes broke that rule would still be caught: by ``truncate``'s
closure check, and by ``independent_table``, which refuses a branch node
outside the universe.

At any finite height every coherent table is a coboundary: assigning each
level the entry against the top level (and zero at the top) solves all the
equations outright.  The oracle therefore checks evaluations and witnesses,
not quotient structure, and re-confirms that solvability on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coherent import Planted
from .freemod import ModuleElement
from .system import System
from .tree import Node

MAX_HEIGHT = 8
MAX_NODES_PER_LEVEL = 16


@dataclass(frozen=True)
class TruncatedSystem:
    system: System
    height: int
    # the layout of the module docstring
    _offsets: list[int] = field(repr=False)
    _row0: list[dict[Node, int]] = field(repr=False)
    _hom: np.ndarray = field(repr=False)
    _upper: np.ndarray = field(repr=False)
    dtype: type

    @property
    def modulus(self) -> int:
        return self.system.ring.modulus

    def dim(self, level: int) -> int:
        return self._offsets[level + 1] - self._offsets[level]

    def _rows(self, level: int) -> slice:
        return slice(self._offsets[level], self._offsets[level + 1])

    def hom_matrix(self, i: int, j: int) -> np.ndarray:
        """A read-only view of ``hom(i, j)`` for ``i < j`` below the height."""
        if not 0 <= i < j < self.height:
            raise KeyError((i, j))
        return self._hom[self._rows(i), self._rows(j)]

    # -- vectors ------------------------------------------------------------

    def vectorize(self, elem: ModuleElement) -> np.ndarray:
        if elem.level >= self.height:
            raise ValueError(f"level {elem.level} lies outside the truncation")
        vec = np.zeros(self.dim(elem.level), dtype=self.dtype)
        for node, l, c in elem.terms:
            vec[self._position(elem.level, node, l)] = c % self.modulus
        return vec

    def _position(self, level: int, node: Node, l: int) -> int:
        """The coordinate of the generator ``(node, l)`` within its level."""
        if l >= self.height:
            raise ValueError(f"generator index {l} lies outside the truncation")
        r = self._row0[level].get(node)
        if r is None or l <= level:
            raise ValueError(f"generator ({node!r}, {l}) lies outside the node universe")
        return r + l - self._offsets[level]

    def _coboundary_table(self, y: np.ndarray) -> np.ndarray:
        """The unreduced table whose entry ``(i, j)`` is ``y_i - hom(i, j) @ y_j``,
        for a stacked sequence ``y``: the images are ``H @ diag(y)`` summed
        over each level's columns."""
        images = np.zeros((len(y), self.height), dtype=self.dtype)
        # reduceat sums from each start to the next, so empty levels are left
        # out of the starts; they keep their zero column.
        nonempty = [j for j in range(self.height) if self.dim(j)]
        if nonempty:
            starts = [self._offsets[j] for j in nonempty]
            images[:, nonempty] = np.add.reduceat(self._hom * y, starts, axis=1)
        return np.where(self._upper, y[:, None], 0) - images

    def primary_table(self, a: Planted) -> np.ndarray:
        """The symbolic evaluation path, vectorized for matrix checks: every
        entry's coordinates are gathered, then scattered into one block array
        by a single assignment."""
        h = self.height
        rows, cols, values = [], [], []
        for i, j in _pairs(h):
            row0 = self._row0[i]
            for node, l, c in a.eval_entry(i, j).terms:
                r = row0.get(node)
                if r is None or not i < l < h:
                    self._position(i, node, l)  # raises
                rows.append(r + l)
                cols.append(j)
                values.append(c)  # canonical, so already reduced mod m
        t = np.zeros((self._offsets[-1], h), dtype=self.dtype)
        t[rows, cols] = values
        return t

    def independent_table(self, a: Planted) -> np.ndarray:
        """Entries recomputed from the raw presentation: branch nodes are
        placed directly and the coboundary part uses the hom matrices."""
        h = self.height
        tree = self.system.tree
        # the stacked y, scattered from its nonzero levels; levels at or above
        # the height touch no entry below it
        rows, values = [], []
        for level, elem in a.fact.entries:
            if level >= h:
                break
            row0 = self._row0[level]
            for node, l, c in elem.terms:
                r = row0.get(node)
                if r is None or not level < l < h:
                    self._position(level, node, l)  # raises
                rows.append(r + l)
                values.append(c)  # canonical, so already reduced mod m
        y = np.zeros(self._offsets[-1], dtype=self.dtype)
        y[rows] = values
        t = self._coboundary_table(y)
        # each branch adds its coefficient at the generators (node, j) of its
        # level-i node, j = i+1 .. h-1, one per column j; branches may share a
        # node, so the additions go through the unbuffered np.add.at
        rows, cols, values = [], [], []
        for i in range(h - 1):
            row0 = self._row0[i]
            for branch, coeff in a.combo:
                node = tree.branch_node(branch, i)
                r = row0.get(node)
                if r is None:
                    raise ValueError(f"branch node ({node!r}, {i + 1}) lies outside the node universe")
                first = r + i + 1
                rows.extend(range(first, first + h - 1 - i))
                cols.extend(range(i + 1, h))
                values.extend([coeff] * (h - 1 - i))
        np.add.at(t, (rows, cols), np.array(values, dtype=self.dtype))
        t %= self.modulus
        return t

    # -- checks ---------------------------------------------------------------

    def composition_fault(self) -> tuple[int, int, int] | None:
        """The first triple ``(i, j, k)`` in lexicographic order at which
        ``hom(i, j) @ hom(j, k)`` differs from ``hom(i, k)``, or None."""
        m, o, hom = self.modulus, self._offsets, self._hom
        if not any(
            ((hom[:o[j], o[j]:o[j + 1]] @ hom[o[j]:o[j + 1], o[j + 1]:] - hom[:o[j], o[j + 1]:])
             % m).any()
            for j in range(1, self.height - 1)
        ):
            return None
        for i, j, k in _triples(self.height):
            if ((self.hom_matrix(i, j) @ self.hom_matrix(j, k) - self.hom_matrix(i, k)) % m).any():
                return i, j, k

    def table_coherent(self, t: np.ndarray) -> bool:
        """Whether ``t[i,k] = t[i,j] + hom(i, j) @ t[j,k]`` at every triple
        ``i < j < k``."""
        m, o, hom = self.modulus, self._offsets, self._hom
        t = t % m
        for j in range(1, self.height - 1):
            lo, hi = o[j], o[j + 1]
            rhs = t[:lo, j, None] + hom[:lo, lo:hi] @ t[lo:hi, j + 1:]
            if ((t[:lo, j + 1:] - rhs) % m).any():
                return False
        return True

    def agreement(self, a: Planted, primary: np.ndarray) -> bool:
        """Whether ``primary``, ``a``'s table from the symbolic path, equals the
        table the independent path builds."""
        return np.array_equal(primary, self.independent_table(a))

    def coboundary_fault(self, t: np.ndarray, y: np.ndarray) -> tuple[int, int] | None:
        """The first pair ``(i, j)`` in lexicographic order at which
        ``t[i,j] = y_i - hom(i, j) @ y_j`` fails, or None."""
        wrong = (t - self._coboundary_table(y)) % self.modulus != 0
        if not wrong.any():
            return None
        for i, j in _pairs(self.height):
            if wrong[self._rows(i), j].any():
                return i, j

    def solve_coboundary(self, t: np.ndarray) -> np.ndarray:
        """A stacked sequence ``y`` with ``t[i,j] = y_i - hom(y_j)`` at every pair.

        ``y`` is the top column of ``t``: each ``y_i`` is the entry against the
        top level, and the top level's rows there are zero by the block layout.
        Verifies the full equation system before returning.  Incoherent tables
        are rejected as a usage error.
        """
        if not self.table_coherent(t):
            raise ValueError("table is not coherent; no coboundary solve is attempted")
        y = t[:, self.height - 1].copy()
        fault = self.coboundary_fault(t, y)
        if fault is not None:
            raise AssertionError(f"coboundary solve failed at {fault}")
        return y


def _pairs(height: int):
    return ((i, j) for i in range(height) for j in range(i + 1, height))


def _triples(height: int):
    return ((i, j, k) for i, j in _pairs(height) for k in range(j + 1, height))


def truncate(system: System, height: int, universe) -> TruncatedSystem:
    """Build the explicit truncated modules and hom matrices in the pass the
    module docstring describes.  ``universe`` maps each level below ``height``
    to its node set, which must be closed under restriction."""
    if not 3 <= height <= MAX_HEIGHT:
        raise ValueError(f"height must lie in [3, {MAX_HEIGHT}], got {height}")
    tree = system.tree
    levels: list[tuple[Node, ...]] = []
    for i in range(height):
        nodes = set(universe.get(i, ()))
        if len(nodes) > MAX_NODES_PER_LEVEL:
            raise ValueError(f"level {i} universe exceeds {MAX_NODES_PER_LEVEL} nodes")
        for node in nodes:
            tree.check_node(node)
            if node.level != i:
                raise ValueError(f"node {node!r} filed under level {i}")
        levels.append(tuple(sorted(nodes)))
    dims = [len(levels[i]) * (height - 1 - i) for i in range(height)]
    offsets = [0, *np.cumsum(dims).tolist()]
    row0 = [{node: offsets[i] + p * (height - 1 - i) - i - 1 for p, node in enumerate(levels[i])}
            for i in range(height)]
    # per (column, lower level): the row of the 1, the row of the m - 1, the column
    plus, minus, cols = [], [], []
    for j in range(height):
        for eta in levels[j]:
            down = []
            for i in range(j):
                r = row0[i].get(tree._restrict(eta, i))
                if r is None:
                    raise ValueError(
                        f"universe is not closed under restriction: {eta!r} at level {i}"
                    )
                down.append(r)
            c0, ls = row0[j][eta], range(j + 1, height)
            plus += [r + l for l in ls for r in down]
            minus += [r + j for r in down] * len(ls)
            cols += [c0 + l for l in ls for _ in down]

    m = system.ring.modulus
    dtype = object if (m - 1) ** 2 * (max(dims) + 1) >= 2 ** 63 else np.int64
    total = offsets[-1]
    hom = np.zeros((total, total), dtype=dtype)
    hom[plus, cols] = 1
    hom[minus, cols] = m - 1
    hom.flags.writeable = False
    upper = np.repeat(np.arange(height), dims)[:, None] < np.arange(height)
    trunc = TruncatedSystem(system, height, offsets, row0, hom, upper, dtype)

    fault = trunc.composition_fault()
    if fault is not None:
        raise AssertionError(f"hom matrices fail to compose at {fault}")
    return trunc


def universe_for(system: System, elements, height: int) -> dict[int, set[Node]]:
    """The restriction closure of every node an element can touch below ``height``.

    The nodes come from validated data (trusted branch handles and the terms
    of validated ``y``), so they are restricted without re-validation.
    """
    tree = system.tree
    levels: dict[int, set[Node]] = {i: set() for i in range(height)}

    def add(node: Node) -> None:
        # a node already present came with all its restrictions
        if node in levels[node.level]:
            return
        levels[node.level].add(node)
        for lower in range(node.level):
            levels[lower].add(tree._restrict(node, lower))

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
