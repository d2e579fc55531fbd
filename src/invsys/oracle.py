"""Brute-force verification at a finite truncation height.

The truncated system materializes the level modules as explicit coordinate
spaces over Z/m (one axis per generator ``(node, l)`` with ``l`` below the
height) and the connecting maps as matrices built directly from the generator
rule.  Coherence, agreement with the symbolic evaluation path, and coboundary
solvability are then plain modular matrix arithmetic, sharing no evaluation
code with the symbolic side.

Vectors and matrices are kept reduced mod m, so a matrix-vector product is a
sum of at most ``dim`` terms, each at most ``(m - 1) ** 2``, and at most one
more reduced vector is added to it before the next reduction.  (The branch
part of an independent entry sums one coefficient per branch, far below that
bound for any combination that fits in memory.)  The arrays are ``int64``
whenever ``(m - 1) ** 2 * (max dim + 1)`` fits, which covers every small
modulus; above it they hold Python integers (``dtype=object``), so the oracle
stays exact for every ``m``.

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


@dataclass
class TruncatedSystem:
    system: System
    height: int
    universe: dict[int, tuple[Node, ...]]
    _gens: dict[int, list[tuple[Node, int]]] = field(default_factory=dict, repr=False)
    _index: dict[int, dict[tuple[Node, int], int]] = field(default_factory=dict, repr=False)
    _mats: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)
    dtype: type = np.int64

    @property
    def modulus(self) -> int:
        return self.system.ring.modulus

    def dim(self, level: int) -> int:
        return len(self._gens[level])

    def generators(self, level: int) -> list[tuple[Node, int]]:
        return list(self._gens[level])

    def hom_matrix(self, i: int, j: int) -> np.ndarray:
        return self._mats[(i, j)]

    # -- vectors ------------------------------------------------------------

    def vectorize(self, elem: ModuleElement) -> np.ndarray:
        if elem.level >= self.height:
            raise ValueError(f"level {elem.level} lies outside the truncation")
        vec = np.zeros(self.dim(elem.level), dtype=self.dtype)
        index = self._index[elem.level]
        for node, l, c in elem.terms:
            if l >= self.height:
                raise ValueError(f"generator index {l} lies outside the truncation")
            if (node, l) not in index:
                raise ValueError(f"generator ({node!r}, {l}) lies outside the node universe")
            vec[index[(node, l)]] = c % self.modulus
        return vec

    def primary_table(self, a: Planted) -> dict[tuple[int, int], np.ndarray]:
        """The symbolic evaluation path, vectorized for matrix checks."""
        return {
            (i, j): self.vectorize(a.eval_entry(i, j))
            for i in range(self.height)
            for j in range(i + 1, self.height)
        }

    def independent_table(self, a: Planted) -> dict[tuple[int, int], np.ndarray]:
        """Entries recomputed from the raw presentation: branch nodes are
        placed directly and the coboundary part uses the hom matrices."""
        m = self.modulus
        tree = self.system.tree
        y_vecs = {i: self.vectorize(a.fact.y(i)) for i in range(self.height)}
        table = {}
        for i in range(self.height):
            index = self._index[i]
            for j in range(i + 1, self.height):
                vec = np.zeros(self.dim(i), dtype=self.dtype)
                for branch, coeff in a.combo:
                    node = tree.branch_node(branch, i)
                    if (node, j) not in index:
                        raise ValueError(f"branch node ({node!r}, {j}) lies outside the node universe")
                    vec[index[(node, j)]] += coeff
                vec = vec + y_vecs[i] - self._mats[(i, j)] @ y_vecs[j]
                table[(i, j)] = vec % m
        return table

    # -- checks ---------------------------------------------------------------

    def table_coherent(self, table) -> bool:
        m = self.modulus
        for i in range(self.height):
            for j in range(i + 1, self.height):
                for k in range(j + 1, self.height):
                    lhs = table[(i, k)] % m
                    rhs = (table[(i, j)] + self._mats[(i, j)] @ table[(j, k)]) % m
                    if not np.array_equal(lhs, rhs):
                        return False
        return True

    def verify_evaluation(self, a: Planted) -> bool:
        """Whether the symbolic entries of ``a`` satisfy every coherence equation."""
        return self.table_coherent(self.primary_table(a))

    def agreement(self, a: Planted, primary=None) -> bool:
        """Whether the symbolic path and the independent path produce the same table.

        ``primary`` is ``a``'s primary table when the caller has built it already.
        """
        if primary is None:
            primary = self.primary_table(a)
        independent = self.independent_table(a)
        return all(np.array_equal(primary[key], independent[key]) for key in primary)

    def solve_coboundary(self, table) -> list[np.ndarray]:
        """A sequence ``y`` with ``table[i,j] = y_i - hom(y_j)`` at every pair.

        Takes the entry against the top level for each ``y_i`` and zero at the
        top; verifies the full equation system before returning.  Incoherent
        tables are rejected as a usage error.
        """
        if not self.table_coherent(table):
            raise ValueError("table is not coherent; no coboundary solve is attempted")
        m = self.modulus
        top = self.height - 1
        y = [table[(i, top)].copy() for i in range(top)]
        y.append(np.zeros(self.dim(top), dtype=self.dtype))
        for i in range(self.height):
            for j in range(i + 1, self.height):
                want = (y[i] - self._mats[(i, j)] @ y[j]) % m
                if not np.array_equal(table[(i, j)] % m, want):
                    raise AssertionError(f"coboundary solve failed at ({i}, {j})")
        return y


def truncate(system: System, height: int, universe) -> TruncatedSystem:
    """Build the explicit truncated modules and hom matrices.

    ``universe`` maps each level below ``height`` to its node set, which must
    be closed under restriction.
    """
    if not 3 <= height <= MAX_HEIGHT:
        raise ValueError(f"height must lie in [3, {MAX_HEIGHT}], got {height}")
    tree = system.tree
    levels: dict[int, tuple[Node, ...]] = {}
    for i in range(height):
        nodes = tuple(sorted(set(universe.get(i, ())), key=tree.node_sort_key))
        if len(nodes) > MAX_NODES_PER_LEVEL:
            raise ValueError(f"level {i} universe exceeds {MAX_NODES_PER_LEVEL} nodes")
        for node in nodes:
            tree.check_node(node)
            if node.level != i:
                raise ValueError(f"node {node!r} filed under level {i}")
        levels[i] = nodes
    for i in range(height):
        for node in levels[i]:
            for lower in range(i):
                if tree.restrict(node, lower) not in levels[lower]:
                    raise ValueError(
                        f"universe is not closed under restriction: {node!r} at level {lower}"
                    )

    trunc = TruncatedSystem(system, height, levels)
    for i in range(height):
        gens = [(node, l) for node in levels[i] for l in range(i + 1, height)]
        trunc._gens[i] = gens
        trunc._index[i] = {gen: pos for pos, gen in enumerate(gens)}

    m = system.ring.modulus
    if (m - 1) ** 2 * (max(map(trunc.dim, range(height))) + 1) >= 2 ** 63:
        trunc.dtype = object
    for i in range(height):
        for j in range(i + 1, height):
            mat = np.zeros((trunc.dim(i), trunc.dim(j)), dtype=trunc.dtype)
            for col, (eta, l) in enumerate(trunc._gens[j]):
                down = tree.restrict(eta, i)
                mat[trunc._index[i][(down, l)], col] += 1
                mat[trunc._index[i][(down, j)], col] -= 1
            trunc._mats[(i, j)] = mat % m

    for i in range(height):
        for j in range(i + 1, height):
            for k in range(j + 1, height):
                composed = (trunc._mats[(i, j)] @ trunc._mats[(j, k)]) % m
                if not np.array_equal(trunc._mats[(i, k)], composed):
                    raise AssertionError(f"hom matrices fail to compose at ({i}, {j}, {k})")
    return trunc


def universe_for(system: System, elements, height: int) -> dict[int, set[Node]]:
    """The restriction closure of every node an element can touch below ``height``."""
    tree = system.tree
    levels: dict[int, set[Node]] = {i: set() for i in range(height)}

    def add(node: Node) -> None:
        levels[node.level].add(node)
        for lower in range(node.level):
            levels[lower].add(tree.restrict(node, lower))

    for elem in elements:
        for branch, _ in elem.combo:
            for i in range(height):
                add(tree.branch_node(branch, i))
        for level, y_elem in elem.fact.entries:
            if level >= height:
                raise ValueError(f"coboundary level {level} lies outside the truncation")
            for node, l, _ in y_elem.terms:
                if l >= height:
                    raise ValueError(f"generator index {l} lies outside the truncation")
                add(node)
    return levels
