"""Level trees of height omega with canonical node addresses and branch handles.

Three presented families are supported:

* ``disjoint_branches(count)`` -- ``count`` pairwise disjoint chains; level i
  has exactly ``count`` nodes and node k extends only node k below it.
* ``finite_support(widths)`` -- nodes at level i are maps defined on ``[0, i)``
  with finitely many nonzero values, value at position p drawn from
  ``[0, widths(p))``, ordered by inclusion.  Branches are the finitely
  supported total selectors, a countably infinite family.
* ``decreasing_seq`` -- nodes at level i are strictly decreasing length-i
  sequences of non-negative integers ordered by end-extension.  Every level is
  populated but there is no infinite branch.

Levels of the last two families are infinite, so there is deliberately no
full-level enumeration: all operations are restriction and membership based
and consult only nodes occurring in finite supports.

Nodes and branch handles are named tuples, so the ``(node, l)`` keys of every
term map are compared and hashed in C.  A node therefore equals the plain
tuple ``(level, address)`` and is orderable as one, but that order means
nothing: nodes and branches are always ordered through the tree's
``node_sort_key`` and ``branch_sort_key``, and always serialized through
``to_json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .schema import at, json_int, json_list

COUNTABLY_INFINITE = "countably-infinite"


class NoBranchError(ValueError):
    """Raised when a branch handle is requested from a branchless tree."""


class Node(NamedTuple):
    """A tree node: its level and a canonical, kind-specific address."""

    level: int
    address: int | tuple

    def to_json(self) -> dict:
        return {"level": self.level, "address": _address_to_json(self.address)}


class Branch(NamedTuple):
    """A handle for a presented branch (a coherent selector of one node per level)."""

    presentation: int | tuple

    def to_json(self):
        return _address_to_json(self.presentation)


def _address_to_json(address):
    if isinstance(address, int):
        return address
    return [list(p) if isinstance(p, tuple) else p for p in address]


class Tree:
    """Common operations on a presented level tree."""

    kind = ""

    # -- nodes ------------------------------------------------------------

    def check_node(self, node: Node) -> None:
        raise NotImplementedError

    def restrict(self, node: Node, i: int) -> Node:
        """The unique node at level ``i < node.level`` lying below ``node``."""
        self.check_node(node)
        if i >= node.level:
            raise ValueError(f"restriction level {i} must be below node level {node.level}")
        if i < 0:
            raise ValueError("restriction level must be non-negative")
        return self._restrict(node, i)

    def _restrict(self, node: Node, i: int) -> Node:
        raise NotImplementedError

    def pro_level_within(self, j: int, nu: Node, candidates) -> tuple[Node, ...]:
        """The candidates at level ``j`` extending ``nu``, in address order."""
        self.check_node(nu)
        if nu.level >= j:
            raise ValueError(f"projection level {j} must exceed node level {nu.level}")
        for eta in candidates:
            if eta.level != j:
                raise ValueError(f"candidate {eta!r} is not at level {j}")
            self.check_node(eta)
        out = [eta for eta in candidates if self._restrict(eta, nu.level) == nu]
        return tuple(sorted(out, key=self.node_sort_key))

    def node_sort_key(self, node: Node):
        raise NotImplementedError

    # -- branches ---------------------------------------------------------

    def branch(self, presentation) -> Branch:
        """Validate a presentation and wrap it as a branch handle."""
        raise NotImplementedError

    def branch_node(self, branch: Branch, i: int) -> Node:
        """The node the branch passes through at level ``i``.

        The handle is trusted: ``branch`` validated its presentation.  Every
        branch node is the restriction of the branch's higher nodes, so the
        node at the top level of a truncation supplies all the lower ones.
        """
        raise NotImplementedError

    def branch_count(self):
        """Number of branches: an integer, 0, or ``COUNTABLY_INFINITE``."""
        raise NotImplementedError

    def branch_sort_key(self, branch: Branch):
        raise NotImplementedError

    def branch_from_node(self, node: Node) -> Branch:
        """The canonical branch through ``node`` (minimal continuation)."""
        self.check_node(node)
        return Branch(node.address)

    def separation_level(self, b1: Branch, b2: Branch) -> int:
        """Least level from which two distinct branches select distinct nodes.

        It never exceeds the larger presentation level, where each node names
        its branch, so the search starts there and steps down while the two
        branch nodes still differ.
        """
        level = max(self.presentation_level(b1), self.presentation_level(b2))
        if b1 == b2:
            raise ValueError("branches do not separate: equal presentations")
        while level and self.branch_node(b1, level - 1) != self.branch_node(b2, level - 1):
            level -= 1
        return level

    def presentation_level(self, branch: Branch) -> int:
        """Least level from which the branch's node determines the branch.

        At or above it no other branch passes through that node, so distinct
        branches select distinct nodes at any level at or above both of their
        presentation levels; the probe bound and ``card``'s certificate rest
        on this alone.
        """
        raise NotImplementedError

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict, path: str = "$") -> Tree:
        with at(path):
            if not isinstance(obj, dict):
                raise ValueError(f"tree description must be an object, got {obj!r}")
            kind = obj.get("kind")
            if kind == "decreasing_seq":
                return DecreasingSeqTree()
            if kind == "disjoint_branches":
                count = obj["count"]
            elif kind == "finite_support":
                widths = obj["widths"]
            else:
                raise ValueError(f"unknown tree kind: {kind!r}")
        if kind == "disjoint_branches":
            with at(f"{path}.count"):
                return DisjointBranchesTree(json_int(count, "branch count"))
        with at(f"{path}.widths"):
            if not isinstance(widths, dict):
                raise ValueError("finite_support tree needs a widths object")
            table, eventual = widths.get("table", ()), widths["eventual"]
        widths_table = []
        for entry_path, w in json_list(table, f"{path}.widths.table"):
            with at(entry_path):
                if json_int(w, "width") < 1:
                    raise ValueError(f"width table entries must be positive integers, got {w}")
                widths_table.append(w)
        with at(f"{path}.widths.eventual"):
            return FiniteSupportTree(tuple(widths_table), json_int(eventual, "eventual width"))

    def node_from_json(self, obj: dict) -> Node:
        if not isinstance(obj, dict) or "level" not in obj or "address" not in obj:
            raise ValueError(f"node description must have level and address: {obj!r}")
        level = json_int(obj["level"], "node level")
        node = Node(level, self._address_from_json(obj["address"]))
        self.check_node(node)
        return node

    def branch_from_json(self, obj) -> Branch:
        return self.branch(self._address_from_json(obj))

    def _address_from_json(self, obj):
        raise NotImplementedError


def _as_support_map(obj) -> tuple[tuple[int, int], ...]:
    pairs = []
    for entry in obj:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"support map entry must be a [position, value] pair: {entry!r}")
        pairs.append((json_int(entry[0], "support position"), json_int(entry[1], "support value")))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class DisjointBranchesTree(Tree):
    """``count`` disjoint chains; node addresses are branch indices."""

    count: int
    kind = "disjoint_branches"

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"branch count must be a positive integer, got {self.count!r}")

    def check_node(self, node: Node) -> None:
        if node.level < 0:
            raise ValueError(f"negative level: {node!r}")
        if not isinstance(node.address, int) or not 0 <= node.address < self.count:
            raise ValueError(f"node address must be a branch index below {self.count}: {node!r}")

    def _restrict(self, node: Node, i: int) -> Node:
        return Node(i, node.address)

    def node_sort_key(self, node: Node):
        return (node.address,)

    def branch(self, presentation) -> Branch:
        if not isinstance(presentation, int) or not 0 <= presentation < self.count:
            raise ValueError(f"branch index must lie below {self.count}: {presentation!r}")
        return Branch(presentation)

    def branch_node(self, branch: Branch, i: int) -> Node:
        if i < 0:
            raise ValueError("level must be non-negative")
        return Node(i, branch.presentation)

    def branch_count(self):
        return self.count

    def branch_sort_key(self, branch: Branch):
        return (branch.presentation,)

    def presentation_level(self, branch: Branch) -> int:
        return 0

    def to_json(self) -> dict:
        return {"kind": self.kind, "count": self.count}

    def _address_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ValueError(f"disjoint-branch address must be an integer: {obj!r}")
        return obj


@dataclass(frozen=True)
class FiniteSupportTree(Tree):
    """Nodes are finitely supported maps below their level, ordered by inclusion.

    ``widths`` gives the value range at each position: a finite table followed
    by an eventual constant.  The eventual width must be at least 2 so that the
    presented branch family is genuinely infinite.
    """

    widths_table: tuple[int, ...]
    eventual_width: int
    kind = "finite_support"

    def __post_init__(self):
        if any(not isinstance(w, int) or w < 1 for w in self.widths_table):
            raise ValueError(f"width table entries must be positive integers: {self.widths_table!r}")
        if not isinstance(self.eventual_width, int) or self.eventual_width < 2:
            raise ValueError(f"eventual width must be an integer >= 2, got {self.eventual_width!r}")

    def width(self, position: int) -> int:
        if position < len(self.widths_table):
            return self.widths_table[position]
        return self.eventual_width

    def _check_support(self, pairs, bound: int | None, what: str) -> None:
        if not isinstance(pairs, tuple):
            raise ValueError(f"{what} address must be a tuple of pairs: {pairs!r}")
        last = -1
        for entry in pairs:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise ValueError(f"{what} support entry must be a (position, value) pair: {entry!r}")
            p, v = entry
            if p <= last:
                raise ValueError(f"{what} support positions must be strictly increasing: {pairs!r}")
            last = p
            if p < 0 or (bound is not None and p >= bound):
                raise ValueError(f"{what} support position {p} out of range")
            if not 1 <= v < self.width(p):
                raise ValueError(f"{what} value {v} at position {p} must lie in [1, {self.width(p)})")

    def check_node(self, node: Node) -> None:
        if node.level < 0:
            raise ValueError(f"negative level: {node!r}")
        self._check_support(node.address, node.level, "node")

    def _restrict(self, node: Node, i: int) -> Node:
        return Node(i, tuple(p for p in node.address if p[0] < i))

    def node_sort_key(self, node: Node):
        return node.address

    def branch(self, presentation) -> Branch:
        if not isinstance(presentation, tuple):
            presentation = _as_support_map(presentation)
        self._check_support(presentation, None, "branch")
        return Branch(presentation)

    def branch_node(self, branch: Branch, i: int) -> Node:
        if i < 0:
            raise ValueError("level must be non-negative")
        return Node(i, tuple(p for p in branch.presentation if p[0] < i))

    def branch_count(self):
        return COUNTABLY_INFINITE

    def branch_sort_key(self, branch: Branch):
        return branch.presentation

    def presentation_level(self, branch: Branch) -> int:
        if not branch.presentation:
            return 0
        return branch.presentation[-1][0] + 1

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "widths": {"table": list(self.widths_table), "eventual": self.eventual_width},
        }

    def _address_from_json(self, obj):
        return _as_support_map(obj)


@dataclass(frozen=True)
class DecreasingSeqTree(Tree):
    """Strictly decreasing integer sequences; populated at every level, branchless."""

    kind = "decreasing_seq"

    def check_node(self, node: Node) -> None:
        if node.level < 0:
            raise ValueError(f"negative level: {node!r}")
        seq = node.address
        if not isinstance(seq, tuple) or len(seq) != node.level:
            raise ValueError(f"node address must be a length-{node.level} sequence: {node!r}")
        for k, v in enumerate(seq):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"sequence entries must be non-negative integers: {node!r}")
            if k > 0 and v >= seq[k - 1]:
                raise ValueError(f"sequence must be strictly decreasing: {node!r}")

    def _restrict(self, node: Node, i: int) -> Node:
        return Node(i, node.address[:i])

    def node_sort_key(self, node: Node):
        return node.address

    def branch(self, presentation) -> Branch:
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def branch_node(self, branch: Branch, i: int) -> Node:
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def branch_count(self):
        return 0

    def branch_sort_key(self, branch: Branch):
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def branch_from_node(self, node: Node) -> Branch:
        raise NoBranchError("no branch passes through a decreasing-sequence node")

    def presentation_level(self, branch: Branch) -> int:
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def to_json(self) -> dict:
        return {"kind": self.kind}

    def _address_from_json(self, obj):
        if not isinstance(obj, list):
            raise ValueError(f"decreasing-sequence address must be a list: {obj!r}")
        return tuple(json_int(v, "sequence entry") for v in obj)
