"""Level trees of height omega with canonical node addresses and branch handles.

Three presented families are supported:

* ``disjoint_branches(count)`` -- ``count`` pairwise disjoint chains; level i
  has exactly ``count`` nodes and node k extends only node k below it.
* ``finite_support(widths)`` -- nodes at level i are maps defined on ``[0, i)``
  with finitely many nonzero values, value at position p drawn from
  ``[0, widths(p))``, ordered by inclusion.  The presented branches are the
  finitely supported total selectors, a countably infinite family.  They are
  not all the paths: with eventual width at least 2 every map on the
  naturals with values below the widths is a path, 2^aleph_0 of them, and
  ``card`` counts classes of families presented by the finitely supported
  ones only (see ``quotient_card_report``).
* ``decreasing_seq`` -- nodes at level i are strictly decreasing length-i
  sequences of non-negative integers ordered by end-extension.  Every level is
  populated but there is no infinite branch.

Levels of the last two families are infinite, so there is deliberately no
full-level enumeration: all operations are restriction and membership based
and consult only nodes occurring in finite supports.

A family is one class, and no other module names it.  It states only its
rules:

* the address rules ``_check_address``, ``_restrict`` and ``branch``, each
  the one complete rule for its addresses: booleans and non-integers are
  refused wherever an integer belongs;
* ``branch_count``, ``branches`` when that count is a positive integer, and
  ``presentation_level``;
* ``draw_address``, the draw ``invsys.sampling`` makes for a node or a branch;
* ``to_json``, and ``_from_json`` when the description has fields to read.

``Tree`` derives the rest.  ``from_json`` looks ``kind`` up in the family
table, ``check_node`` adds the negative-level check, and ``branch_node`` is
the restriction of the presentation.  ``_address_from_json`` turns a JSON
address into the tuple form ``to_json`` writes, and the family rule checks
it, so a JSON address meets exactly the library's rule.

Nodes and branch handles are named tuples, so the ``(node, l)`` keys of every
term map are compared and hashed in C, and their tuple order is the canonical
order that every canonical form is sorted by.  A node is ``(level, address)``
and every sort compares nodes of one level, so nodes are ordered by address:
a branch index on ``disjoint_branches``, a tuple of ``(position, value)``
pairs with increasing positions on ``finite_support``, a tuple of integers on
``decreasing_seq``.  A branch is ``(presentation,)``.  A new family needs no
sort key: its addresses must only compare, within one level, in the order its
canonical forms take.  ``node_sort_key`` and ``branch_sort_key`` return the
address and the presentation, which is that order; nothing in the package
calls them.  Nodes and branches are always serialized through ``to_json``.

Calling a named-tuple class runs its Python-level ``__new__``, whose only
check is the number of fields.  The *trusted constructors* skip that frame
and build the tuple in C with ``_new_tuple(cls, fields)``, which is
``tuple.__new__``.  There are three, the hot builders of nodes and
elements: each family's ``_restrict``, ``freemod._canonical``, and the entry
that ``Planted.eval_entry`` (in ``coherent``) reads off a branch row alone.
Each passes a tuple display of exactly the class's fields, in order, so the
check it skips cannot fail there, and it builds the tuple the class call
builds: the same type, value, hash and ``repr``.  No validation is skipped.
``node_from_json`` builds its node through the class and ``check_node``;
``module_element`` and the ``from_json`` readers check every term, then
build through ``_canonical``.
"""

from __future__ import annotations

from typing import NamedTuple

from .schema import Value, at, json_int, json_list

COUNTABLY_INFINITE = "countably-infinite"

# The trusted named-tuple constructor of the module docstring.
_new_tuple = tuple.__new__


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


class Tree(Value):
    """Common operations on a presented level tree; a tree is a ``Value`` over
    the fields of its presentation."""

    __slots__ = ()
    kind = ""

    # -- nodes ------------------------------------------------------------

    def check_node(self, node: Node) -> None:
        if node.level < 0:
            raise ValueError(f"negative level: {node!r}")
        self._check_address(node)

    def _check_address(self, node: Node) -> None:
        """``check_node`` for a node of non-negative level."""
        raise NotImplementedError

    def restrict(self, node: Node, i: int) -> Node:
        """The unique node at level ``i < node.level`` lying below ``node``."""
        self.check_node(node)
        if i >= node.level:
            raise ValueError(f"restriction level {i} must be below node level {node.level}")
        if i < 0:
            raise ValueError("restriction level must be non-negative")
        return self._restrict(node.address, i)

    def _restrict(self, address, i: int) -> Node:
        """The level-``i`` node below a node or branch with this address."""
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
        out = [eta for eta in candidates if self._restrict(eta.address, nu.level) == nu]
        return tuple(sorted(out))

    def node_sort_key(self, node: Node):
        return node.address

    # -- branches ---------------------------------------------------------

    def branch(self, presentation) -> Branch:
        """Validate a presentation and wrap it as a branch handle."""
        raise NotImplementedError

    def branch_node(self, branch: Branch, i: int) -> Node:
        """The node the branch passes through at level ``i``: the restriction
        of its presentation, which ``branch`` validated.  So every branch node
        is the restriction of the branch's higher nodes, and the node at the
        top level of a truncation supplies all the lower ones.
        """
        if i < 0:
            raise ValueError("level must be non-negative")
        return self._restrict(branch.presentation, i)

    def branch_count(self):
        """Number of branches: an integer, 0, or ``COUNTABLY_INFINITE``."""
        raise NotImplementedError

    def branches(self) -> tuple[Branch, ...]:
        """Every branch, in canonical order, of a family with a positive integer
        ``branch_count``."""
        raise NotImplementedError

    def branch_sort_key(self, branch: Branch):
        return branch.presentation

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

    # -- sampling ---------------------------------------------------------

    def draw_address(self, rng, size: int, chance: float):
        """An address drawn from ``rng``, for a node at level ``size`` or for a
        branch whose support positions lie below ``size``; a finitely supported
        position is filled with probability ``chance``."""
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
            family = _FAMILIES.get(kind) if isinstance(kind, str) else None
            if family is None:
                raise ValueError(f"unknown tree kind: {kind!r}")
        return family._from_json(obj, path)

    @classmethod
    def _from_json(cls, obj: dict, path: str) -> Tree:
        """The tree of this family that ``obj``, read at ``path``, describes."""
        return cls()

    def node_from_json(self, obj: dict) -> Node:
        if not isinstance(obj, dict) or "level" not in obj or "address" not in obj:
            raise ValueError(f"node description must have level and address: {obj!r}")
        level = json_int(obj["level"], "node level")
        node = Node(level, self._address_from_json(obj["address"], "node"))
        self.check_node(node)
        return node

    def branch_from_json(self, obj) -> Branch:
        return self.branch(self._address_from_json(obj, "branch"))

    def _address_from_json(self, obj, what: str):
        """The address ``_address_to_json`` writes as ``obj``: each list becomes a
        tuple.  The caller applies the family rule to the result; ``what``,
        ``"node"`` or ``"branch"``, words a family's own check made here."""
        if isinstance(obj, list):
            return tuple(tuple(p) if isinstance(p, list) else p for p in obj)
        return obj


class DisjointBranchesTree(Tree):
    """``count`` disjoint chains; node addresses are branch indices."""

    __slots__ = _fields = ("count",)
    kind = "disjoint_branches"

    def __init__(self, count: int):
        if type(count) is not int or count < 1:
            raise ValueError(f"branch count must be a positive integer, got {count!r}")
        object.__setattr__(self, "count", count)

    def _key(self) -> tuple:
        return (self.count,)

    def _check_address(self, node: Node) -> None:
        if type(node.address) is not int or not 0 <= node.address < self.count:
            raise ValueError(f"node address must be a branch index below {self.count}: {node!r}")

    def _restrict(self, address, i: int) -> Node:
        return _new_tuple(Node, (i, address))

    def branch(self, presentation) -> Branch:
        if type(presentation) is not int or not 0 <= presentation < self.count:
            raise ValueError(f"branch index must lie below {self.count}: {presentation!r}")
        return Branch(presentation)

    def branch_count(self):
        return self.count

    def branches(self) -> tuple[Branch, ...]:
        return tuple(map(Branch, range(self.count)))

    def presentation_level(self, branch: Branch) -> int:
        return 0

    def draw_address(self, rng, size: int, chance: float):
        return rng.randrange(self.count)

    def to_json(self) -> dict:
        return {"kind": self.kind, "count": self.count}

    @classmethod
    def _from_json(cls, obj: dict, path: str) -> Tree:
        with at(path):
            count = obj["count"]
        with at(f"{path}.count"):
            return cls(json_int(count, "branch count"))


class FiniteSupportTree(Tree):
    """Nodes are finitely supported maps below their level, ordered by inclusion.

    ``widths`` gives the value range at each position: a finite table followed
    by an eventual constant.  The eventual width must be at least 2 so that the
    presented branch family is genuinely infinite.
    """

    __slots__ = _fields = ("widths_table", "eventual_width")
    kind = "finite_support"

    def __init__(self, widths_table: tuple[int, ...], eventual_width: int):
        if any(type(w) is not int or w < 1 for w in widths_table):
            raise ValueError(f"width table entries must be positive integers: {widths_table!r}")
        if type(eventual_width) is not int or eventual_width < 2:
            raise ValueError(f"eventual width must be an integer >= 2, got {eventual_width!r}")
        object.__setattr__(self, "widths_table", widths_table)
        object.__setattr__(self, "eventual_width", eventual_width)

    def _key(self) -> tuple:
        return (self.widths_table, self.eventual_width)

    def width(self, position: int) -> int:
        if position < len(self.widths_table):
            return self.widths_table[position]
        return self.eventual_width

    def _check_support(self, pairs, bound: int | None, what: str) -> None:
        if not isinstance(pairs, tuple):
            raise ValueError(f"{what} address must be a tuple of pairs: {pairs!r}")
        last = -1
        for entry in pairs:
            _check_pair(entry, what)
            p, v = entry
            if p < 0 or (bound is not None and p >= bound):
                raise ValueError(f"{what} support position {p} out of range")
            if p <= last:
                raise ValueError(f"{what} support positions must be strictly increasing: {pairs!r}")
            last = p
            if not 1 <= v < self.width(p):
                raise ValueError(f"{what} value {v} at position {p} must lie in [1, {self.width(p)})")

    def _check_address(self, node: Node) -> None:
        self._check_support(node.address, node.level, "node")

    def _restrict(self, address, i: int) -> Node:
        kept = tuple([p for p in address if p[0] < i])
        return _new_tuple(Node, (i, kept))

    def branch(self, presentation) -> Branch:
        self._check_support(presentation, None, "branch")
        return Branch(presentation)

    def branch_count(self):
        return COUNTABLY_INFINITE

    def presentation_level(self, branch: Branch) -> int:
        if not branch.presentation:
            return 0
        return branch.presentation[-1][0] + 1

    def draw_address(self, rng, size: int, chance: float):
        return tuple((pos, rng.randrange(1, self.width(pos))) for pos in range(size)
                     if self.width(pos) >= 2 and rng.random() < chance)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "widths": {"table": list(self.widths_table), "eventual": self.eventual_width},
        }

    @classmethod
    def _from_json(cls, obj: dict, path: str) -> Tree:
        with at(path):
            widths = obj["widths"]
        with at(f"{path}.widths"):
            if not isinstance(widths, dict):
                raise ValueError("finite_support tree needs a widths object")
            table, eventual = widths.get("table", ()), widths["eventual"]
        widths_table = []
        for n, w in enumerate(json_list(table, f"{path}.widths.table")):
            with at(f"{path}.widths.table[{n}]"):
                if json_int(w, "width") < 1:
                    raise ValueError(f"width table entries must be positive integers, got {w}")
                widths_table.append(w)
        with at(f"{path}.widths.eventual"):
            return cls(tuple(widths_table), json_int(eventual, "eventual width"))

    def _address_from_json(self, obj, what: str):
        """A support map may list its pairs in any order.  Each pair's shape and
        integers, which sorting needs, are checked here; then the pairs are
        sorted, and the family rule checks ranges, order and duplicates once."""
        pairs = super()._address_from_json(obj, what)
        if isinstance(pairs, tuple):
            for entry in pairs:
                _check_pair(entry, what)
            pairs = tuple(sorted(pairs))
        return pairs


def _check_pair(entry, what: str) -> None:
    """A finite-support entry is a ``(position, value)`` pair of integers."""
    if not isinstance(entry, tuple) or len(entry) != 2:
        raise ValueError(f"{what} support entry must be a (position, value) pair: {entry!r}")
    p, v = entry
    if type(p) is not int or type(v) is not int:
        raise ValueError(f"{what} support position and value must be integers: {entry!r}")


class DecreasingSeqTree(Tree):
    """Strictly decreasing integer sequences; populated at every level, branchless."""

    __slots__ = ()
    kind = "decreasing_seq"

    def _check_address(self, node: Node) -> None:
        seq = node.address
        if not isinstance(seq, tuple) or len(seq) != node.level:
            raise ValueError(f"node address must be a length-{node.level} sequence: {node!r}")
        for k, v in enumerate(seq):
            if type(v) is not int or v < 0:
                raise ValueError(f"sequence entries must be non-negative integers: {node!r}")
            if k > 0 and v >= seq[k - 1]:
                raise ValueError(f"sequence must be strictly decreasing: {node!r}")

    def _restrict(self, address, i: int) -> Node:
        return _new_tuple(Node, (i, address[:i]))

    def branch(self, presentation) -> Branch:
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def branch_node(self, branch: Branch, i: int) -> Node:
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def branch_count(self):
        return 0

    def branch_from_node(self, node: Node) -> Branch:
        raise NoBranchError("no branch passes through a decreasing-sequence node")

    def presentation_level(self, branch: Branch) -> int:
        raise NoBranchError("a decreasing-sequence tree has no branches")

    def draw_address(self, rng, size: int, chance: float):
        return tuple(sorted(rng.sample(range(size + 3), size), reverse=True))

    def to_json(self) -> dict:
        return {"kind": self.kind}


_FAMILIES = {f.kind: f for f in (DisjointBranchesTree, FiniteSupportTree, DecreasingSeqTree)}
