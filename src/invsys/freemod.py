"""Elements of the free modules attached to tree levels, and the connecting maps.

The level-i module is freely generated by pairs ``(node at level i, l)`` with
``l > i``.  Elements are finite coefficient maps in canonical form: zero
coefficients dropped, terms ``(node, l, coefficient)`` sorted in tuple order,
which is node address then generator index, as no two terms share a
``(node, l)``; so equality is syntactic.  The connecting homomorphism into a
lower level i sends the generator ``(eta, l)`` of level j to
``(eta|i, l) - (eta|i, j)``.

Terms are validated once, where they enter: ``module_element`` checks each
term's node, level and generator index, whatever its coefficient, and
``ModuleElement.from_json`` makes the same checks at each term's JSON path,
then sums the terms through ``_canonical``.  The internal paths
(``+``, ``-``, ``restrict_to`` and ``apply_hom``) only recombine the terms of
elements that are already valid, and restriction keeps a valid node valid, so
they skip those checks: they reduce, drop zeros and sort through the trusted
``_canonical``.  Two trusted accumulators sit below them: ``_add_terms`` adds
``sign * e`` and ``_add_hom`` adds ``sign * hom(e)`` into an unreduced
``(node, l) -> int`` map and validate nothing, so a caller can sum several
elements and images and reduce once, or test the sum for zero without
building an element at all.  ``_add_hom`` may also be handed a caller's
``node -> node|i`` map, so a caller that maps many elements into one level
restricts each of their distinct nodes once.

``ModuleElement`` is a named tuple, as ``tree.Node`` and ``Branch`` are, so it
is compared and hashed in C.  ``_canonical``, which builds every element
that has terms, is one of the trusted constructors the ``tree`` module
docstring lists, so such an element is built in C too, through
``tree._new_tuple``.  An element therefore equals the plain tuple
``(level, terms, ring, tree)`` of its fields and is orderable as one, but
that order means nothing; nor do ``len``, iteration or concatenation onto a
plain tuple, which are tuple operations and not module arithmetic.  ``*``
is refused with ``TypeError``, so ``2 * e`` cannot repeat the fields where a
scalar multiple was meant.  Operands are matched by comparing the pairs
``(ring, tree)`` as tuples, which returns at once for the identical objects
that elements of one system share and falls back to value equality
otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .ring import Ring, RingElem
from .schema import at, fail_at, json_int, json_list
from .tree import Node, Tree, _new_tuple

if TYPE_CHECKING:
    from .indexset import TailSet


class ModuleElement(NamedTuple):
    """A finitely supported element of the level-``level`` free module."""

    level: int
    terms: tuple[tuple[Node, int, int], ...]  # (node, l, coefficient), canonical
    ring: Ring
    tree: Tree

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(level: int, ring: Ring, tree: Tree) -> ModuleElement:
        return ModuleElement(level, (), ring, tree)

    def _check_mate(self, other: ModuleElement) -> None:
        if not isinstance(other, ModuleElement):
            raise TypeError(f"cannot combine ModuleElement with {type(other).__name__}")
        if self.level != other.level:
            raise ValueError(f"mismatched levels: {self.level} vs {other.level}")
        if (self.ring, self.tree) != (other.ring, other.tree):
            raise ValueError("operands live in different systems")

    # -- arithmetic ---------------------------------------------------------

    def _merge(self, other: ModuleElement, sign: int) -> ModuleElement:
        self._check_mate(other)
        acc = {(n, l): c for n, l, c in self.terms}
        _add_terms(acc, other, sign)
        return _canonical(self.level, acc, self.ring, self.tree)

    def __add__(self, other: ModuleElement) -> ModuleElement:
        return self._merge(other, 1)

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        return self._merge(other, -1)

    def __neg__(self) -> ModuleElement:
        return _canonical(
            self.level, {(n, l): -c for n, l, c in self.terms}, self.ring, self.tree
        )

    def __mul__(self, other):
        # Refuse the tuple repetition a named tuple would inherit.
        return NotImplemented

    __rmul__ = __mul__

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[tuple[Node, int], ...]:
        return tuple((n, l) for n, l, _ in self.terms)

    def coefficient(self, node: Node, l: int) -> RingElem:
        for n, k, c in self.terms:
            if k == l and n == node:
                return self.ring.elem(c)
        return self.ring.elem(0)

    def below(self, j: int) -> ModuleElement:
        """Keep exactly the terms with generator index below ``j``; a filter
        of canonical terms is canonical."""
        return ModuleElement(self.level, tuple(t for t in self.terms if t[1] < j),
                             self.ring, self.tree)

    def restrict_to(self, s: TailSet) -> ModuleElement:
        """Keep exactly the terms whose generator index lies in ``s``."""
        return _canonical(
            self.level,
            {(n, l): c for n, l, c in self.terms if s.contains(l)},
            self.ring, self.tree,
        )

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "terms": [{"node": n.to_json(), "l": l, "coeff": c} for n, l, c in self.terms],
        }

    @staticmethod
    def from_json(obj: dict, ring: Ring, tree: Tree, path: str = "$") -> ModuleElement:
        with at(path):
            if not isinstance(obj, dict):
                raise ValueError(f"module element must be an object, got {type(obj).__name__}")
            level, terms = json_int(obj["level"], "level"), obj["terms"]
            _check_level(level)
        acc: dict[tuple[Node, int], int] = {}
        node_from_json = tree.node_from_json
        n, where = 0, ""  # the term being read, and "" or ".node": its field
        try:
            for n, term in enumerate(json_list(terms, f"{path}.terms")):
                node = term["node"]
                l = json_int(term["l"], "generator index")
                coeff = json_int(term["coeff"], "coefficient")
                where = ".node"
                node = node_from_json(node)
                where = ""
                _check_term(level, node, l)
                acc[(node, l)] = acc.get((node, l), 0) + coeff
        except (KeyError, TypeError, ValueError) as exc:
            fail_at(f"{path}.terms[{n}]{where}", exc)
        return _canonical(level, acc, ring, tree)


def module_element(level: int, terms, ring: Ring, tree: Tree) -> ModuleElement:
    """Validating, canonicalizing constructor from a ``(node, l) -> coefficient``
    mapping or a sequence of such pairs: the entry point for terms that do not
    come from valid elements.  Its rule, which ``planted`` and ``coboundary``
    share: every item is checked, a zero coefficient's too, duplicates are
    merged, and ``_canonical`` reduces mod m, drops zeros and sorts."""
    _check_level(level)
    items = terms.items() if isinstance(terms, dict) else terms
    acc: dict[tuple[Node, int], int] = {}
    for (node, l), c in items:
        tree.check_node(node)
        _check_term(level, node, l)
        acc[(node, l)] = acc.get((node, l), 0) + ring.value_of(c)
    return _canonical(level, acc, ring, tree)


def _check_level(level: int) -> None:
    if level < 0:
        raise ValueError("level must be non-negative")


def _check_term(level: int, node: Node, l: int) -> None:
    """``(node, l)``, for a node the tree has checked, is a generator of the
    module at ``level``."""
    if node.level != level:
        raise ValueError(f"term node {node!r} is not at level {level}")
    if l <= level:
        raise ValueError(f"generator index {l} must exceed the level {level}")


def _canonical(level: int, acc: dict, ring: Ring, tree: Tree) -> ModuleElement:
    """The element of a ``(node, l) -> int`` map whose keys are trusted to be
    valid nodes at ``level`` with generator indices above it: coefficients
    reduced, zeros dropped, terms sorted in tuple order."""
    m = ring.modulus
    terms = [(n, l, v) for (n, l), c in acc.items() if (v := c % m)]
    terms.sort()
    return _new_tuple(ModuleElement, (level, tuple(terms), ring, tree))


def generator(node: Node, l: int, ring: Ring, tree: Tree) -> ModuleElement:
    """The basis element at ``(node, l)``."""
    return module_element(node.level, {(node, l): 1}, ring, tree)


def _add_terms(acc: dict, e: ModuleElement, sign: int) -> None:
    """Add ``sign * e`` into the unreduced ``(node, l) -> int`` map ``acc``."""
    for n, l, c in e.terms:
        acc[(n, l)] = acc.get((n, l), 0) + sign * c


def _add_hom(acc: dict, e: ModuleElement, i: int, sign: int, down: dict | None = None) -> None:
    """Add ``sign * hom(e)`` into ``acc``, for a level ``i`` the caller has
    checked lies below ``e.level``: the generator rule, once.

    ``down``, when given, is a ``node -> node|i`` map that a caller mapping
    many elements into level ``i`` shares: a node's restriction is read from
    it, and computed and stored there on the first use.
    """
    j = e.level
    restrict = e.tree._restrict
    for eta, l, c in e.terms:
        if down is None:
            nu = restrict(eta.address, i)
        else:
            nu = down.get(eta)
            if nu is None:
                nu = down[eta] = restrict(eta.address, i)
        c *= sign
        acc[(nu, l)] = acc.get((nu, l), 0) + c
        acc[(nu, j)] = acc.get((nu, j), 0) - c


def apply_hom(e: ModuleElement, i: int) -> ModuleElement:
    """Image of a level-j element under the connecting homomorphism into level ``i < j``."""
    if i >= e.level:
        raise ValueError(f"target level {i} must be below the source level {e.level}")
    if i < 0:
        raise ValueError("target level must be non-negative")
    acc: dict[tuple[Node, int], int] = {}
    _add_hom(acc, e, i, 1)
    return _canonical(i, acc, e.ring, e.tree)
