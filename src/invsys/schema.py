"""Input-schema errors, reported with the JSON path of the offending value.

The ``from_json`` constructors are the only readers of outside input.  Each
parses one JSON value at a known path and turns whatever a malformed value
raises there (a missing key, a value of the wrong type or out of range) into
a ``SchemaError`` naming that path, so the command line exits 2 without a
traceback.  Everything built from parsed input is valid, and the arithmetic
inside the package trusts it.

A value read once per file enters an ``at`` block, and so does each width
of a ``finite_support`` tree's table.  The items of an element file's three
lists (a module element's terms, a planted element's combo entries, a
coboundary's levels) are read in one ``try`` instead, which keeps the item's
index and a marker of the field being read, and builds the path string only
when a value fails, by ``fail_at``; the message is the one ``at`` gives at
that path.  A coboundary level still joins one path, its element's, to hand
it down to ``ModuleElement.from_json``.

``Value`` is the base of the package's immutable value types.
"""

from __future__ import annotations

from typing import NoReturn


class SchemaError(ValueError):
    """An input file failed validation; the message carries the JSON path."""


class at:
    """Report a malformed value met in the block as a ``SchemaError`` at ``path``.

    A missing key is reported at ``path.key``, so a block subscripts only the
    JSON object found at ``path``.  A ``SchemaError`` passes through unchanged.
    A class rather than a generator-based context manager, since each value
    read outside a list's items enters one of these blocks.
    """

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> bool:
        if kind is not None:
            _raise_at(self.path, exc)
        return False


def _raise_at(path: str, exc: BaseException) -> None:
    """Raise the ``SchemaError`` naming ``path`` for a malformed value's ``exc``;
    return for an ``exc`` that passes through, a ``SchemaError`` among them."""
    if isinstance(exc, SchemaError):
        return
    if isinstance(exc, KeyError):
        raise SchemaError(f"{path}.{exc.args[0]}: missing key") from exc
    if isinstance(exc, (TypeError, ValueError)):
        raise SchemaError(f"{path}: {exc}") from exc


def fail_at(path: str, exc: Exception) -> NoReturn:
    """Raise what leaving ``with at(path)`` raises for ``exc``: the ``SchemaError``
    naming ``path`` for a malformed value, ``exc`` itself otherwise.  Called
    from an ``except`` block, so the path is built only for a failing value."""
    _raise_at(path, exc)
    raise exc


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, a string or a boolean is refused,
    not truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(obj, path: str):
    """``obj`` if it is a JSON array; otherwise a ``SchemaError`` at ``path``."""
    if not isinstance(obj, (list, tuple)):
        raise SchemaError(f"{path}: expected a list, got {type(obj).__name__}")
    return obj


class Value:
    """Base of the immutable value types: rings and residues, trees, systems,
    coboundaries and planted elements.

    A subclass names its fields in ``_fields``, returns them as a tuple from
    ``_key`` and sets them in ``__init__`` with ``object.__setattr__``.  The
    contract is that of a frozen dataclass with those fields:

    * an instance equals only an instance of its own class with an equal key,
      so ``Ring(3) != DisjointBranchesTree(3)`` and ``Ring(3) != (3,)``;
    * the hash is ``hash(self._key())``, the dataclass's hash, so set and dict
      orders are unchanged;
    * the ``repr`` is ``Name(field=value, ...)`` over ``_fields``;
    * assigning or deleting an attribute raises ``AttributeError``;
    * ``copy`` and ``pickle`` rebuild a value from its key through ``__init__``.

    Attributes outside ``_fields``, such as a table filled lazily, take no
    part in any of these.  Each class writes ``_key`` out, rather than the
    base reading ``_fields`` with ``getattr``, since a ``getattr`` loop made
    ``Planted`` equality about four times slower.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return ()

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
