"""Input-schema errors, reported with the JSON path of the offending value.

The ``from_json`` constructors are the only readers of outside input.  Each
parses one JSON value at a known path and, through ``at``, turns whatever a
malformed value raises there (a missing key, a value of the wrong type or out
of range) into a ``SchemaError`` naming that path, so the command line exits 2
without a traceback.  Everything built from parsed input is valid, and the
arithmetic inside the package trusts it.

``Value`` is the base of the package's immutable value types.
"""

from __future__ import annotations


class SchemaError(ValueError):
    """An input file failed validation; the message carries the JSON path."""


class at:
    """Report a malformed value met in the block as a ``SchemaError`` at ``path``.

    A missing key is reported at ``path.key``, so a block subscripts only the
    JSON object found at ``path``.  A ``SchemaError`` passes through unchanged.
    A class rather than a generator-based context manager, since every parsed
    JSON value enters two or three of these blocks.
    """

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> bool:
        if kind is None or issubclass(kind, SchemaError):
            return False
        if issubclass(kind, KeyError):
            raise SchemaError(f"{self.path}.{exc.args[0]}: missing key") from exc
        if issubclass(kind, (TypeError, ValueError)):
            raise SchemaError(f"{self.path}: {exc}") from exc
        return False


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, a string or a boolean is refused,
    not truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(obj, path: str) -> list[tuple[str, object]]:
    """The items of a JSON array, each with its own path."""
    if not isinstance(obj, (list, tuple)):
        raise SchemaError(f"{path}: expected a list, got {type(obj).__name__}")
    return [(f"{path}[{n}]", item) for n, item in enumerate(obj)]


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
