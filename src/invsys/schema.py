"""Input-schema errors, reported with the JSON path of the offending value.

The ``from_json`` constructors are the only readers of outside input.  Each
parses one JSON value at a known path and, through ``at``, turns whatever a
malformed value raises there (a missing key, a value of the wrong type or out
of range) into a ``SchemaError`` naming that path, so the command line exits 2
without a traceback.  Everything built from parsed input is valid, and the
arithmetic inside the package trusts it.
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
