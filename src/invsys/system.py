"""A system pairs a coefficient ring with a level tree; file-level schemas."""

from __future__ import annotations

from .ring import Ring
from .schema import SchemaError, Value, at
from .tree import Tree

__all__ = ["SchemaError", "System"]


class System(Value):
    __slots__ = _fields = ("ring", "tree")

    def __init__(self, ring: Ring, tree: Tree):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "tree", tree)

    def _key(self) -> tuple:
        return (self.ring, self.tree)

    def to_json(self) -> dict:
        return {"ring": self.ring.to_json(), "tree": self.tree.to_json()}

    @staticmethod
    def from_json(obj: dict) -> System:
        with at("$"):
            if not isinstance(obj, dict):
                raise ValueError(f"system description must be an object, got {type(obj).__name__}")
            ring, tree = obj["ring"], obj["tree"]
        return System(Ring.from_json(ring, "$.ring"), Tree.from_json(tree, "$.tree"))
