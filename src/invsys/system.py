"""A system pairs a coefficient ring with a level tree; file-level schemas."""

from __future__ import annotations

from dataclasses import dataclass

from .ring import Ring
from .schema import SchemaError, at
from .tree import Tree

__all__ = ["SchemaError", "System"]


@dataclass(frozen=True)
class System:
    ring: Ring
    tree: Tree

    def to_json(self) -> dict:
        return {"ring": self.ring.to_json(), "tree": self.tree.to_json()}

    @staticmethod
    def from_json(obj: dict) -> System:
        with at("$"):
            if not isinstance(obj, dict):
                raise ValueError(f"system description must be an object, got {type(obj).__name__}")
            ring, tree = obj["ring"], obj["tree"]
        return System(Ring.from_json(ring, "$.ring"), Tree.from_json(tree, "$.tree"))
