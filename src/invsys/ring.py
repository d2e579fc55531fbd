"""Exact arithmetic in the finite coefficient rings Z/m."""

from __future__ import annotations

from .schema import Value, at


class Ring(Value):
    """The ring of integers modulo ``modulus``, with ``modulus >= 2``."""

    __slots__ = _fields = ("modulus",)

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        object.__setattr__(self, "modulus", modulus)

    def _key(self) -> tuple:
        return (self.modulus,)

    def elem(self, value: int) -> RingElem:
        return RingElem(value % self.modulus, self)

    def value_of(self, coeff) -> int:
        """An integer representing ``coeff``: a ``RingElem`` of this ring or
        anything ``int`` accepts; a residue of another ring is refused."""
        if isinstance(coeff, RingElem):
            if coeff.ring != self:
                raise ValueError(f"mismatched rings: {self} vs {coeff.ring}")
            return coeff.value
        return int(coeff)

    @property
    def zero(self) -> RingElem:
        return self.elem(0)

    @property
    def one(self) -> RingElem:
        return self.elem(1)

    def elements(self) -> list[RingElem]:
        return [self.elem(v) for v in range(self.modulus)]

    def to_json(self) -> dict:
        return {"kind": "zmod", "m": self.modulus}

    @staticmethod
    def from_json(obj: dict, path: str = "$") -> Ring:
        with at(path):
            if not isinstance(obj, dict) or obj.get("kind") != "zmod":
                raise ValueError(f"unknown ring description: {obj!r}")
            modulus = obj["m"]
        with at(f"{path}.m"):
            return Ring(modulus)


class RingElem(Value):
    """A residue in ``[0, modulus)``; operands must share a ring."""

    __slots__ = _fields = ("value", "ring")

    def __init__(self, value: int, ring: Ring):
        if not 0 <= value < ring.modulus:
            raise ValueError(f"residue {value} out of range for {ring}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ring", ring)

    def _key(self) -> tuple:
        return (self.value, self.ring)

    def _check(self, other: RingElem) -> None:
        if not isinstance(other, RingElem):
            raise TypeError(f"cannot combine RingElem with {type(other).__name__}")
        if other.ring != self.ring:
            raise ValueError(f"mismatched rings: {self.ring} vs {other.ring}")

    def __add__(self, other: RingElem) -> RingElem:
        self._check(other)
        return self.ring.elem(self.value + other.value)

    def __sub__(self, other: RingElem) -> RingElem:
        self._check(other)
        return self.ring.elem(self.value - other.value)

    def __neg__(self) -> RingElem:
        return self.ring.elem(-self.value)

    def __mul__(self, other: RingElem) -> RingElem:
        self._check(other)
        return self.ring.elem(self.value * other.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.ring.modulus})"
