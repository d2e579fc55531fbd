"""Exact arithmetic in the finite coefficient rings Z/m."""

from __future__ import annotations

from dataclasses import dataclass

from .schema import at


@dataclass(frozen=True)
class Ring:
    """The ring of integers modulo ``modulus``, with ``modulus >= 2``."""

    modulus: int

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {self.modulus!r}")

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


@dataclass(frozen=True)
class RingElem:
    """A residue in ``[0, modulus)``; operands must share a ring."""

    value: int
    ring: Ring

    def __post_init__(self):
        if not 0 <= self.value < self.ring.modulus:
            raise ValueError(f"residue {self.value} out of range for {self.ring}")

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
