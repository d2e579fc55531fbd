"""The value types behave as the frozen dataclasses they replaced.

``Ring``, ``RingElem``, ``System``, the three trees, ``Coboundary`` and
``Planted`` are hand-written classes on ``schema.Value``.  The frozen
dataclasses below are their old definitions, kept as the reference for
equality, hashing and ``repr``: a twin is built from twins all the way down,
so a nested ``repr`` or hash is compared in full.
"""

import copy
import pickle
from dataclasses import dataclass, field, fields
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invsys import (
    Coboundary,
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    ModuleElement,
    Planted,
    Ring,
    RingElem,
    System,
)
from invsys.sampling import random_planted


@dataclass(frozen=True)
class OldRing:
    modulus: int


@dataclass(frozen=True)
class OldRingElem:
    value: int
    ring: OldRing

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.ring.modulus})"


@dataclass(frozen=True)
class OldSystem:
    ring: OldRing
    tree: object


@dataclass(frozen=True)
class OldDisjointBranchesTree:
    count: int


@dataclass(frozen=True)
class OldFiniteSupportTree:
    widths_table: tuple
    eventual_width: int


@dataclass(frozen=True)
class OldDecreasingSeqTree:
    pass


@dataclass(frozen=True)
class OldCoboundary:
    system: OldSystem
    entries: tuple


@dataclass(frozen=True)
class OldPlanted:
    system: OldSystem
    combo: tuple
    fact: OldCoboundary
    _entries: dict = field(default_factory=dict, init=False, compare=False, hash=False,
                           repr=False)
    _branch_nodes: dict = field(default_factory=dict, init=False, compare=False, hash=False,
                                repr=False)


TWINS = {Ring: OldRing, RingElem: OldRingElem, System: OldSystem,
         DisjointBranchesTree: OldDisjointBranchesTree, FiniteSupportTree: OldFiniteSupportTree,
         DecreasingSeqTree: OldDecreasingSeqTree, Coboundary: OldCoboundary, Planted: OldPlanted}
for new, twin in TWINS.items():
    twin.__qualname__ = new.__qualname__


def old(value):
    """The value rebuilt from frozen-dataclass twins; named tuples such as
    ``Node`` and ``ModuleElement`` stay named tuples of twins."""
    if isinstance(value, tuple):
        items = [old(item) for item in value]
        return type(value)(*items) if hasattr(value, "_fields") else tuple(items)
    twin = TWINS.get(type(value))
    if twin is None:
        return value
    return twin(*(old(getattr(value, f.name)) for f in fields(twin) if f.init))


TREES = (DisjointBranchesTree(2), DisjointBranchesTree(3), FiniteSupportTree((), 2),
         FiniteSupportTree((2, 3), 2), DecreasingSeqTree())
SYSTEMS = [System(Ring(m), tree) for m in (2, 3) for tree in TREES]


@st.composite
def values(draw):
    """A value of any of the eight classes, drawn from a small pool so that
    equal values built apart turn up."""
    system = draw(st.sampled_from(SYSTEMS))
    a = random_planted(system, Random(draw(st.integers(0, 3))))
    ring = system.ring
    return draw(st.sampled_from([ring, ring.elem(draw(st.integers(0, 2))), system,
                                 system.tree, a.fact, a]))


@given(values(), values())
def test_eq_hash_and_repr_match_the_dataclass(x, y):
    assert repr(x) == repr(old(x))
    assert hash(x) == hash(old(x))
    assert (x == y) == (old(x) == old(y))
    assert (x != y) == (old(x) != old(y))
    if x == y:
        assert hash(x) == hash(y)


@given(values())
def test_a_value_equals_its_copies_and_pickles(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
        assert type(twin) is type(x)


def test_reprs_read_as_before():
    system = System(Ring(3), FiniteSupportTree((2,), 2))
    assert repr(system) == ("System(ring=Ring(modulus=3), tree=FiniteSupportTree("
                            "widths_table=(2,), eventual_width=2))")
    assert repr(DecreasingSeqTree()) == "DecreasingSeqTree()"
    assert repr(Ring(5).elem(7)) == "2 (mod 5)"
    a = random_planted(System(Ring(2), DisjointBranchesTree(2)), Random(0))
    assert repr(a).startswith("Planted(system=System(ring=Ring(modulus=2), ")
    assert repr(a) == repr(old(a))


def test_only_instances_of_one_class_compare_equal():
    assert Ring(3) != DisjointBranchesTree(3)
    assert DisjointBranchesTree(3) != Ring(3)
    assert Ring(3) != (3,) and (3,) != Ring(3)
    assert hash(Ring(3)) == hash((3,)) == hash(DisjointBranchesTree(3))
    assert len({Ring(3), DisjointBranchesTree(3), (3,)}) == 3
    assert DecreasingSeqTree() == DecreasingSeqTree() != ()
    assert Ring(3).elem(1) != (1, Ring(3))


@pytest.mark.parametrize("value", [Ring(3), Ring(3).elem(1), SYSTEMS[3], *TREES,
                                   random_planted(SYSTEMS[3], Random(1)).fact,
                                   random_planted(SYSTEMS[3], Random(1))],
                         ids=lambda value: type(value).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(value):
    for name in [*(f.name for f in fields(TWINS[type(value)])), "kind", "new_name"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"^modulus must be an integer >= 2, got 1$"):
        Ring(1)
    with pytest.raises(ValueError, match=r"^residue 3 out of range for Ring\(modulus=3\)$"):
        RingElem(3, Ring(3))
    with pytest.raises(ValueError, match=r"^branch count must be a positive integer, got 0$"):
        DisjointBranchesTree(0)
    with pytest.raises(ValueError, match=r"^width table entries must be positive integers: \(0,\)$"):
        FiniteSupportTree((0,), 2)
    with pytest.raises(ValueError, match=r"^eventual width must be an integer >= 2, got 1$"):
        FiniteSupportTree((), 1)


def test_a_planted_element_with_a_filled_entry_table_is_the_same_value():
    system = System(Ring(3), FiniteSupportTree((2, 3), 2))
    rng = Random(4)
    a = random_planted(system, rng)
    while a.is_zero():
        a = random_planted(system, rng)
    fresh = Planted(system, a.combo, a.fact)
    key = hash(fresh), repr(fresh)
    for i in range(6):
        for j in range(i + 1, 7):
            a.eval_entry(i, j)
    assert a._entries and a._branch_nodes and not fresh._entries
    assert a == fresh and fresh == a
    assert (hash(a), repr(a)) == key
    assert len({a, fresh}) == 1
    assert a.fact._by_level == dict(a.fact.entries)
    assert a.fact == Coboundary(system, a.fact.entries)


def test_module_elements_of_equal_systems_combine():
    """Operands built from equal but distinct rings and trees still match."""
    ring, tree = Ring(3), DisjointBranchesTree(2)
    zero = ModuleElement.zero(0, Ring(3), DisjointBranchesTree(2))
    assert ModuleElement.zero(0, ring, tree) + zero == zero
