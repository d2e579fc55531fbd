import json
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invsys import (
    COUNTABLY_INFINITE,
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Branch,
    NoBranchError,
    Node,
)
from invsys.sampling import sample_branch, sample_node


def test_restrict_decreasing_prefix():
    tree = DecreasingSeqTree()
    assert tree.restrict(Node(3, (5, 3, 1)), 1) == Node(1, (5,))


def test_restrict_disjoint_unique_path():
    tree = DisjointBranchesTree(2)
    assert tree.restrict(Node(4, 1), 2) == Node(2, 1)


def test_restrict_finite_support_domain_cut():
    tree = FiniteSupportTree((), 2)
    assert tree.restrict(Node(3, ((0, 1), (2, 1))), 2) == Node(2, ((0, 1),))


def test_restrict_level_errors():
    tree = DisjointBranchesTree(2)
    with pytest.raises(ValueError):
        tree.restrict(Node(2, 0), 2)
    with pytest.raises(ValueError):
        tree.restrict(Node(2, 0), 5)


def test_pro_level_within_disjoint():
    tree = DisjointBranchesTree(2)
    got = tree.pro_level_within(3, Node(1, 0), [Node(3, 0), Node(3, 1)])
    assert got == (Node(3, 0),)


def test_pro_level_within_decreasing():
    tree = DecreasingSeqTree()
    got = tree.pro_level_within(2, Node(1, (5,)), [Node(2, (5, 2)), Node(2, (4, 2))])
    assert got == (Node(2, (5, 2)),)


def test_pro_level_within_finite_support_extends_zero():
    tree = FiniteSupportTree((), 2)
    candidates = [Node(2, ()), Node(2, ((0, 1),)), Node(2, ((1, 1),))]
    got = tree.pro_level_within(2, Node(1, ()), candidates)
    # extending the zero map below level 1 means value 0 at position 0
    assert got == (Node(2, ()), Node(2, ((1, 1),)))


def test_pro_level_within_level_mismatch_errors():
    tree = DisjointBranchesTree(2)
    with pytest.raises(ValueError):
        tree.pro_level_within(3, Node(1, 0), [Node(2, 0)])


def test_branch_node_disjoint():
    tree = DisjointBranchesTree(3)
    assert tree.branch_node(tree.branch(2), 5) == Node(5, 2)


def test_branch_node_finite_support_below_support():
    tree = FiniteSupportTree((), 2)
    t = tree.branch(((1, 1),))
    assert tree.branch_node(t, 1) == Node(1, ())
    assert tree.branch_node(t, 3) == Node(3, ((1, 1),))


def test_branch_count_per_kind():
    assert DisjointBranchesTree(3).branch_count() == 3
    assert FiniteSupportTree((), 2).branch_count() == COUNTABLY_INFINITE
    assert DecreasingSeqTree().branch_count() == 0


def test_decreasing_tree_rejects_branches():
    tree = DecreasingSeqTree()
    no_branches = "^a decreasing-sequence tree has no branches$"
    with pytest.raises(NoBranchError, match=no_branches):
        tree.branch(())
    # a hand-built handle, since the tree hands out none
    with pytest.raises(NoBranchError, match=no_branches):
        tree.branch_node(Branch(()), 2)
    with pytest.raises(NoBranchError, match=no_branches):
        tree.presentation_level(Branch(()))
    with pytest.raises(NoBranchError, match="^no branch passes through a decreasing-sequence node$"):
        tree.branch_from_node(Node(2, (3, 1)))


FAMILIES = (DisjointBranchesTree, FiniteSupportTree, DecreasingSeqTree)


def stating(name):
    """The families whose own class states ``name``."""
    return [family for family in FAMILIES if name in vars(family)]


def test_families_state_only_their_address_rules():
    """Every family states its address rules, branch count, presentation
    level, draw and description; ``Tree`` derives the rest, the level check,
    the branch-node rule and the JSON readers among it."""
    for rule in ("_check_address", "_restrict", "branch", "branch_count",
                 "presentation_level", "draw_address", "to_json"):
        assert stating(rule) == list(FAMILIES), rule
    # Only the family with finitely many branches lists them, and only the
    # families with fields read a description.
    assert stating("branches") == [DisjointBranchesTree]
    assert stating("_from_json") == [DisjointBranchesTree, FiniteSupportTree]
    # finite_support sorts a JSON support map's pairs; the branchless family
    # overrides the branch-node rule, to raise.
    assert stating("_address_from_json") == [FiniteSupportTree]
    assert stating("branch_node") == [DecreasingSeqTree]
    for derived in ("check_node", "restrict", "pro_level_within", "separation_level",
                    "from_json", "node_from_json", "branch_from_json"):
        assert stating(derived) == [], derived


# The library rules refuse a boolean or a non-integer wherever an integer
# belongs, as the JSON readers do.
NON_INTEGERS = {
    "branch count a bool": lambda: DisjointBranchesTree(True),
    "width a bool": lambda: FiniteSupportTree((True,), 2),
    "branch index a bool": lambda: DisjointBranchesTree(3).branch(True),
    "node address a bool": lambda: DisjointBranchesTree(3).check_node(Node(0, True)),
    "support value a bool": lambda: FiniteSupportTree((3,), 2).branch(((0, True),)),
    "support position a float": lambda: FiniteSupportTree((3,), 2).branch(((0.5, 1),)),
    "sequence entry a bool": lambda: DecreasingSeqTree().check_node(Node(1, (True,))),
}


@pytest.mark.parametrize("case", NON_INTEGERS)
def test_library_rules_refuse_bools_and_non_integers(case):
    with pytest.raises(ValueError):
        NON_INTEGERS[case]()


def test_a_finite_family_lists_its_branches():
    assert DisjointBranchesTree(3).branches() == (Branch(0), Branch(1), Branch(2))


def test_finite_support_branch_takes_only_the_tuple_form():
    tree = FiniteSupportTree((), 2)
    assert tree.branch_from_json([[1, 1]]) == tree.branch(((1, 1),))
    with pytest.raises(ValueError, match=r"^branch address must be a tuple of pairs: \[\[1, 1\]\]$"):
        tree.branch([[1, 1]])


@pytest.mark.parametrize("read, message", [
    (lambda tree: tree.node_from_json({"level": 3, "address": [[-1, 1]]}),
     "node support position -1 out of range"),
    (lambda tree: tree.node_from_json({"level": 3, "address": [[1, 1], [-1, 1]]}),
     "node support position -1 out of range"),
    (lambda tree: tree.branch_from_json([[-2, 1]]), "branch support position -2 out of range"),
], ids=["node", "node, listed after a valid pair", "branch"])
def test_negative_support_position_is_out_of_range(read, message):
    """The range of a support position is checked before the order, so a
    negative position is named as out of range."""
    with pytest.raises(ValueError) as exc:
        read(FiniteSupportTree((), 2))
    assert str(exc.value) == message


def test_decreasing_well_founded_descent_is_finite():
    # all descent chains from a node are finite: children values sit below the last entry
    tree = DecreasingSeqTree()

    def longest_descent(node):
        last = node.address[-1] if node.address else 4
        best = 0
        for v in range(last):
            child = Node(node.level + 1, node.address + (v,))
            tree.check_node(child)
            best = max(best, 1 + longest_descent(child))
        return best

    for start in [Node(1, (3,)), Node(2, (4, 2)), Node(0, ())]:
        assert longest_descent(start) < 10


def test_decreasing_has_nodes_at_every_desk_level():
    tree = DecreasingSeqTree()
    for level in range(9):
        node = Node(level, tuple(range(level - 1, -1, -1)))
        tree.check_node(node)


def test_finite_support_branch_count_matches_support_enumeration():
    # distinct finite binary supports give distinct branches
    tree = FiniteSupportTree((), 2)
    seen = set()
    for positions in [(), (0,), (1,), (0, 1), (2,), (0, 2)]:
        seen.add(tree.branch(tuple((p, 1) for p in positions)))
    assert len(seen) == 6


def test_restriction_transitivity_randomized():
    rng = Random(7)
    trees = [DisjointBranchesTree(3), FiniteSupportTree((3,), 2), DecreasingSeqTree()]
    for tree in trees:
        for _ in range(60):
            j = rng.randint(2, 8)
            node = sample_node(tree, rng, j)
            jp = rng.randint(1, j - 1)
            i = rng.randint(0, jp - 1)
            assert tree.restrict(node, i) == tree.restrict(tree.restrict(node, jp), i)


def test_branch_coherence_randomized():
    rng = Random(11)
    for tree in [DisjointBranchesTree(3), FiniteSupportTree((), 2)]:
        for _ in range(40):
            t = sample_branch(tree, rng)
            for j in range(1, 9):
                for i in range(j):
                    assert tree.restrict(tree.branch_node(t, j), i) == tree.branch_node(t, i)


def test_node_validation():
    tree = FiniteSupportTree((2, 3), 2)
    tree.check_node(Node(2, ((1, 2),)))
    with pytest.raises(ValueError):
        tree.check_node(Node(2, ((1, 3),)))  # value beyond width
    with pytest.raises(ValueError):
        tree.check_node(Node(1, ((1, 1),)))  # position beyond level
    with pytest.raises(ValueError):
        tree.check_node(Node(2, ((0, 0),)))  # explicit zero is not canonical
    with pytest.raises(ValueError):
        DecreasingSeqTree().check_node(Node(2, (3, 3)))


def test_eventual_width_must_exceed_one():
    with pytest.raises(ValueError):
        FiniteSupportTree((), 1)


def test_separation_and_presentation_levels():
    tree = FiniteSupportTree((), 2)
    t1 = tree.branch(((1, 1),))
    t2 = tree.branch(((1, 1), (3, 1)))
    assert tree.separation_level(t1, t2) == 4
    assert tree.presentation_level(t2) == 4
    assert tree.presentation_level(tree.branch(())) == 0
    disj = DisjointBranchesTree(2)
    assert disj.separation_level(disj.branch(0), disj.branch(1)) == 0


SEPARATION_TREES = (
    DisjointBranchesTree(3),
    FiniteSupportTree((), 2),
    FiniteSupportTree((2, 3), 2),
    FiniteSupportTree((1, 4, 1), 3),
    FiniteSupportTree((3, 1, 2, 5), 2),
)
SEPARATION_CAP = 12  # above every position sample_branch draws


def brute_separation_level(tree, b1, b2):
    """The least level at which the branch nodes differ, and they differ at
    every level above it up to the cap; read off ``branch_node`` alone."""
    differ = [tree.branch_node(b1, i) != tree.branch_node(b2, i) for i in range(SEPARATION_CAP)]
    level = differ.index(True)
    assert all(differ[level:])
    return level


@given(tree=st.sampled_from(SEPARATION_TREES), rng=st.randoms(use_true_random=False),
       max_position=st.integers(0, 6))
def test_separation_level_is_the_first_level_where_branch_nodes_differ(tree, rng, max_position):
    b1 = sample_branch(tree, rng, max_position)
    b2 = sample_branch(tree, rng, max_position)
    if b1 == b2:
        with pytest.raises(ValueError, match="branches do not separate: equal presentations"):
            tree.separation_level(b1, b2)
        return
    level = tree.separation_level(b1, b2)
    assert level == tree.separation_level(b2, b1) == brute_separation_level(tree, b1, b2)
    assert level <= max(tree.presentation_level(b1), tree.presentation_level(b2))


def test_separation_level_refuses_equal_branches_and_branchless_trees():
    for tree in SEPARATION_TREES:
        b = sample_branch(tree, Random(7))
        with pytest.raises(ValueError, match="branches do not separate: equal presentations"):
            tree.separation_level(b, b)
    with pytest.raises(NoBranchError, match="a decreasing-sequence tree has no branches"):
        DecreasingSeqTree().separation_level(Branch(()), Branch((1,)))


def test_tree_json_round_trip(sys1, sys2, sysf):
    from invsys import Tree

    for system in (sys1, sys2, sysf):
        assert Tree.from_json(system.tree.to_json()) == system.tree
    node = Node(3, ((0, 1), (2, 1)))
    assert sysf.tree.node_from_json(node.to_json()) == node


# -- value semantics of nodes and branch handles ------------------------------
#
# Nodes and branches are named tuples; these are the frozen dataclasses they
# replaced, kept as the reference for hashing, repr and serialization.


def _old_address_to_json(address):
    if isinstance(address, int):
        return address
    return [list(p) if isinstance(p, tuple) else p for p in address]


@dataclass(frozen=True)
class OldNode:
    level: int
    address: int | tuple

    def to_json(self) -> dict:
        return {"level": self.level, "address": _old_address_to_json(self.address)}


@dataclass(frozen=True)
class OldBranch:
    presentation: int | tuple

    def to_json(self):
        return _old_address_to_json(self.presentation)


OldNode.__qualname__, OldBranch.__qualname__ = "Node", "Branch"

ALL_TREES = (DisjointBranchesTree(3), FiniteSupportTree((2, 3), 2), DecreasingSeqTree())
BRANCHED_TREES = ALL_TREES[:2]


@st.composite
def nodes(draw):
    tree = draw(st.sampled_from(ALL_TREES))
    return tree, sample_node(tree, draw(st.randoms(use_true_random=False)), draw(st.integers(0, 9)))


@st.composite
def branches(draw):
    tree = draw(st.sampled_from(BRANCHED_TREES))
    return tree, sample_branch(tree, draw(st.randoms(use_true_random=False)), max_position=6)


def rebuilt(tree, node):
    """An equal node built afresh from its serialized form: no shared objects."""
    return tree.node_from_json(json.loads(json.dumps(node.to_json())))


@given(nodes(), st.integers(0, 12))
def test_equal_nodes_hash_alike_and_merge_as_keys(case, l):
    tree, node = case
    twin = rebuilt(tree, node)
    assert twin == node and twin is not node
    assert hash(twin) == hash(node) == hash(OldNode(node.level, node.address))
    acc = {(node, l): 1}
    acc[(twin, l)] = acc.get((twin, l), 0) + 2
    assert acc == {(node, l): 3}
    assert len({node, twin}) == 1


@given(branches())
def test_equal_branches_hash_alike_and_merge_as_keys(case):
    tree, branch = case
    twin = tree.branch_from_json(json.loads(json.dumps(branch.to_json())))
    assert twin == branch and hash(twin) == hash(branch)
    assert hash(branch) == hash(OldBranch(branch.presentation))
    acc = {branch: 1}
    acc[twin] = acc.get(twin, 0) + 1
    assert acc == {branch: 2}


@given(nodes())
def test_node_repr_and_json_match_the_dataclass(case):
    tree, node = case
    old = OldNode(node.level, node.address)
    assert repr(node) == repr(old)
    assert json.dumps(node.to_json()) == json.dumps(old.to_json())
    # an error message that embeds the node reads as it did
    wrong = Node(-1 - node.level, node.address)
    with pytest.raises(ValueError) as caught:
        tree.check_node(wrong)
    assert str(caught.value) == f"negative level: {OldNode(wrong.level, wrong.address)!r}"


@given(branches(), st.integers(0, 9))
def test_branch_repr_and_json_match_the_dataclass(case, level):
    tree, branch = case
    old = OldBranch(branch.presentation)
    assert repr(branch) == repr(old)
    assert json.dumps(branch.to_json()) == json.dumps(old.to_json())
    node = tree.branch_node(branch, level)
    assert repr(node) == repr(OldNode(node.level, node.address))


def test_reprs_read_as_before():
    assert repr(Node(0, 1)) == "Node(level=0, address=1)"
    assert repr(Node(2, ((1, 2),))) == "Node(level=2, address=((1, 2),))"
    assert repr(Branch(((0, 1),))) == "Branch(presentation=((0, 1),))"
