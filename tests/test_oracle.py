import json
import re
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Node,
    Ring,
    System,
    TruncatedSystem,
    branch_generator,
    coboundary,
    generator,
    module_element,
    planted,
    truncate,
    universe_for,
    zero_element,
)
from invsys.coherent import _coboundary, _planted
from invsys.freemod import _canonical
from invsys.oracle import NodeTable
from invsys.sampling import BRANCH_POSITION_CAP, random_planted, sample_node


def test_truncated_dimensions_two_branches(sys1):
    both = [branch_generator(sys1, sys1.tree.branch(k)) for k in range(2)]
    trunc = truncate(sys1, 4, universe_for(sys1, both, 4))
    assert [trunc.dim(i) for i in range(4)] == [6, 4, 2, 0]


def test_minimal_height_valid(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 3, universe_for(sys1, [a], 3))
    assert trunc.table_coherent(trunc.primary_table(a))


def test_height_bounds_enforced(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    with pytest.raises(ValueError):
        truncate(sys1, 2, universe_for(sys1, [a], 3))
    with pytest.raises(ValueError):
        truncate(sys1, 9, {i: set() for i in range(9)})


@pytest.mark.parametrize("nodes", [16, 17])
def test_truncation_holds_at_most_16_nodes_per_level(nodes):
    system = System(Ring(3), DisjointBranchesTree(nodes))
    universe = {0: {Node(0, k) for k in range(nodes)}, 1: set(), 2: set()}
    if nodes == 16:
        assert truncate(system, 3, universe).dim(0) == 32
    else:
        with pytest.raises(ValueError, match="^level 0 universe exceeds 16 nodes$"):
            truncate(system, 3, universe)


def not_closed(node):
    return f"^{re.escape(f'universe is not closed under restriction: {node} at level 0')}$"


def test_non_closed_universe_rejected(sys1):
    universe = {0: set(), 1: {Node(1, 0)}, 2: set()}
    with pytest.raises(ValueError, match=not_closed("Node(level=1, address=0)")):
        truncate(sys1, 3, universe)


NOT_CLOSED = [
    # two nodes miss their restriction: the first in sorted order is named
    ({0: set(), 1: {Node(1, 1), Node(1, 0)}, 2: set()}, "Node(level=1, address=0)"),
    # a lower level's node is named before a higher level's
    ({0: set(), 1: {Node(1, 1)}, 2: {Node(2, 0)}}, "Node(level=1, address=1)"),
    # one node misses two restrictions: the lower level is named
    ({0: set(), 1: set(), 2: {Node(2, 0)}}, "Node(level=2, address=0)"),
]


@pytest.mark.parametrize("universe, node", NOT_CLOSED)
def test_non_closed_universe_names_the_first_missing_restriction(sys1, universe, node):
    with pytest.raises(ValueError, match=not_closed(node)):
        truncate(sys1, 3, universe)


MISFILED = (Node(1, (1,)), Node(1, "x"), Node(0, 1))


@pytest.mark.parametrize("bad", MISFILED)
def test_universe_nodes_are_checked_before_they_are_sorted(sys1, bad):
    universe = {0: {Node(0, 0), Node(0, 1)}, 1: {Node(1, 0), bad}, 2: set()}
    with pytest.raises(ValueError, match=r"^node address must be|filed under level 1$"):
        truncate(sys1, 3, universe)


def warm_table(system):
    """A node table that a truncation of both chains of ``sys1`` at height 3
    has filled: every node of that tree below level 3 is in it, restricted
    and validated."""
    table = NodeTable(system.tree)
    truncate(system, 3, {i: {Node(i, 0), Node(i, 1)} for i in range(3)}, table)
    assert set(table) == table.checked and len(table) == 6
    return table


@pytest.mark.parametrize("universe, node", NOT_CLOSED)
def test_shared_table_still_names_the_first_missing_restriction(sys1, universe, node):
    # the table holds every restriction, and closure is still checked on
    # the truncation's own rows
    with pytest.raises(ValueError, match=not_closed(node)):
        truncate(sys1, 3, universe, warm_table(sys1))


@pytest.mark.parametrize("bad", MISFILED)
def test_shared_table_still_refuses_a_misfiled_or_invalid_node(sys1, bad):
    # Node(0, 1) is in the table, validated, and still refused under level 1
    universe = {0: {Node(0, 0), Node(0, 1)}, 1: {Node(1, 0), bad}, 2: set()}
    with pytest.raises(ValueError, match=r"^node address must be|filed under level 1$"):
        truncate(sys1, 3, universe, warm_table(sys1))


@pytest.mark.parametrize("system, bad, message", [
    (System(Ring(3), FiniteSupportTree((), 2)), Node(2, ((0, 1), (1, 5))),
     r"node value 5 at position 1 must lie in [1, 2)"),
    (System(Ring(3), DecreasingSeqTree()), Node(2, (1, 3)),
     "sequence must be strictly decreasing: Node(level=2, address=(1, 3))"),
], ids=["finite_support", "decreasing_seq"])
def test_shared_table_refuses_an_invalid_node_in_every_truncation(system, bad, message):
    """An invalid node whose restrictions are valid, built past validation:
    ``universe_for`` puts its restrictions in the table, and every truncation
    that holds it still refuses it."""
    y = _canonical(2, {(bad, 3): 1}, system.ring, system.tree)
    a = _planted(system, {}, _coboundary(system, [(2, y)]))
    table = NodeTable(system.tree)
    for _ in range(3):
        universe = universe_for(system, [a], 4, table)
        assert bad in universe[2] and len(table[bad]) == 2
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            truncate(system, 4, universe, table)
    assert bad not in table.checked


def test_hom_matrices_compose(sys1, sysf):
    rng = Random(3)
    for system in (sys1, sysf):
        elems = [random_planted(system, rng, level_cap=3, index_cap=5) for _ in range(5)]
        trunc = truncate(system, 6, universe_for(system, elems, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(j + 1, 6):
                    composed = matmul(trunc.hom_matrix(i, j), trunc.hom_matrix(j, k), trunc.modulus)
                    assert trunc.hom_matrix(i, k) == composed


def test_matrix_path_reproduces_symbolic_composition_example(sys1):
    # stepping the generator at (b0@2, 3) down two levels matches the direct map
    # and the symbolic result, at truncation height 6
    from invsys import apply_hom, generator

    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 6, universe_for(sys1, [a], 6))
    m = trunc.modulus
    x = generator(Node(2, 0), 3, sys1.ring, sys1.tree)
    vec = dense(trunc, trunc.vectorize(x), 2)
    stepped = matvec(trunc.hom_matrix(0, 1), matvec(trunc.hom_matrix(1, 2), vec, m), m)
    direct = matvec(trunc.hom_matrix(0, 2), vec, m)
    assert stepped == direct
    symbolic = dense(trunc, trunc.vectorize(apply_hom(apply_hom(x, 1), 0)), 0)
    assert stepped == symbolic


def test_verify_evaluation_random(sys1, sys3, sysf):
    rng = Random(5)
    for system in (sys1, sys3, sysf):
        for _ in range(10):
            a = random_planted(system, rng, level_cap=3, index_cap=5)
            trunc = truncate(system, 6, universe_for(system, [a], 6))
            table = trunc.primary_table(a)
            assert trunc.table_coherent(table)
            assert trunc.agreement(a, table)


def test_fault_injected_table_fails(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = raised(trunc, trunc.primary_table(a), 0, 2)
    assert not trunc.table_coherent(table)


def test_zero_table_coherent(sys1):
    z = zero_element(sys1)
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    assert trunc.table_coherent(trunc.primary_table(z))


def test_solve_on_branch_generator_uses_top_entries(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = trunc.solve_coboundary(trunc.primary_table(a))
    for i in range(3):
        expected = trunc.vectorize(
            module_element(i, {(Node(i, 0), 3): 1}, sys1.ring, sys1.tree)
        )
        assert {r: v for r, v in y.items() if trunc._level[r] == i} == expected
    assert trunc.dim(3) == 0 and len(y) == 3


def test_solve_zero_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = trunc.solve_coboundary(trunc.primary_table(zero_element(sys1)))
    assert y == {}


def test_solve_recovers_planted_coboundary_up_to_shift(sys1):
    y0 = module_element(0, {(Node(0, 0), 1): 1}, sys1.ring, sys1.tree)
    a = planted(sys1, {}, coboundary(sys1, {0: y0}))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    y = levels(trunc, trunc.solve_coboundary(table))
    m = trunc.modulus
    for (i, j), entry in blocks(trunc, table).items():
        image = matvec(trunc.hom_matrix(i, j), y[j], m)
        assert entry == [(p - q) % m for p, q in zip(y[i], image)]


def test_solve_rejects_incoherent_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = raised(trunc, trunc.primary_table(a), 0, 3)
    with pytest.raises(ValueError):
        trunc.solve_coboundary(table)


def test_truncate_refuses_restrictions_that_do_not_compose(monkeypatch):
    """A restriction that sends a level-3 node to level 1 off the path
    through its level-2 node breaks ``hom(1, 2) hom(2, 3) = hom(1, 3)``, and
    ``truncate`` refuses the maps it built."""
    system = System(Ring(3), DecreasingSeqTree())
    real = DecreasingSeqTree._restrict

    def twisted(self, address, i):
        if len(address) == 3 and i == 1:
            return Node(1, (address[0] - 1,))
        return real(self, address, i)

    universe = {0: {()}, 1: {(1,), (2,), (3,)}, 2: {(2, 1), (3, 2)},
                3: {(2, 1, 0), (3, 2, 1)}, 4: {(3, 2, 1, 0)}}
    universe = {i: {Node(i, address) for address in level} for i, level in universe.items()}
    assert truncate(system, 5, universe).composition_fault() is None
    monkeypatch.setattr(DecreasingSeqTree, "_restrict", twisted)
    with pytest.raises(AssertionError, match=r"^hom matrices fail to compose at \(1, 2, 3\)$"):
        truncate(system, 5, universe)


def test_universe_rejects_out_of_range_data(sys1):
    y5 = module_element(0, {(Node(0, 0), 7): 1}, sys1.ring, sys1.tree)
    a = planted(sys1, {}, coboundary(sys1, {0: y5}))
    with pytest.raises(ValueError):
        universe_for(sys1, [a], 4)


def test_oracle_agreement_randomized(sys1, sys3, sysf):
    rng = Random(7)
    for system in (sys1, sys3, sysf):
        for _ in range(15):
            a = random_planted(system, rng, level_cap=3, index_cap=5)
            trunc = truncate(system, 6, universe_for(system, [a], 6))
            table = trunc.primary_table(a)
            assert trunc.agreement(a, table)
            assert trunc.table_coherent(table)
            trunc.solve_coboundary(table)


def test_agreement_reads_the_given_primary_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = raised(trunc, trunc.primary_table(a), 0, 3)
    assert trunc.agreement(a, trunc.primary_table(a)) and not trunc.agreement(a, table)
    assert trunc.agreement_fault(a, table) == (0, 3)


@pytest.mark.parametrize("modulus", [2 ** 31 - 1, 2 ** 40 + 15])
def test_oracle_verify_exact_for_large_moduli(tmp_path, capsys, modulus):
    from invsys import DisjointBranchesTree, Ring, System
    from invsys.cli import main

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(System(Ring(modulus), DisjointBranchesTree(2)).to_json()))
    code = main(["--system", str(path), "--cmd", "oracle-verify", "--horizon", "6", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == []
    assert code == 0


@pytest.mark.parametrize("modulus", [3, 2 ** 40 + 15])
def test_hom_matrix_views_are_read_only(modulus):
    """``hom_matrix`` hands out a fresh list of rows, so writing into a block
    changes neither the truncation nor any block read later."""
    from invsys import DisjointBranchesTree, Ring, System

    system = System(Ring(modulus), DisjointBranchesTree(2))
    a = branch_generator(system, system.tree.branch(0))
    trunc = truncate(system, 5, universe_for(system, [a], 5))
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    before = {pair: trunc.hom_matrix(*pair) for pair in pairs}
    rows = trunc._down
    block = trunc.hom_matrix(0, 2)
    block[0][0] += 1
    block.append(block[0])
    assert trunc._down is rows
    assert all(trunc.hom_matrix(*pair) == before[pair] for pair in pairs)


# -- the per-triple reference -------------------------------------------------
#
# The oracle's checks read every triple law off the stored node rows.  These are the dense loops they replaced, one comparison per triple or
# pair over ``hom_matrix`` blocks as plain lists, in the same lexicographic
# order; the checks must give the same verdict and name the same first
# failure on faulted tables, hom maps and solutions.

REFERENCE_SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
    System(Ring(2 ** 40 + 15), FiniteSupportTree((2,), 2)),  # exact beyond any machine word
)
REFERENCE_IDS = [f"{s.tree.kind}-m{s.ring.modulus}" for s in REFERENCE_SYSTEMS]


def pairs(height):
    return [(i, j) for i in range(height) for j in range(i + 1, height)]


def triples(height):
    return [(i, j, k) for i, j in pairs(height) for k in range(j + 1, height)]


def matvec(a, x, m):
    """The dense product ``a @ x`` of a list of rows and a list, reduced mod m."""
    return [sum(p * q for p, q in zip(row, x)) % m for row in a]


def matmul(a, b, m):
    """The dense product ``a @ b`` of two lists of rows, reduced mod m."""
    columns = list(zip(*b))
    return [[sum(p * q for p, q in zip(row, col)) % m for col in columns] for row in a]


def dense(trunc, vec, level):
    """Level ``level``'s part of a sparse vector, as a list over its coordinates."""
    return [vec.get(r, 0) for r in trunc._rows(level)]


def blocks(trunc, t):
    """The ``{(i, j): entry}`` dict of a table, each entry a dense list, as the
    references read it."""
    return {(i, j): [t.get((r, j), 0) for r in trunc._rows(i)] for i, j in pairs(trunc.height)}


def levels(trunc, y):
    """The per-level dense lists of a stacked coboundary sequence."""
    return [dense(trunc, y, i) for i in range(trunc.height)]


def reference_table_coherent(trunc, table):
    m = trunc.modulus
    for i, j, k in triples(trunc.height):
        lhs = [x % m for x in table[(i, k)]]
        image = matvec(trunc.hom_matrix(i, j), table[(j, k)], m)
        if lhs != [(p + q) % m for p, q in zip(table[(i, j)], image)]:
            return False
    return True


def reference_composition_fault(trunc):
    m = trunc.modulus
    for i, j, k in triples(trunc.height):
        if trunc.hom_matrix(i, k) != matmul(trunc.hom_matrix(i, j), trunc.hom_matrix(j, k), m):
            return i, j, k
    return None


def reference_coboundary_fault(trunc, table, y):
    m = trunc.modulus
    for i, j in pairs(trunc.height):
        image = matvec(trunc.hom_matrix(i, j), y[j], m)
        if [x % m for x in table[(i, j)]] != [(p - q) % m for p, q in zip(y[i], image)]:
            return i, j
    return None


def reference_hom(trunc):
    """Every block ``hom(i, j)`` as a dense list of rows, placed by the generator
    rule from tree restriction and the coordinate layout alone: column
    ``(eta, l)`` of level ``j`` holds ``1`` at ``(eta|i, l)`` and ``m - 1`` at
    ``(eta|i, j)``."""
    tree, m, o, h = trunc.system.tree, trunc.modulus, trunc._offsets, trunc.height
    hom = {(i, j): [[0] * trunc.dim(j) for _ in trunc._rows(i)] for i, j in pairs(h)}
    for j in range(h):
        for eta in trunc._row0[j]:
            for l in range(j + 1, h):
                col = trunc._position(j, eta, l) - o[j]
                for i in range(j):
                    nu = tree.restrict(eta, i)
                    hom[i, j][trunc._position(i, nu, l) - o[i]][col] = 1
                    hom[i, j][trunc._position(i, nu, j) - o[i]][col] = m - 1
    return hom


def with_bump(trunc, vec, i, m, rng, column=None):
    """A copy of the sparse ``vec`` with one coordinate of level ``i`` (in
    ``column``, for a table) moved by a nonzero residue."""
    r = rng.choice(trunc._rows(i))
    key = r if column is None else (r, column)
    out = dict(vec)
    out[key] = (vec.get(key, 0) + rng.randrange(1, m)) % m
    if not out[key]:
        del out[key]
    return out


def raised(trunc, table, i, j):
    """A copy of ``table`` with every coordinate of entry ``(i, j)`` raised by 1."""
    m, out = trunc.modulus, dict(table)
    for r in trunc._rows(i):
        out[r, j] = (table.get((r, j), 0) + 1) % m
    return out


def row_faultable(trunc, i, j):
    """Whether a node row fault fits the block ``hom(i, j)``: level ``j`` owns
    a column and level ``i`` has a second node to point at."""
    return trunc.dim(j) > 0 and len(trunc._row0[i]) > 1


def with_row_fault(trunc, i, j, rng):
    """``trunc`` with one stored node row faulted in the block ``hom(i, j)``:
    a level-``j`` node's base at level ``i`` points at another node's base at
    that level, which moves the ``+1`` and the ``m - 1`` of all its columns
    together."""
    level = [list(row) for row in trunc._down[j]]
    row = rng.choice(level)
    row[i] = rng.choice([b for b in trunc._row0[i].values() if b != row[i]])
    down = list(trunc._down)
    down[j] = tuple(tuple(row) for row in level)
    return TruncatedSystem(trunc.system, trunc.height, trunc._offsets, trunc._row0,
                           trunc._level, tuple(down))


def top_solution(trunc, table):
    top = trunc.height - 1
    return {r: v for (r, j), v in table.items() if j == top}


def assert_fault_matches_reference(trunc, table, y):
    assert trunc.coboundary_fault(table, y) == reference_coboundary_fault(
        trunc, blocks(trunc, table), levels(trunc, y))


def assert_checks_match_reference(trunc, table, y):
    """Both checks against their references.  ``table_coherent`` is compared
    only on systems that satisfy the composition law, the systems ``truncate``
    returns: it decides coherence as equality with the coboundary table of the
    top column, which is coherence only under that law."""
    assert trunc.table_coherent(table) == reference_table_coherent(trunc, blocks(trunc, table))
    assert_fault_matches_reference(trunc, table, y)


def reference_case(system, height, rng):
    """A sampled element of the shape ``oracle-verify`` samples, its truncation
    and its primary table."""
    a = random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
    trunc = truncate(system, height, universe_for(system, [a], height))
    return a, trunc, trunc.primary_table(a)


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(REFERENCE_SYSTEMS), rng=st.randoms(use_true_random=False),
       height=st.integers(3, 8), data=st.data())
def test_block_checks_match_reference_on_faults(system, rng, height, data):
    _, trunc, table = reference_case(system, height, rng)
    m = trunc.modulus
    y = top_solution(trunc, table)
    assert trunc.composition_fault() is None
    assert_checks_match_reference(trunc, table, y)
    # an arbitrary coboundary table, nonzero at every coordinate of its vector
    v = {c: rng.randrange(1, m) for c in range(len(trunc._level))}
    cob = trunc._coboundary_table(v)
    assert trunc.table_coherent(cob) and trunc.coboundary_fault(cob, v) is None
    assert_checks_match_reference(trunc, cob, v)

    filled = [(i, j) for i, j in pairs(height) if trunc.dim(i)]
    if not filled:
        return
    faults = data.draw(st.lists(st.sampled_from(filled), max_size=3, unique=True),
                       label="faulted pairs")
    faulted = table
    faulted_cob = cob
    for i, j in faults:
        faulted = with_bump(trunc, faulted, i, m, rng, j)
        faulted_cob = with_bump(trunc, faulted_cob, i, m, rng, j)
    assert_checks_match_reference(trunc, faulted, y)
    assert_checks_match_reference(trunc, faulted_cob, v)
    moved = y
    for i, _ in faults:
        moved = with_bump(trunc, moved, i, m, rng)
    assert_checks_match_reference(trunc, table, moved)

    blocks = [(i, j) for i, j in filled if row_faultable(trunc, i, j)]
    if blocks:
        wrong = trunc
        for i, j in data.draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=3,
                                       unique=True), label="faulted hom blocks"):
            wrong = with_row_fault(wrong, i, j, rng)
        assert wrong.composition_fault() == reference_composition_fault(wrong)
        assert_fault_matches_reference(wrong, table, y)


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("height", range(3, 9))
def test_block_checks_match_reference_at_every_pair(system, height):
    """One fault at every pair: in the table, in ``y`` and, where level ``i``
    has two nodes, in a node row of the hom block, the first and last row
    blocks and the last middle level included."""
    rng = Random(f"every-pair/{system.tree.kind}/{height}")
    _, trunc, table = reference_case(system, height, rng)
    m = trunc.modulus
    y = top_solution(trunc, table)
    assert trunc.table_coherent(table) and trunc.coboundary_fault(table, y) is None
    for i, j in pairs(height):
        if not trunc.dim(i):
            continue
        faulted = with_bump(trunc, table, i, m, rng, j)
        assert_checks_match_reference(trunc, faulted, y)
        assert trunc.coboundary_fault(faulted, y) is not None
        moved = with_bump(trunc, y, i, m, rng)
        assert_checks_match_reference(trunc, table, moved)
        if row_faultable(trunc, i, j):
            wrong = with_row_fault(trunc, i, j, rng)
            assert wrong.composition_fault() == reference_composition_fault(wrong)
            # hom(i, j) is the left side of every triple (i, j', j)
            assert wrong.composition_fault() is not None or j == i + 1


def fault_universe(system, height):
    """A fixed universe with two sampled nodes per level and their
    restrictions, so that most levels have a second node for a row fault to
    point at."""
    rng = Random(f"row-faults/{system.tree.kind}/{system.ring.modulus}/{height}")
    tree = system.tree
    universe = {i: set() for i in range(height)}
    for level in range(height):
        for _ in range(2):
            node = sample_node(tree, rng, level)
            universe[level].add(node)
            for i in range(level):
                universe[i].add(tree.restrict(node, i))
    return universe


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("height", range(3, 9))
def test_row_faults_match_reference_at_every_pair(system, height):
    """A node row fault at every pair it fits is named exactly as the dense
    reference names it, and a fault below a middle level is always caught."""
    rng = Random(f"row-fault-pairs/{system.tree.kind}/{height}")
    trunc = truncate(system, height, fault_universe(system, height))
    assert trunc.composition_fault() is None
    faulted = 0
    for i, j in pairs(height):
        if row_faultable(trunc, i, j):
            wrong = with_row_fault(trunc, i, j, rng)
            fault = wrong.composition_fault()
            assert fault == reference_composition_fault(wrong)
            # the faulted row disagrees with the row of its restriction to
            # every level strictly between i and j
            assert fault is not None or j == i + 1
            faulted += 1
    assert faulted >= min(height - 3, 1)


@pytest.mark.parametrize("system, stored", zip(REFERENCE_SYSTEMS, (66, 131, 152, 112)),
                         ids=REFERENCE_IDS)
def test_truncation_stores_one_row_per_node(system, stored):
    """A node of level ``j`` stores ``j`` bases, one per lower level, and no
    column is stored: ``sum_j j * |nodes at level j|`` integers, where one
    row pair per column took ``2 * sum_j j * dim(j)``."""
    height = 8
    universe = fault_universe(system, height)
    trunc = truncate(system, height, universe)
    assert sum(len(row) for rows in trunc._down for row in rows) == stored
    assert stored == sum(j * len(universe[j]) for j in range(height))
    assert stored < 2 * sum(j * trunc.dim(j) for j in range(height))


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("height", range(3, 9))
def test_agreement_proves_coherence_and_the_solve(system, height):
    """What lets ``oracle-verify`` stop at agreement: the independent table is
    the coboundary table of the presentation vector, so a primary table that
    equals it is coherent, and the solve returns that vector exactly."""
    rng = Random(f"one-equation/{system.tree.kind}/{system.ring.modulus}/{height}")
    for _ in range(10):
        a, trunc, primary = reference_case(system, height, rng)
        v = trunc.presentation_vector(a)
        assert trunc.independent_table(a) == trunc._coboundary_table(v)
        assert trunc.agreement(a, primary)
        assert trunc.table_coherent(primary)
        assert trunc.solve_coboundary(primary) == v


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_agreement_fault_names_the_one_changed_pair(system):
    """One coordinate of one entry flipped, raised by m, or present with the
    value 0, at every pair: agreement fails at exactly that pair.  The last two
    are equal mod m, so only an exact comparison catches them."""
    rng = Random(f"agreement-fault/{system.tree.kind}/{system.ring.modulus}")
    for height in range(3, 9):
        a, trunc, primary = reference_case(system, height, rng)
        m = trunc.modulus
        for i, j in pairs(height):
            if not trunc.dim(i):
                continue
            key = (rng.choice(trunc._rows(i)), j)
            flipped = {**primary, key: (primary.get(key, 0) + 1) % m}
            unreduced = {**primary, key: primary.get(key, 0) + m}
            zeroed = {**primary, key: 0}
            for table in (flipped, unreduced, zeroed):
                assert not trunc.agreement(a, table)
                assert trunc.agreement_fault(a, table) == (i, j)
            assert trunc.coboundary_fault(unreduced, trunc.presentation_vector(a)) is None


def path_of_ones(level):
    """The node at ``level`` of the ``finite_support`` path ``t(p) = 1`` at
    every position ``p``, which no finitely supported branch presents."""
    return Node(level, tuple((p, 1) for p in range(level)))


FINITE_SUPPORT_SYSTEMS = [s for s in REFERENCE_SYSTEMS if s.tree.kind == "finite_support"]


@pytest.mark.parametrize("system", FINITE_SUPPORT_SYSTEMS,
                         ids=[f"m{s.ring.modulus}" for s in FINITE_SUPPORT_SYSTEMS])
def test_path_of_ones_is_no_presented_family(system):
    """``card`` counts classes of presented families.  Every width here is at
    least 2, so ``(i, j) -> (t(i), j)`` for the path of ones is a coherent
    family.  Sampled branches present below level ``P`` and sampled ``y`` lies
    below it, so every ``s(P+1)`` is 0 at position ``P`` where ``t(P+1)`` is 1,
    and the tables differ at ``(P+1, P+2)``.  At this finite height the path's
    table is still a coboundary, as every coherent table is."""
    P = BRANCH_POSITION_CAP
    height = P + 3
    rng = Random(f"path-of-ones/{system.ring.modulus}")
    for _ in range(20):
        a = random_planted(system, rng, level_cap=P, index_cap=height - 1)
        assert all(system.tree.presentation_level(b) <= P for b, _ in a.combo)
        assert all(level < P for level, _ in a.fact.entries)
        universe = universe_for(system, [a], height)
        for i in range(height):
            universe[i].add(path_of_ones(i))
        trunc = truncate(system, height, universe)
        path = {(trunc._row0[i][path_of_ones(i)] + j, j): 1 for i, j in pairs(height)}
        assert trunc.table_coherent(path)
        assert trunc.coboundary_fault(path, top_solution(trunc, path)) is None
        primary = trunc.primary_table(a)
        key = (trunc._row0[P + 1][path_of_ones(P + 1)] + P + 2, P + 2)
        assert path[key] == 1 and key not in primary


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_tables_are_zero_outside_their_blocks(system):
    """Both tables hold only nonzero residues, and only in the blocks
    ``i < j``; the solve returns the top column."""
    rng = Random(f"layout/{system.tree.kind}/{system.ring.modulus}")
    for height in (3, 6, 8):
        for _ in range(4):
            elem = random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
            trunc = truncate(system, height, universe_for(system, [elem], height))
            m = trunc.modulus
            for t in (trunc.primary_table(elem), trunc.independent_table(elem)):
                assert all(trunc._level[r] < j < height and 0 < v < m for (r, j), v in t.items())
            t = trunc.primary_table(elem)
            assert trunc.solve_coboundary(t) == top_solution(trunc, t)


# -- the coordinate layout -------------------------------------------------------


def layout_case(system, height):
    """A truncation over two random elements' universe, with its nodes per
    level in sort order."""
    rng = Random(f"rows/{system.tree.kind}/{system.ring.modulus}/{height}")
    elems = [random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
             for _ in range(2)]
    universe = universe_for(system, elems, height)
    nodes = [sorted(universe[i], key=system.tree.node_sort_key) for i in range(height)]
    return truncate(system, height, universe), nodes


@pytest.mark.parametrize("height", range(3, 9))
@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_generators_run_node_by_node_then_by_index(system, height):
    """Level ``i`` owns the coordinates ``o[i]:o[i+1]`` and lists its generators
    there node by node in sort order, ``l = i+1 .. height-1`` within a node, and
    a generator vectorizes to its unit vector."""
    trunc, nodes = layout_case(system, height)
    for i in range(height):
        gens = [(node, l) for node in nodes[i] for l in range(i + 1, height)]
        assert [trunc._position(i, node, l) for node, l in gens] == list(trunc._rows(i))
        assert [trunc._level[c] for c in trunc._rows(i)] == [i] * trunc.dim(i)
        for c, (node, l) in zip(trunc._rows(i), gens):
            assert trunc.vectorize(generator(node, l, system.ring, system.tree)) == {c: 1}
    assert len(trunc._level) == trunc._offsets[-1]
    assert [len(rows) for rows in trunc._down] == [len(level) for level in nodes]


@pytest.mark.parametrize("height", range(3, 9))
@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_hom_columns_follow_the_generator_rule(system, height):
    """Every block ``hom_matrix(i, j)`` equals the dense build from the
    generator rule: column ``(eta, l)`` of level ``j`` holds exactly ``1`` at
    ``(eta|i, l)`` and ``m - 1`` at ``(eta|i, j)``.  Each node stores one row,
    the bases of its restrictions to the lower levels, and no column is
    stored."""
    trunc, nodes = layout_case(system, height)
    want = reference_hom(trunc)
    assert {pair: trunc.hom_matrix(*pair) for pair in pairs(height)} == want
    tree = system.tree
    for j in range(height):
        assert trunc._down[j] == tuple(
            tuple(trunc._row0[i][tree.restrict(eta, i)] for i in range(j)) for eta in nodes[j])


def test_truncated_system_fields_are_set_once(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    assert trunc._fields == ("system", "height", "_offsets", "_row0", "_level", "_down")
    for name in trunc._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(trunc, name, getattr(trunc, name))


# -- the scattered primary table -----------------------------------------------


def reference_universe(system, elements, height):
    """Every node an element touches below ``height``, with all its restrictions."""
    tree = system.tree
    levels = {i: set() for i in range(height)}
    touched = [tree.branch_node(b, i) for e in elements for b, _ in e.combo for i in range(height)]
    touched += [node for e in elements for _, y in e.fact.entries for node, _, _ in y.terms]
    for node in touched:
        levels[node.level].add(node)
        for lower in range(node.level):
            levels[lower].add(tree.restrict(node, lower))
    return levels


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_primary_table_matches_entrywise_vectors(system):
    """The scattered table against ``vectorize`` run entry by entry, and the
    early-returning ``universe_for`` against the plain restriction closure."""
    rng = Random(f"primary/{system.tree.kind}/{system.ring.modulus}")
    for height in (3, 6, 8):
        for _ in range(8):
            elems = [random_planted(system, rng, level_cap=min(3, height - 2),
                                    index_cap=height - 1) for _ in range(2)]
            universe = universe_for(system, elems, height)
            assert universe == reference_universe(system, elems, height)
            trunc = truncate(system, height, universe)
            for elem in elems:
                table = trunc.primary_table(elem)
                for i, j in pairs(height):
                    entry = {r: v for (r, k), v in table.items() if k == j and trunc._level[r] == i}
                    assert entry == trunc.vectorize(elem.eval_entry(i, j))
                assert len(table) == sum(len(elem.eval_entry(i, j).terms) for i, j in pairs(height))


def levelwise_universe(system, elements, height):
    """``universe_for`` as a walk over every level of each branch, top down."""
    tree = system.tree
    levels = {i: set() for i in range(height)}

    def add(node):
        if node in levels[node.level]:
            return
        levels[node.level].add(node)
        for lower in range(node.level):
            levels[lower].add(tree._restrict(node.address, lower))

    for elem in elements:
        for branch, _ in elem.combo:
            for i in reversed(range(height)):
                add(tree.branch_node(branch, i))
        for _, y_elem in elem.fact.entries:
            for node, _, _ in y_elem.terms:
                add(node)
    return levels


@pytest.mark.parametrize("height", range(3, 9))
@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_branch_top_node_supplies_its_lower_nodes(system, height):
    """Adding each branch's top node alone gives the universe that adding its
    node at every level gives."""
    rng = Random(f"top-node/{system.tree.kind}/{system.ring.modulus}/{height}")
    for _ in range(6):
        elems = [random_planted(system, rng, level_cap=min(3, height - 2),
                                index_cap=height - 1) for _ in range(2)]
        assert universe_for(system, elems, height) == levelwise_universe(system, elems, height)


def test_primary_table_rejects_entries_outside_the_truncation(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    other = branch_generator(sys1, sys1.tree.branch(1))
    with pytest.raises(ValueError, match="outside the node universe"):
        trunc.primary_table(other)
    y = module_element(1, {(Node(1, 0), 6): 1}, sys1.ring, sys1.tree)
    tall = planted(sys1, {}, coboundary(sys1, {1: y}))
    with pytest.raises(ValueError, match="generator index 6 lies outside the truncation"):
        trunc.primary_table(tall)


# -- the scattered independent table ---------------------------------------------


def reference_independent_table(trunc, a):
    """The independent table pair by pair, as dense lists: ``y_i - hom(i, j) @ y_j``
    from ``vectorize`` and ``hom_matrix``, each branch's coefficient added
    column by column."""
    h, m = trunc.height, trunc.modulus
    tree, o = trunc.system.tree, trunc._offsets
    y = [dense(trunc, trunc.vectorize(a.fact.y(i)), i) for i in range(h)]
    table = {(i, j): [p - q for p, q in zip(y[i], matvec(trunc.hom_matrix(i, j), y[j], m))]
             for i, j in pairs(h)}
    for i in range(h - 1):
        for branch, coeff in a.combo:
            node = tree.branch_node(branch, i)
            for j in range(i + 1, h):
                table[(i, j)][trunc._position(i, node, j) - o[i]] += coeff
    return {pair: [x % m for x in vec] for pair, vec in table.items()}


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_independent_table_matches_levelwise_reference(system):
    rng = Random(f"independent/{system.tree.kind}/{system.ring.modulus}")
    for height in range(3, 9):
        for _ in range(8):
            elems = [random_planted(system, rng, level_cap=min(3, height - 2),
                                    index_cap=height - 1) for _ in range(2)]
            trunc = truncate(system, height, universe_for(system, elems, height))
            for elem in elems:
                got = blocks(trunc, trunc.independent_table(elem))
                assert got == reference_independent_table(trunc, elem)


def test_independent_table_adds_branches_through_a_shared_node(sysf):
    # both branches pass through the zero map at levels 0 and 1
    a = planted(sysf, {sysf.tree.branch(((1, 1),)): 1, sysf.tree.branch(((2, 1),)): 1})
    trunc = truncate(sysf, 5, universe_for(sysf, [a], 5))
    table = blocks(trunc, trunc.independent_table(a))
    assert table[(0, 4)] == reference_independent_table(trunc, a)[(0, 4)]
    assert table[(0, 4)][trunc._position(0, Node(0, ()), 4) - trunc._offsets[0]] == 2
    assert trunc.agreement(a, trunc.primary_table(a))


class SwappedAtTwoTree(DisjointBranchesTree):
    """Two disjoint chains whose branch nodes trade places at level 2, so that
    a branch's nodes do not restrict to each other."""

    def branch_node(self, branch, i):
        node = super().branch_node(branch, i)
        return Node(i, 1 - node.address) if i == 2 else node


def test_agreement_fails_when_branch_nodes_do_not_restrict_to_each_other():
    system = System(Ring(3), SwappedAtTwoTree(2))
    a = branch_generator(system, system.tree.branch(0))
    other = branch_generator(system, system.tree.branch(1))
    trunc = truncate(system, 5, universe_for(system, [a, other], 5))
    primary = trunc.primary_table(a)
    assert not trunc.agreement(a, primary)
    assert not trunc.table_coherent(primary)


def test_independent_table_ignores_y_at_and_above_the_height(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = module_element(4, {(Node(4, 1), 9): 1}, sys1.ring, sys1.tree)
    tall = planted(sys1, {}, coboundary(sys1, {4: y}))
    assert trunc.independent_table(tall) == {}


def test_independent_table_rejects_data_outside_the_truncation(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    other = branch_generator(sys1, sys1.tree.branch(1))
    # the first generator placed for a branch is (t(0), height - 1)
    with pytest.raises(ValueError) as exc:
        trunc.independent_table(other)
    assert str(exc.value) == "generator (Node(level=0, address=1), 3) lies outside the node universe"
    for node, l, message in ((Node(1, 1), 2, "outside the node universe"),
                             (Node(1, 0), 6, "generator index 6 lies outside the truncation")):
        y = module_element(1, {(node, l): 1}, sys1.ring, sys1.tree)
        with pytest.raises(ValueError, match=message):
            trunc.independent_table(planted(sys1, {}, coboundary(sys1, {1: y})))


# -- restriction work in the oracle's setup ---------------------------------------

SETUP_HEIGHT = 8
SETUP_CASES = (
    (System(Ring(3), DisjointBranchesTree(2)), 1),
    (System(Ring(4), FiniteSupportTree((2, 3), 2)), ((0, 1), (1, 2), (4, 1))),
)


def counting_tree_work(monkeypatch, tree):
    """Count ``_restrict`` (every restriction, validated or not) and
    ``check_node`` on the tree's class."""
    calls = {"_restrict": 0, "check_node": 0}
    for name in calls:
        original = getattr(type(tree), name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(type(tree), name, counted)
    return calls


@pytest.mark.parametrize("system, presentation", SETUP_CASES, ids=[s.tree.kind for s, _ in SETUP_CASES])
def test_oracle_setup_restricts_trusted_nodes_once(system, presentation, monkeypatch):
    h = SETUP_HEIGHT
    a = branch_generator(system, system.tree.branch(presentation))
    calls = counting_tree_work(monkeypatch, system.tree)
    # the branch adds only its top node, itself a restriction of the
    # presentation, restricted to every lower level, and nothing is re-validated
    universe = universe_for(system, [a], h)
    assert calls == {"_restrict": h, "check_node": 0}
    assert [len(universe[i]) for i in range(h)] == [1] * h
    calls.update(dict.fromkeys(calls, 0))
    # truncate validates each universe node once and still checks closure for
    # every node against every lower level
    truncate(system, h, universe)
    assert calls == {"_restrict": comb(h, 2), "check_node": h}
    calls.update(dict.fromkeys(calls, 0))
    # through one table, the top node's restrictions are not computed again
    table = NodeTable(system.tree)
    truncate(system, h, universe_for(system, [a], h, table), table)
    assert calls == {"_restrict": comb(h, 2) + 1, "check_node": h}


SUITE_SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(3), DecreasingSeqTree()),
)


@pytest.mark.parametrize("system", SUITE_SYSTEMS, ids=[s.tree.kind for s in SUITE_SYSTEMS])
def test_one_table_per_suite_restricts_and_validates_each_node_once(system, monkeypatch):
    """The loop of ``oracle-verify`` on its 20-element suite at height 8: with
    one node table, each distinct ``(node, lower level)`` is restricted once
    and each distinct universe node validated once, over all 20 truncations."""
    h = 8
    rng = Random(5)
    suite = [random_planted(system, rng, level_cap=min(3, h - 2), index_cap=h - 1)
             for _ in range(20)]
    universes = [universe_for(system, [a], h) for a in suite]
    truncations = [truncate(system, h, universe) for universe in universes]
    nodes = {node for universe in universes for level in universe.values() for node in level}
    # universe_for reads each branch's top node off its presentation
    top_nodes = sum(len(a.combo) for a in suite)
    calls = counting_tree_work(monkeypatch, system.tree)
    table = NodeTable(system.tree)
    for a, universe, trunc in zip(suite, universes, truncations):
        assert universe_for(system, [a], h, table) == universe
        assert truncate(system, h, universe, table) == trunc
    assert calls == {"_restrict": top_nodes + sum(node.level for node in nodes),
                     "check_node": len(nodes)}
    assert set(table) == table.checked == nodes
