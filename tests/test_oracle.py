import dataclasses
import json
import re
from math import comb
from random import Random

import numpy as np
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
    branch_generator,
    coboundary,
    generator,
    module_element,
    planted,
    truncate,
    universe_for,
    zero_element,
)
from invsys.sampling import random_planted


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


def not_closed(node):
    return f"^{re.escape(f'universe is not closed under restriction: {node} at level 0')}$"


def test_non_closed_universe_rejected(sys1):
    universe = {0: set(), 1: {Node(1, 0)}, 2: set()}
    with pytest.raises(ValueError, match=not_closed("Node(level=1, address=0)")):
        truncate(sys1, 3, universe)


@pytest.mark.parametrize("universe, node", [
    # two nodes miss their restriction: the first in sorted order is named
    ({0: set(), 1: {Node(1, 1), Node(1, 0)}, 2: set()}, "Node(level=1, address=0)"),
    # a lower level's node is named before a higher level's
    ({0: set(), 1: {Node(1, 1)}, 2: {Node(2, 0)}}, "Node(level=1, address=1)"),
    # one node misses two restrictions: the lower level is named
    ({0: set(), 1: set(), 2: {Node(2, 0)}}, "Node(level=2, address=0)"),
])
def test_non_closed_universe_names_the_first_missing_restriction(sys1, universe, node):
    with pytest.raises(ValueError, match=not_closed(node)):
        truncate(sys1, 3, universe)


@pytest.mark.parametrize("bad", (Node(1, (1,)), Node(1, "x"), Node(0, 1)))
def test_universe_nodes_are_checked_before_they_are_sorted(sys1, bad):
    universe = {0: {Node(0, 0), Node(0, 1)}, 1: {Node(1, 0), bad}, 2: set()}
    with pytest.raises(ValueError, match=r"^node address must be|filed under level 1$"):
        truncate(sys1, 3, universe)


def test_hom_matrices_compose(sys1, sysf):
    rng = Random(3)
    for system in (sys1, sysf):
        elems = [random_planted(system, rng, level_cap=3, index_cap=5) for _ in range(5)]
        trunc = truncate(system, 6, universe_for(system, elems, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(j + 1, 6):
                    composed = (trunc.hom_matrix(i, j) @ trunc.hom_matrix(j, k)) % trunc.modulus
                    assert np.array_equal(trunc.hom_matrix(i, k), composed)


def test_matrix_path_reproduces_symbolic_composition_example(sys1):
    # stepping the generator at (b0@2, 3) down two levels matches the direct map
    # and the symbolic result, at truncation height 6
    from invsys import apply_hom, generator

    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 6, universe_for(sys1, [a], 6))
    x = generator(Node(2, 0), 3, sys1.ring, sys1.tree)
    vec = trunc.vectorize(x)
    stepped = (trunc.hom_matrix(0, 1) @ (trunc.hom_matrix(1, 2) @ vec)) % trunc.modulus
    direct = (trunc.hom_matrix(0, 2) @ vec) % trunc.modulus
    assert np.array_equal(stepped, direct)
    symbolic = trunc.vectorize(apply_hom(apply_hom(x, 1), 0))
    assert np.array_equal(stepped, symbolic)


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
    table = trunc.primary_table(a)
    table[trunc._rows(0), 2] = (table[trunc._rows(0), 2] + 1) % trunc.modulus
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
        assert np.array_equal(y[trunc._rows(i)], expected)
    assert np.array_equal(y[trunc._rows(3)], np.zeros(0, dtype=np.int64))


def test_solve_zero_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = trunc.solve_coboundary(trunc.primary_table(zero_element(sys1)))
    assert not y.any()


def test_solve_recovers_planted_coboundary_up_to_shift(sys1):
    y0 = module_element(0, {(Node(0, 0), 1): 1}, sys1.ring, sys1.tree)
    a = planted(sys1, {}, coboundary(sys1, {0: y0}))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    y = trunc.solve_coboundary(table)
    m = trunc.modulus
    for i in range(4):
        for j in range(i + 1, 4):
            want = (y[trunc._rows(i)] - trunc.hom_matrix(i, j) @ y[trunc._rows(j)]) % m
            assert np.array_equal(table[trunc._rows(i), j], want)


def test_solve_rejects_incoherent_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    table[trunc._rows(0), 3] = (table[trunc._rows(0), 3] + 1) % trunc.modulus
    with pytest.raises(ValueError):
        trunc.solve_coboundary(table)


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
    table = trunc.primary_table(a)
    table[trunc._rows(0), 3] = (table[trunc._rows(0), 3] + 1) % trunc.modulus
    assert trunc.agreement(a, trunc.primary_table(a)) and not trunc.agreement(a, table)


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


@pytest.mark.parametrize("modulus, dtype", [(3, np.int64), (2 ** 29, np.int64),
                                            (2 ** 31 - 1, object), (2 ** 40 + 15, object)])
def test_truncation_keeps_int64_while_exact(modulus, dtype):
    from invsys import DisjointBranchesTree, Ring, System

    system = System(Ring(modulus), DisjointBranchesTree(2))
    rng = Random(3)
    elems = [random_planted(system, rng, level_cap=3, index_cap=5) for _ in range(3)]
    trunc = truncate(system, 6, universe_for(system, elems, 6))
    assert trunc.dtype is dtype
    assert trunc.hom_matrix(0, 1).dtype == np.dtype(dtype)
    for elem in elems:
        table = trunc.primary_table(elem)
        assert trunc.agreement(elem, table)
        assert trunc.table_coherent(table)


@pytest.mark.parametrize("modulus", [3, 2 ** 40 + 15])
def test_hom_matrix_views_are_read_only(modulus):
    from invsys import DisjointBranchesTree, Ring, System

    system = System(Ring(modulus), DisjointBranchesTree(2))
    a = branch_generator(system, system.tree.branch(0))
    trunc = truncate(system, 5, universe_for(system, [a], 5))
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    before = {pair: trunc.hom_matrix(*pair).copy() for pair in pairs}
    block = trunc.hom_matrix(0, 2)
    with pytest.raises(ValueError):
        block[0, 0] = 1
    with pytest.raises(ValueError):
        block += 1
    assert all(np.array_equal(trunc.hom_matrix(*pair), before[pair]) for pair in pairs)


# -- the per-triple reference -------------------------------------------------
#
# The block checks read every triple law off one product per middle level.
# These are the loops they replaced, one comparison per triple or pair, in the
# same lexicographic order; the block checks must give the same verdict and
# name the same first failure on faulted tables, hom maps and solutions.

REFERENCE_SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
    System(Ring(2 ** 40 + 15), FiniteSupportTree((2,), 2)),  # dtype=object
)
REFERENCE_IDS = [f"{s.tree.kind}-m{s.ring.modulus}" for s in REFERENCE_SYSTEMS]


def pairs(height):
    return [(i, j) for i in range(height) for j in range(i + 1, height)]


def triples(height):
    return [(i, j, k) for i, j in pairs(height) for k in range(j + 1, height)]


def blocks(trunc, t):
    """The ``{(i, j): entry}`` dict of a block-array table, as the references read it."""
    return {(i, j): t[trunc._rows(i), j] for i, j in pairs(trunc.height)}


def levels(trunc, y):
    """The per-level list of a stacked coboundary sequence."""
    return [y[trunc._rows(i)] for i in range(trunc.height)]


def reference_table_coherent(trunc, table):
    m = trunc.modulus
    for i, j, k in triples(trunc.height):
        lhs = table[(i, k)] % m
        rhs = (table[(i, j)] + trunc.hom_matrix(i, j) @ table[(j, k)]) % m
        if not np.array_equal(lhs, rhs):
            return False
    return True


def reference_composition_fault(trunc):
    m = trunc.modulus
    for i, j, k in triples(trunc.height):
        composed = (trunc.hom_matrix(i, j) @ trunc.hom_matrix(j, k)) % m
        if not np.array_equal(trunc.hom_matrix(i, k), composed):
            return i, j, k
    return None


def reference_coboundary_fault(trunc, table, y):
    m = trunc.modulus
    for i, j in pairs(trunc.height):
        want = (y[i] - trunc.hom_matrix(i, j) @ y[j]) % m
        if not np.array_equal(table[(i, j)] % m, want):
            return i, j
    return None


def bumped(vec, m, rng):
    """A copy of ``vec`` with one coordinate moved by a nonzero residue."""
    out = vec.copy()
    pos = rng.randrange(len(out))
    out[pos] = (out[pos] + rng.randrange(1, m)) % m
    return out


def with_hom_fault(trunc, i, j, rng):
    """``trunc`` with one entry of the block ``hom(i, j)`` moved."""
    hom = trunc._hom.copy()
    rows, cols = trunc.hom_matrix(i, j).shape
    r = trunc._offsets[i] + rng.randrange(rows)
    c = trunc._offsets[j] + rng.randrange(cols)
    hom[r, c] = (hom[r, c] + rng.randrange(1, trunc.modulus)) % trunc.modulus
    return dataclasses.replace(trunc, _hom=hom)


def top_solution(trunc, table):
    top = trunc.height - 1
    return np.concatenate([table[trunc._rows(i), top] for i in range(top)]
                          + [np.zeros(trunc.dim(top), dtype=trunc.dtype)])


def with_bump(trunc, vec, i, m, rng, column=None):
    """A copy of the block array ``vec`` with level ``i``'s rows (in ``column``,
    for a table) moved by ``bumped``."""
    out = vec.copy()
    where = trunc._rows(i) if column is None else (trunc._rows(i), column)
    out[where] = bumped(vec[where], m, rng)
    return out


def assert_checks_match_reference(trunc, table, y):
    assert trunc.table_coherent(table) == reference_table_coherent(trunc, blocks(trunc, table))
    assert trunc.coboundary_fault(table, y) == reference_coboundary_fault(
        trunc, blocks(trunc, table), levels(trunc, y))


def reference_case(system, height, rng):
    a = random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
    trunc = truncate(system, height, universe_for(system, [a], height))
    return trunc, trunc.primary_table(a)


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(REFERENCE_SYSTEMS), rng=st.randoms(use_true_random=False),
       height=st.integers(3, 8), data=st.data())
def test_block_checks_match_reference_on_faults(system, rng, height, data):
    trunc, table = reference_case(system, height, rng)
    m = trunc.modulus
    y = top_solution(trunc, table)
    assert trunc.composition_fault() is None
    assert_checks_match_reference(trunc, table, y)

    filled = [(i, j) for i, j in pairs(height) if trunc.dim(i)]
    if not filled:
        return
    faults = data.draw(st.lists(st.sampled_from(filled), max_size=3, unique=True),
                       label="faulted pairs")
    faulted = table
    for i, j in faults:
        faulted = with_bump(trunc, faulted, i, m, rng, j)
    assert_checks_match_reference(trunc, faulted, y)
    moved = y
    for i, _ in faults:
        moved = with_bump(trunc, moved, i, m, rng)
    assert_checks_match_reference(trunc, table, moved)

    blocks = [(i, j) for i, j in filled if trunc.dim(j)]
    if blocks:
        wrong = trunc
        for i, j in data.draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=3,
                                       unique=True), label="faulted hom blocks"):
            wrong = with_hom_fault(wrong, i, j, rng)
        assert wrong.composition_fault() == reference_composition_fault(wrong)
        assert_checks_match_reference(wrong, table, y)


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("height", range(3, 9))
def test_block_checks_match_reference_at_every_pair(system, height):
    """One fault at every pair: in the table, in ``y`` and in the hom block,
    the first and last row blocks and the last middle level included."""
    rng = Random(f"every-pair/{system.tree.kind}/{height}")
    trunc, table = reference_case(system, height, rng)
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
        if trunc.dim(j):
            wrong = with_hom_fault(trunc, i, j, rng)
            assert wrong.composition_fault() == reference_composition_fault(wrong)
            # hom(i, j) is the left side of every triple (i, j', j)
            assert wrong.composition_fault() is not None or j == i + 1


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_tables_are_zero_outside_their_blocks(system):
    """Both tables leave every coordinate outside the blocks ``i < j`` at zero,
    and the solve returns the top column, whose top-level rows are zero."""
    rng = Random(f"layout/{system.tree.kind}/{system.ring.modulus}")
    for height in (3, 6, 8):
        for _ in range(4):
            elem = random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
            trunc = truncate(system, height, universe_for(system, [elem], height))
            top = height - 1
            for t in (trunc.primary_table(elem), trunc.independent_table(elem)):
                assert t.shape == (trunc._offsets[-1], height) and t.dtype == trunc.dtype
                assert not t[~trunc._upper].any()
            t = trunc.primary_table(elem)
            y = trunc.solve_coboundary(t)
            assert y.dtype == trunc.dtype and np.array_equal(y, t[:, top])
            assert not y[trunc._rows(top)].any()
            assert np.array_equal(y, top_solution(trunc, t))


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
    """Level ``i`` lists its generators node by node in sort order, ``l = i+1
    .. height-1`` within a node, and a generator vectorizes to its unit vector."""
    trunc, nodes = layout_case(system, height)
    for i in range(height):
        gens = [(node, l) for node in nodes[i] for l in range(i + 1, height)]
        assert [trunc._position(i, node, l) for node, l in gens] == list(range(trunc.dim(i)))
        unit = np.eye(trunc.dim(i), dtype=np.int64)
        for pos, (node, l) in enumerate(gens):
            vec = trunc.vectorize(generator(node, l, system.ring, system.tree))
            assert vec.dtype == trunc.dtype and np.array_equal(vec, unit[pos])


@pytest.mark.parametrize("height", range(3, 9))
@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_hom_columns_follow_the_generator_rule(system, height):
    """Column ``(eta, l)`` of level ``j`` holds, in each block ``i < j``,
    exactly ``1`` at ``(eta|i, l)`` and ``m - 1`` at ``(eta|i, j)``, and
    nothing in the rows of level ``j`` and above."""
    trunc, nodes = layout_case(system, height)
    tree, m, o = system.tree, trunc.modulus, trunc._offsets
    for j in range(height):
        for eta in nodes[j]:
            for l in range(j + 1, height):
                want = np.zeros(o[-1], dtype=np.int64)
                for i in range(j):
                    nu = tree.restrict(eta, i)
                    want[o[i] + trunc._position(i, nu, l)] = 1
                    want[o[i] + trunc._position(i, nu, j)] = m - 1
                assert np.array_equal(trunc._hom[:, o[j] + trunc._position(j, eta, l)], want)


def test_truncated_system_fields_are_set_once(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    for f in dataclasses.fields(trunc):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trunc, f.name, getattr(trunc, f.name))


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
                table = blocks(trunc, trunc.primary_table(elem))
                for (i, j), vec in table.items():
                    want = trunc.vectorize(elem.eval_entry(i, j))
                    assert vec.dtype == want.dtype and np.array_equal(vec, want)


def levelwise_universe(system, elements, height):
    """``universe_for`` as a walk over every level of each branch, top down."""
    tree = system.tree
    levels = {i: set() for i in range(height)}

    def add(node):
        if node in levels[node.level]:
            return
        levels[node.level].add(node)
        for lower in range(node.level):
            levels[lower].add(tree._restrict(node, lower))

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
    """The independent table pair by pair: ``y_i - hom(i, j) @ y_j`` from
    ``vectorize`` and ``hom_matrix``, each branch's coefficient added column
    by column."""
    h = trunc.height
    tree = trunc.system.tree
    y = [trunc.vectorize(a.fact.y(i)) for i in range(h)]
    table = {(i, j): y[i] - trunc.hom_matrix(i, j) @ y[j] for i, j in pairs(h)}
    for i in range(h - 1):
        for branch, coeff in a.combo:
            node = tree.branch_node(branch, i)
            for j in range(i + 1, h):
                table[(i, j)][trunc._position(i, node, j)] += coeff
    return {pair: vec % trunc.modulus for pair, vec in table.items()}


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
def test_independent_table_matches_levelwise_reference(system):
    rng = Random(f"independent/{system.tree.kind}/{system.ring.modulus}")
    for height in (3, 6, 8):
        for _ in range(8):
            elems = [random_planted(system, rng, level_cap=min(3, height - 2),
                                    index_cap=height - 1) for _ in range(2)]
            trunc = truncate(system, height, universe_for(system, elems, height))
            for elem in elems:
                got = blocks(trunc, trunc.independent_table(elem))
                want = reference_independent_table(trunc, elem)
                for pair, vec in got.items():
                    assert vec.dtype == want[pair].dtype and np.array_equal(vec, want[pair])


def test_independent_table_adds_branches_through_a_shared_node(sysf):
    # both branches pass through the zero map at levels 0 and 1
    a = planted(sysf, {sysf.tree.branch(((1, 1),)): 1, sysf.tree.branch(((2, 1),)): 1})
    trunc = truncate(sysf, 5, universe_for(sysf, [a], 5))
    table = blocks(trunc, trunc.independent_table(a))
    assert np.array_equal(table[(0, 4)], reference_independent_table(trunc, a)[(0, 4)])
    assert table[(0, 4)][trunc._position(0, Node(0, ()), 4)] == 2
    assert trunc.agreement(a, trunc.primary_table(a))


def test_independent_table_ignores_y_at_and_above_the_height(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = module_element(4, {(Node(4, 1), 9): 1}, sys1.ring, sys1.tree)
    tall = planted(sys1, {}, coboundary(sys1, {4: y}))
    assert not trunc.independent_table(tall).any()


def test_independent_table_rejects_data_outside_the_truncation(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    other = branch_generator(sys1, sys1.tree.branch(1))
    with pytest.raises(ValueError, match="outside the node universe"):
        trunc.independent_table(other)
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
    # the branch adds only its top node, restricted to every lower level,
    # and nothing is re-validated
    universe = universe_for(system, [a], h)
    assert calls == {"_restrict": h - 1, "check_node": 0}
    assert [len(universe[i]) for i in range(h)] == [1] * h
    calls.update(dict.fromkeys(calls, 0))
    # truncate validates each universe node once and still checks closure for
    # every node against every lower level
    truncate(system, h, universe)
    assert calls == {"_restrict": comb(h, 2), "check_node": h}
