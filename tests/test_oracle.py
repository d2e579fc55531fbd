import json
from random import Random

import numpy as np
import pytest

from invsys import (
    Node,
    branch_generator,
    coboundary,
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
    assert trunc.verify_evaluation(a)


def test_height_bounds_enforced(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    with pytest.raises(ValueError):
        truncate(sys1, 2, universe_for(sys1, [a], 3))
    with pytest.raises(ValueError):
        truncate(sys1, 9, {i: set() for i in range(9)})


def test_non_closed_universe_rejected(sys1):
    universe = {0: set(), 1: {Node(1, 0)}, 2: set()}
    with pytest.raises(ValueError):
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
            assert trunc.verify_evaluation(a)
            assert trunc.agreement(a)


def test_fault_injected_table_fails(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    table[(0, 2)] = (table[(0, 2)] + 1) % trunc.modulus
    assert not trunc.table_coherent(table)


def test_zero_table_coherent(sys1):
    z = zero_element(sys1)
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    assert trunc.verify_evaluation(z)


def test_solve_on_branch_generator_uses_top_entries(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = trunc.solve_coboundary(trunc.primary_table(a))
    for i in range(3):
        expected = trunc.vectorize(
            module_element(i, {(Node(i, 0), 3): 1}, sys1.ring, sys1.tree)
        )
        assert np.array_equal(y[i], expected)
    assert np.array_equal(y[3], np.zeros(0, dtype=np.int64))


def test_solve_zero_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    y = trunc.solve_coboundary(trunc.primary_table(zero_element(sys1)))
    assert all(not vec.any() for vec in y)


def test_solve_recovers_planted_coboundary_up_to_shift(sys1):
    y0 = module_element(0, {(Node(0, 0), 1): 1}, sys1.ring, sys1.tree)
    a = planted(sys1, {}, coboundary(sys1, {0: y0}))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    y = trunc.solve_coboundary(table)
    m = trunc.modulus
    for i in range(4):
        for j in range(i + 1, 4):
            want = (y[i] - trunc.hom_matrix(i, j) @ y[j]) % m
            assert np.array_equal(table[(i, j)], want)


def test_solve_rejects_incoherent_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    table[(0, 3)] = (table[(0, 3)] + 1) % trunc.modulus
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
            assert trunc.agreement(a)
            table = trunc.primary_table(a)
            assert trunc.agreement(a, table)
            assert trunc.table_coherent(table)
            trunc.solve_coboundary(table)


def test_agreement_reads_the_given_primary_table(sys1):
    a = branch_generator(sys1, sys1.tree.branch(0))
    trunc = truncate(sys1, 4, universe_for(sys1, [a], 4))
    table = trunc.primary_table(a)
    table[(0, 3)] = (table[(0, 3)] + 1) % trunc.modulus
    assert trunc.agreement(a) and not trunc.agreement(a, table)


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
        assert trunc.agreement(elem)
        assert trunc.verify_evaluation(elem)
