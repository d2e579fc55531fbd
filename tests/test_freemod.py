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
    apply_hom,
    below,
    check_eq_recurrences,
    generator,
    module_element,
    singleton,
)
from invsys.freemod import _canonical
from invsys.sampling import random_planted, sample_branch, sample_node

from conftest import prefilled


def b0(level):
    return Node(level, 0)


def b1(level):
    return Node(level, 1)


def test_coefficients_cancel_mod_3(sys1):
    x = generator(b0(0), 2, sys1.ring, sys1.tree)
    assert (x + x + x).is_zero()


def test_negate_flips_coefficients(sys1):
    e = module_element(0, {(b0(0), 2): 1, (b0(0), 3): 1}, sys1.ring, sys1.tree)
    assert -e == module_element(0, {(b0(0), 2): 2, (b0(0), 3): 2}, sys1.ring, sys1.tree)


def test_mismatched_levels_rejected(sys1):
    e0 = generator(b0(0), 1, sys1.ring, sys1.tree)
    e1 = generator(b0(1), 2, sys1.ring, sys1.tree)
    with pytest.raises(ValueError):
        e0 + e1


def test_hom_on_generator(sys1):
    # the generator (b0@1, 2) maps to (b0@0, 2) - (b0@0, 1)
    image = apply_hom(generator(b0(1), 2, sys1.ring, sys1.tree), 0)
    expected = module_element(0, {(b0(0), 2): 1, (b0(0), 1): -1}, sys1.ring, sys1.tree)
    assert image == expected


def test_hom_of_zero_is_zero(sys1):
    from invsys import ModuleElement

    assert apply_hom(ModuleElement.zero(3, sys1.ring, sys1.tree), 1).is_zero()


def test_hom_level_errors(sys1):
    e = generator(b0(1), 2, sys1.ring, sys1.tree)
    with pytest.raises(ValueError):
        apply_hom(e, 1)
    with pytest.raises(ValueError):
        apply_hom(e, 2)


def test_hom_composition_on_generator(sys1):
    # both composition orders give (b0@0, 3) - (b0@0, 2)
    x = generator(b0(2), 3, sys1.ring, sys1.tree)
    stepwise = apply_hom(apply_hom(x, 1), 0)
    direct = apply_hom(x, 0)
    assert stepwise == direct
    expected = module_element(0, {(b0(0), 3): 1, (b0(0), 2): -1}, sys1.ring, sys1.tree)
    assert stepwise == expected


def test_hom_composition_randomized(sys1, sysf, sys2):
    rng = Random(3)
    for system in (sys1, sysf, sys2):
        for _ in range(60):
            k = rng.randint(2, 6)
            node = sample_node(system.tree, rng, k)
            l = rng.randint(k + 1, k + 4)
            x = generator(node, l, system.ring, system.tree)
            j = rng.randint(1, k - 1)
            i = rng.randint(0, j - 1)
            assert apply_hom(apply_hom(x, j), i) == apply_hom(x, i)


def test_hom_image_vanishes_below_source_level(sys1, sysf):
    rng = Random(4)
    for system in (sys1, sysf):
        for _ in range(40):
            j = rng.randint(1, 6)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                node = sample_node(system.tree, rng, j)
                terms[(node, rng.randint(j + 1, j + 4))] = rng.randint(1, system.ring.modulus - 1)
            e = module_element(j, terms, system.ring, system.tree)
            for i in range(j):
                assert apply_hom(e, i).restrict_to(below(j)).is_zero()


def test_hom_is_additive(sys1):
    rng = Random(9)
    for _ in range(40):
        j = rng.randint(1, 5)
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                terms[(Node(j, rng.randrange(2)), rng.randint(j + 1, j + 4))] = rng.randrange(3)
            return module_element(j, terms, sys1.ring, sys1.tree)
        e, f = rand_elem(), rand_elem()
        i = rng.randrange(j)
        assert apply_hom(e + f, i) == apply_hom(e, i) + apply_hom(f, i)


def test_support_of_zero_is_empty(sys1):
    from invsys import ModuleElement

    assert ModuleElement.zero(0, sys1.ring, sys1.tree).support() == ()


def test_support_reads_off_terms(sys1):
    e = module_element(0, {(b0(0), 1): 1, (b1(0), 3): 2}, sys1.ring, sys1.tree)
    assert e.support() == ((b0(0), 1), (b1(0), 3))


def test_support_after_cancellation(sys1):
    e = module_element(0, {(b0(0), 1): 1, (b1(0), 3): 2}, sys1.ring, sys1.tree)
    assert (e + (-e)).support() == ()


def test_restrict_to_initial_segment(sys1):
    e = generator(b0(0), 5, sys1.ring, sys1.tree)
    assert e.restrict_to(below(5)).is_zero()


def test_restrict_kills_hom_image_below_source(sys1):
    image = apply_hom(generator(b0(2), 4, sys1.ring, sys1.tree), 0)
    assert image.restrict_to(below(2)).is_zero()


def test_below_keeps_the_canonical_terms_under_the_cut(sys1):
    e = module_element(0, {(b0(0), 1): 1, (b1(0), 2): 2, (b0(0), 4): 1, (b1(0), 7): 2},
                       sys1.ring, sys1.tree)
    for j in range(10):
        cut = e.below(j)
        assert cut == e.restrict_to(below(j))
        assert cut == module_element(0, {(n, l): c for n, l, c in cut.terms}, e.ring, e.tree)
    assert e.below(0).is_zero() and e.below(8) == e


def test_restrict_to_singleton(sys1):
    e = module_element(0, {(b0(0), 1): 1, (b0(0), 4): 1}, sys1.ring, sys1.tree)
    assert e.restrict_to(singleton(4)) == generator(b0(0), 4, sys1.ring, sys1.tree)


def test_canonical_form_is_idempotent(sys1):
    e = module_element(0, {(b0(0), 1): 5, (b1(0), 2): 3, (b0(0), 7): 0}, sys1.ring, sys1.tree)
    again = module_element(e.level, {(n, l): c for n, l, c in e.terms}, e.ring, e.tree)
    assert again == e
    assert all(0 < c < sys1.ring.modulus for _, _, c in e.terms)


def test_canonical_sorts_terms_listed_out_of_order(sys1):
    e = module_element(0, {(b1(0), 2): 1, (b0(0), 3): 1, (b0(0), 1): 1}, sys1.ring, sys1.tree)
    assert e.terms == ((b0(0), 1, 1), (b0(0), 3, 1), (b1(0), 2, 1))


def test_invalid_terms_rejected(sys1):
    with pytest.raises(ValueError):
        module_element(0, {(b0(1), 2): 1}, sys1.ring, sys1.tree)  # node at wrong level
    with pytest.raises(ValueError):
        module_element(1, {(b0(1), 1): 1}, sys1.ring, sys1.tree)  # index not above level
    with pytest.raises(ValueError):
        module_element(0, {(Node(0, 9), 1): 1}, sys1.ring, sys1.tree)  # invalid node


def test_module_element_refuses_a_coefficient_of_another_ring(sys1):
    with pytest.raises(ValueError, match=r"^mismatched rings: Ring\(modulus=3\) vs Ring\(modulus=7\)$"):
        module_element(0, {(b0(0), 1): Ring(7).elem(5)}, sys1.ring, sys1.tree)


def test_json_round_trip(sys1):
    from invsys import ModuleElement

    e = module_element(0, {(b0(0), 1): 2, (b1(0), 3): 1}, sys1.ring, sys1.tree)
    assert ModuleElement.from_json(e.to_json(), sys1.ring, sys1.tree) == e


HOM_SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
)


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       data=st.data())
def test_hom_composition_law(system, rng, data):
    """``hom(i, j) o hom(j, k) = hom(i, k)``: restricting through an intermediate
    level ``j`` lands where restricting directly does, for all ``i < j < k``."""
    k = data.draw(st.integers(2, 8), label="k")
    j = data.draw(st.integers(1, k - 1), label="j")
    i = data.draw(st.integers(0, j - 1), label="i")
    m = system.ring.modulus
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (sample_node(system.tree, rng, k), rng.randint(k + 1, k + 5))
        terms[key] = terms.get(key, 0) + rng.randint(1, m - 1)
    x = module_element(k, terms, system.ring, system.tree)
    assert apply_hom(apply_hom(x, j), i) == apply_hom(x, i)


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       data=st.data())
def test_hom_additivity_law(system, rng, data):
    """``hom(x + y) = hom(x) + hom(y)``: with the composition law, the other fact
    the consecutive-triple coherence check rests on."""
    j = data.draw(st.integers(1, 8), label="j")
    i = data.draw(st.integers(0, j - 1), label="i")
    m = system.ring.modulus

    def element(reuse=()):
        # Terms of ``reuse`` come back half the time, so sums also cancel.
        terms = {}
        for _ in range(rng.randint(0, 4)):
            if reuse and rng.random() < 0.5:
                key = rng.choice(reuse)
            else:
                key = (sample_node(system.tree, rng, j), rng.randint(j + 1, j + 5))
            terms[key] = terms.get(key, 0) + rng.randint(1, m - 1)
        return module_element(j, terms, system.ring, system.tree)

    x = element()
    y = element(x.support())
    assert apply_hom(x + y, i) == apply_hom(x, i) + apply_hom(y, i)


# -- value semantics ----------------------------------------------------------------
#
# Operands are matched by value: the pairs (ring, tree) are compared as tuples,
# which returns at once for identical objects and compares values otherwise.
# Elements over a separately parsed copy of a system must therefore combine,
# and elements over a system that differs by value must not.


def random_terms(system, rng, level):
    m = system.ring.modulus
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = (sample_node(system.tree, rng, level), rng.randint(level + 1, level + 5))
        terms[key] = terms.get(key, 0) + rng.randint(1, m - 1)
    return terms


def parsed_copy(system):
    copy = System.from_json(system.to_json())
    assert copy == system and copy.ring is not system.ring and copy.tree is not system.tree
    return copy


def foreign(system, field):
    """A ring or a tree that differs from the system's by value."""
    if field == "ring":
        return Ring(system.ring.modulus + 1)
    return next(s.tree for s in HOM_SYSTEMS if s.tree != system.tree)


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       level=st.integers(0, 5))
def test_elements_over_equal_systems_combine(system, rng, level):
    copy = parsed_copy(system)
    terms = random_terms(system, rng, level)
    x = module_element(level, terms, system.ring, system.tree)
    y = module_element(level, terms, copy.ring, copy.tree)
    assert x == y and hash(x) == hash(y)
    assert x + y == x + x
    assert (x - y).is_zero()


@settings(max_examples=30, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False))
def test_defects_read_entries_over_an_equal_system(system, rng):
    a = random_planted(system, rng, level_cap=5)
    copy = parsed_copy(system)
    # every triple mixes entries over both copies
    reparsed = prefilled(a, {(i, j): a.eval_entry(i, j)._replace(ring=copy.ring, tree=copy.tree)
                             for i in range(7) for j in range(i + 1, 7) if (i + j) % 2})
    assert check_eq_recurrences(reparsed, 7).ok


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       level=st.integers(0, 5), field=st.sampled_from(["ring", "tree"]))
def test_elements_over_different_systems_do_not_combine(system, rng, level, field):
    x = module_element(level, random_terms(system, rng, level), system.ring, system.tree)
    y = x._replace(**{field: foreign(system, field)})
    assert x != y
    for combine in (lambda: x + y, lambda: x - y, lambda: y + x, lambda: y - x):
        with pytest.raises(ValueError, match="^operands live in different systems$"):
            combine()


@settings(max_examples=30, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       data=st.data(), field=st.sampled_from(["ring", "tree"]))
def test_defect_rejects_an_entry_of_another_system(system, rng, data, field):
    a = random_planted(system, rng, level_cap=5)
    horizon = 7
    j = data.draw(st.integers(1, horizon - 1), label="j")
    i = data.draw(st.integers(0, j - 1), label="i")
    faulted = prefilled(a, {(i, j): a.eval_entry(i, j)._replace(**{field: foreign(system, field)})})
    with pytest.raises(ValueError, match="^operands live in different systems$"):
        check_eq_recurrences(faulted, horizon)


def test_repr_is_the_field_listing(sys1):
    e = module_element(0, {(b0(0), 1): 2, (b1(0), 3): 1}, sys1.ring, sys1.tree)
    assert repr(e) == (
        "ModuleElement(level=0, terms=((Node(level=0, address=0), 1, 2), "
        "(Node(level=0, address=1), 3, 1)), ring=Ring(modulus=3), "
        "tree=DisjointBranchesTree(count=2))"
    )


def test_scalar_times_element_is_refused(sys1):
    # A named tuple would repeat its fields; there is no scalar multiple.
    e = module_element(0, {(b0(0), 1): 2}, sys1.ring, sys1.tree)
    for product in (lambda: 2 * e, lambda: e * 2, lambda: e * e):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            product()


# The per-family sort keys that canonical forms were once sorted through;
# decreasing_seq's branch key only raised, since that tree has no branches.
OLD_NODE_KEY = {
    DisjointBranchesTree: lambda node: (node.address,),
    FiniteSupportTree: lambda node: node.address,
    DecreasingSeqTree: lambda node: node.address,
}
OLD_BRANCH_KEY = {
    DisjointBranchesTree: lambda branch: (branch.presentation,),
    FiniteSupportTree: lambda branch: branch.presentation,
}


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       level=st.integers(0, 7), count=st.integers(0, 12))
def test_tuple_order_is_the_old_keyed_order(system, rng, level, count):
    """Nodes of one level and branches sort by tuple order exactly as by the
    old keys, duplicates included."""
    tree = system.tree
    nodes = [sample_node(tree, rng, level) for _ in range(count)]
    assert sorted(nodes) == sorted(nodes, key=OLD_NODE_KEY[type(tree)])
    if isinstance(tree, DecreasingSeqTree):
        return
    branches = [sample_branch(tree, rng) for _ in range(count)]
    assert sorted(branches) == sorted(branches, key=OLD_BRANCH_KEY[type(tree)])


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(HOM_SYSTEMS), rng=st.randoms(use_true_random=False),
       level=st.integers(0, 7), count=st.integers(0, 12))
def test_canonical_matches_the_old_keyed_sort(system, rng, level, count):
    """``_canonical`` reduces, drops zeros and sorts a term map exactly as the
    old keyed sort by ``(node key, l)`` did."""
    ring, tree = system.ring, system.tree
    acc = {}
    for _ in range(count):
        key = (sample_node(tree, rng, level), rng.randrange(level + 1, level + 5))
        acc[key] = acc.get(key, 0) + rng.randrange(-2 * ring.modulus, 2 * ring.modulus)
    m, node_key = ring.modulus, OLD_NODE_KEY[type(tree)]
    old = [(n, l, v) for (n, l), c in acc.items() if (v := c % m)]
    old.sort(key=lambda t: (node_key(t[0]), t[1]))
    assert _canonical(level, acc, ring, tree).terms == tuple(old)
