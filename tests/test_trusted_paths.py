"""The trusted internal paths against the validating boundary, and the op counts
of the entry table.

Module arithmetic and ``apply_hom`` skip node validation and canonicalize
through a trusted helper; each must equal ``module_element`` built from the
same term map, and an entry summed in one accumulator must equal the same
entry composed of canonical parts.  Every ``Planted`` keeps its own entry
table, which must stay invisible to equality, hashing and serialization, and
must make ``check`` compute each entry below its horizon exactly once; a
repeated ``check`` builds no element at all, while still testing stability on
every triple.  The trusted constructors build nodes and elements without the
named-tuple class call; what they build must equal what the validating
constructors build, and ``check`` and ``oracle-verify`` must call the classes
only where they read or draw data.
"""

import json
from argparse import Namespace
from collections import Counter
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Planted,
    Ring,
    System,
    apply_hom,
    below,
    check_coherence,
    coboundary,
    module_element,
    planted,
)
from invsys import ModuleElement, Node, cli, coherent, freemod
from invsys.cli import _run_check
from invsys.oracle import truncate, universe_for
from invsys.sampling import random_planted, sample_node

SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    System(Ring(4), FiniteSupportTree((2, 3), 2)),
    System(Ring(6), DecreasingSeqTree()),
)
FAMILY_IDS = [s.tree.kind for s in SYSTEMS]

systems = st.sampled_from(SYSTEMS)


def term_map(system, rng: Random, level: int) -> dict:
    """A raw ``(node, l) -> int`` map: unreduced, possibly cancelling, possibly empty."""
    m = system.ring.modulus
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = (sample_node(system.tree, rng, level), rng.randint(level + 1, level + 5))
        terms[key] = terms.get(key, 0) + rng.randint(-2 * m, 2 * m)
    return terms


def merged(*maps) -> dict:
    out = {}
    for terms in maps:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + c
    return out


def reference(level, terms, system):
    return module_element(level, terms, system.ring, system.tree)


@given(system=systems, rng=st.randoms(use_true_random=False), level=st.integers(1, 5))
def test_arithmetic_matches_validating_constructor(system, rng, level):
    ta, tb = term_map(system, rng, level), term_map(system, rng, level)
    a, b = reference(level, ta, system), reference(level, tb, system)
    j = rng.randint(level + 1, level + 6)
    assert a + b == reference(level, merged(ta, tb), system)
    assert a - b == reference(level, merged(ta, {k: -v for k, v in tb.items()}), system)
    assert -a == reference(level, {k: -v for k, v in ta.items()}, system)
    assert a.restrict_to(below(j)) == reference(
        level, {(n, l): v for (n, l), v in ta.items() if l < j}, system)
    for (n, l), v in ta.items():
        assert a.coefficient(n, l) == system.ring.elem(v)


@given(system=systems, rng=st.randoms(use_true_random=False), level=st.integers(1, 5))
def test_apply_hom_matches_validating_constructor(system, rng, level):
    terms = term_map(system, rng, level)
    a = reference(level, terms, system)
    tree = system.tree
    for i in range(level):
        image = {}
        for (eta, l), c in terms.items():
            down = tree.restrict(eta, i)
            image[(down, l)] = image.get((down, l), 0) + c
            image[(down, level)] = image.get((down, level), 0) - c
        assert apply_hom(a, i) == reference(i, image, system)


@settings(max_examples=30)
@given(system=systems, rng=st.randoms(use_true_random=False))
def test_warmed_element_is_indistinguishable_from_cold(system, rng):
    warm = random_planted(system, rng, level_cap=5)
    cold = Planted.from_json(warm.to_json(), system)
    check_coherence(warm, 6)
    assert warm._entries and not cold._entries
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert len({warm, cold}) == 1
    assert repr(warm) == repr(cold)
    assert warm.to_json() == cold.to_json()
    for i in range(6):
        for j in range(i + 1, 6):
            assert warm.eval_entry(i, j) == cold.eval_entry(i, j)


WIDE_MODULI = (3, 4, 6, 2 ** 40 + 15)
TREES = (DisjointBranchesTree(3), FiniteSupportTree((2, 3), 2), DecreasingSeqTree())


def composed_entry(a, i, j):
    """Entry ``(i, j)`` composed of canonical parts: the canonical branch part
    plus the induced coboundary entry ``y_i - hom(y_j)``.  ``eval_entry`` sums
    the same terms into one map and reduces once; the two must agree."""
    tree = a.system.tree
    branch_part = {}
    for branch, coeff in a.combo:
        node = tree.branch_node(branch, i)
        branch_part[(node, j)] = branch_part.get((node, j), 0) + coeff
    return coherent._canonical(i, branch_part, a.system.ring, tree) + a.fact.induced(i, j)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from(WIDE_MODULI), tree=st.sampled_from(TREES),
       rng=st.randoms(use_true_random=False))
def test_fused_entry_matches_composition(m, tree, rng):
    system = System(Ring(m), tree)
    a = random_planted(system, rng, level_cap=6)
    horizon = a.stab_bound + 3
    for i in range(horizon):
        for j in range(i + 1, horizon):
            assert a.eval_entry(i, j) == composed_entry(a, i, j)


def test_entry_rejects_bad_pair_even_when_warm():
    a = random_planted(SYSTEMS[0], Random(3))
    a.eval_entry(0, 1)
    for i, j in ((1, 1), (2, 1), (-1, 1)):
        with pytest.raises(ValueError):
            a.eval_entry(i, j)


# Two branches with coefficients 1 and m - 1.  On finite_support they share
# their nodes below level 3, where the coefficients cancel; disjoint_branches
# shares none, and decreasing_seq has no branch.
CANCELLING_PAIRS = ((0, 2), (((2, 1),), ((3, 1),)), ())
ENTRY_HORIZON = 8


def reference_entry(a, i, j):
    """Entry ``(i, j)`` from the validating boundary: the branch part through
    ``module_element``, which merges repeated nodes, plus ``y_i`` minus
    ``apply_hom(y_j, i)``."""
    ring, tree = a.system.ring, a.system.tree
    branch_part = module_element(
        i, [((tree.branch_node(branch, i), j), c) for branch, c in a.combo], ring, tree)
    return branch_part + a.fact.y(i) - apply_hom(a.fact.y(j), i)


@pytest.mark.parametrize("system, presentations", zip(SYSTEMS, CANCELLING_PAIRS), ids=FAMILY_IDS)
@pytest.mark.parametrize("with_y", [False, True], ids=["no-y", "y"])
def test_entries_match_the_boundary_reference(system, presentations, with_y):
    """Every entry below the horizon, read off the branch row where no ``y``
    sits at either level and accumulated otherwise, equals the reference."""
    ring, tree, m = system.ring, system.tree, system.ring.modulus
    combo = [(tree.branch(p), c) for p, c in zip(presentations, (1, m - 1))]
    rng = Random(f"entries/{tree.kind}")
    fact = coboundary(system, {
        level: module_element(level, {(sample_node(tree, rng, level), level + d): d
                                      for d in (1, 3)}, ring, tree)
        for level in (1, 4)} if with_y else {})
    a = planted(system, combo, fact)
    for i in range(ENTRY_HORIZON):
        for j in range(i + 1, ENTRY_HORIZON):
            assert a.eval_entry(i, j) == reference_entry(a, i, j)
    # one branch row per level, the shared nodes cancelled out of it
    assert len(a._branch_nodes) == ENTRY_HORIZON - 1
    if tree.kind == "finite_support":
        assert [a._branch_nodes[i] for i in range(4)] == [(), (), (), (
            (tree.branch_node(combo[1][0], 3), m - 1), (tree.branch_node(combo[0][0], 3), 1))]


def test_branch_row_is_sorted_where_restriction_reverses_the_combo_order():
    """The branch ``((0, 1), (1, 1))`` sorts before ``((0, 1), (3, 1))``, but
    at level 2 their nodes ``((0, 1), (1, 1))`` and ``((0, 1),)`` sort the
    other way: the row, and so the entry, follows the nodes."""
    system = System(Ring(3), FiniteSupportTree((), 2))
    tree = system.tree
    first, second = tree.branch(((0, 1), (1, 1))), tree.branch(((0, 1), (3, 1)))
    a = planted(system, {second: 1, first: 2})
    assert a.combo == ((first, 2), (second, 1))
    low, high = Node(2, ((0, 1),)), Node(2, ((0, 1), (1, 1)))
    assert a.eval_entry(2, 5).terms == ((low, 5, 1), (high, 5, 2))
    assert a._branch_nodes[2] == ((low, 1), (high, 2))


# -- op counts --------------------------------------------------------------------

HORIZON = 14
# the parsed request of ``--element elem.json --cmd check --horizon 14``
CHECK_ARGS = Namespace(element=["elem.json"], horizon=HORIZON)


def deep_element(system):
    """An element whose coboundary part reaches level 8, like the benchmark's."""
    rng = Random(f"deep/{system.tree.kind}")
    while True:
        a = random_planted(system, rng, max_fact_levels=4, level_cap=9)
        if a.stab_bound == 9:
            return a


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_check_computes_each_entry_once(system, monkeypatch):
    elem = deep_element(system)
    computed = []
    real = Planted.eval_entry

    def counted(self, i, j):
        before = len(self._entries)
        out = real(self, i, j)
        computed.extend([(i, j)] * (len(self._entries) - before))
        return out

    # an entry is computed when eval_entry adds it to the element's table
    monkeypatch.setattr(Planted, "eval_entry", counted)
    report, code = _run_check(system, [elem], CHECK_ARGS)
    assert (report["ok"], code) == (True, 0)
    assert len(computed) == len(elem._entries) == comb(HORIZON, 2)


def counting_add_hom(monkeypatch):
    """Count the hom applications of ``coherent``: every one goes through the
    accumulator ``_add_hom``, in entries and in coherence defects alike."""
    calls = []
    add_hom = coherent._add_hom

    def counted(acc, e, i, sign, down=None):
        calls.append((e.level, i))
        add_hom(acc, e, i, sign, down)

    monkeypatch.setattr(coherent, "_add_hom", counted)
    return calls


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_repeated_check_evaluates_no_entry(system, monkeypatch):
    elem = deep_element(system)
    assert check_coherence(elem, HORIZON)
    calls = counting_add_hom(monkeypatch)
    for i in range(HORIZON):
        for j in range(i + 1, HORIZON):
            elem.eval_entry(i, j)
    assert calls == []
    # The sweep itself maps one entry per consecutive triple (i, i+1, k);
    # entry evaluation adds none.
    assert check_coherence(elem, HORIZON)
    assert len(calls) == comb(HORIZON - 1, 2)
    assert len(elem._entries) == comb(HORIZON, 2)


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_repeated_check_maps_once_per_triple_and_builds_no_ring_element(system, monkeypatch):
    elem = deep_element(system)
    first = _run_check(system, [elem], CHECK_ARGS)
    homs, ring_elems = counting_add_hom(monkeypatch), []
    make_elem = Ring.elem

    def counted_elem(ring, value):
        ring_elems.append(value)
        return make_elem(ring, value)

    monkeypatch.setattr(Ring, "elem", counted_elem)
    built = []
    for module in (coherent, freemod):
        canonical = module._canonical

        def counted(level, acc, ring, tree, canonical=canonical):
            built.append(level)
            return canonical(level, acc, ring, tree)

        monkeypatch.setattr(module, "_canonical", counted)
    # Coherence and the recurrences come off the consecutive triples: one hom
    # application per triple (i, i+1, k), none for stability, and
    # coefficients stay plain integers.  Every entry is in the table and the
    # coherence sweep only tests its defect maps for zero, so no element is
    # canonicalized.
    assert _run_check(system, [elem], CHECK_ARGS) == first
    assert len(homs) == comb(HORIZON - 1, 2)
    assert ring_elems == []
    assert built == []


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_repeated_check_restricts_each_node_once_per_level(system, monkeypatch):
    elem = deep_element(system)
    first = _run_check(system, [elem], CHECK_ARGS)
    tree_class = type(system.tree)
    restrict = tree_class._restrict
    restricted = []

    def counted(tree, address, i):
        restricted.append((address, i))
        return restrict(tree, address, i)

    maps = []  # (target level, restriction map) of every hom the sweep applies
    add_hom = coherent._add_hom

    def spied(acc, e, i, sign, down=None):
        maps.append((i, down))
        add_hom(acc, e, i, sign, down)

    monkeypatch.setattr(tree_class, "_restrict", counted)
    monkeypatch.setattr(coherent, "_add_hom", spied)
    # Only the coherence sweep restricts: level i maps the entries
    # (i+1, k), k >= i+2, and restricts each distinct node among them once.
    assert _run_check(system, [elem], CHECK_ARGS) == first
    per_level = [{eta for k in range(i + 2, HORIZON) for eta, _, _ in elem.eval_entry(i + 1, k).terms}
                 for i in range(HORIZON - 2)]
    terms = sum(len(elem.eval_entry(i + 1, k).terms)
                for i in range(HORIZON - 2) for k in range(i + 2, HORIZON))
    assert len(restricted) == sum(len(nodes) for nodes in per_level) < terms
    assert sorted(restricted) == sorted((eta.address, i)
                                        for i, nodes in enumerate(per_level) for eta in nodes)
    # Each level has its own map, which holds exactly the level's nodes,
    # each sent to its restriction at that level.
    assert [i for i, _ in maps] == [i for i in range(HORIZON - 2) for _ in range(i + 2, HORIZON)]
    by_level = {i: down for i, down in maps}
    assert all(down is by_level[i] for i, down in maps)
    assert len({id(down) for down in by_level.values()}) == HORIZON - 2
    for i, down in by_level.items():
        assert set(down) == per_level[i]
        assert all(nu == system.tree.restrict(eta, i) for eta, nu in down.items())


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_check_tests_stability_on_every_triple(system, monkeypatch):
    elem = deep_element(system)
    triples = []
    stability = cli.restriction_stability

    def counted(a, i, j, k):
        triples.append((i, j, k))
        return stability(a, i, j, k)

    monkeypatch.setattr(cli, "restriction_stability", counted)
    report, code = _run_check(system, [elem], CHECK_ARGS)
    assert (report["ok"], code) == (True, 0)
    assert len(triples) == len(set(triples)) == comb(HORIZON, 3) == 364


# -- the trusted named-tuple constructors -------------------------------------------


def validated(a):
    """``a`` rebuilt through the validating constructors: ``Node`` rebuilds
    every node of its coboundary part, ``module_element`` checks it, and
    ``planted`` checks every branch."""
    system = a.system
    ring, tree = system.ring, system.tree
    fact = coboundary(system, {
        level: module_element(level, [((Node(*n), l), c) for n, l, c in e.terms], ring, tree)
        for level, e in a.fact.entries})
    return planted(system, list(a.combo), fact)


def recording_restrict(monkeypatch, tree) -> list:
    """Record ``(level, node)`` for every node the family's ``_restrict`` returns."""
    restricted = []
    family = type(tree)
    restrict = family._restrict

    def recorded(self, address, i):
        node = restrict(self, address, i)
        restricted.append((i, node))
        return node

    monkeypatch.setattr(family, "_restrict", recorded)
    return restricted


@settings(max_examples=40, deadline=None)
@given(system=systems, deep=st.booleans(), height=st.integers(3, 8),
       rng=st.randoms(use_true_random=False))
def test_trusted_builds_equal_the_validating_constructors(system, deep, height, rng):
    """On check-deep-shaped elements (a coboundary part up to level 8, read
    below 14) and on the sampler's suite elements at each oracle height, every
    entry equals its reference built by the validating constructors, with the
    same type, hash and ``repr``, and every node ``_restrict`` returns is the
    node ``Node`` builds, and valid."""
    tree = system.tree
    if deep:
        a, horizon = random_planted(system, rng, max_fact_levels=4, level_cap=9), HORIZON
    else:
        a = random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
        horizon = height
    reference = validated(a)
    assert reference == a
    with pytest.MonkeyPatch.context() as patch:
        restricted = recording_restrict(patch, tree)
        if not deep:
            truncate(system, height, universe_for(system, [a], height))
        for i in range(horizon):
            for j in range(i + 1, horizon):
                entry, want = a.eval_entry(i, j), reference_entry(reference, i, j)
                assert type(entry) is ModuleElement
                assert all(type(node) is Node for node, _, _ in entry.terms)
                assert entry == want
                assert (hash(entry), repr(entry)) == (hash(want), repr(want))
    assert restricted or not a.combo
    for level, node in restricted:
        assert type(node) is Node
        assert node == Node(level, node.address)
        assert repr(node) == repr(Node(level, node.address))
        tree.check_node(node)


def counting_constructions(monkeypatch) -> Counter:
    """Count the calls of the classes ``Node`` and ``ModuleElement``: each runs
    the class's Python-level ``__new__``, which the trusted constructors skip."""
    counts = Counter()
    for cls in (Node, ModuleElement):
        new = cls.__new__

        def counted(klass, *args, new=new, name=cls.__name__, **kwargs):
            counts[name] += 1
            return new(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)
    return counts


def write_system(tmp_path, system) -> str:
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system.to_json()))
    return str(path)


# The coboundary terms of each family's ``deep_element``: the nodes a ``check``
# of it reads from its file.
CHECK_READS = {"disjoint_branches": 5, "finite_support": 8, "decreasing_seq": 5}


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_check_calls_the_classes_only_to_read_its_file(system, tmp_path, monkeypatch, capsys):
    """``check --horizon 14`` builds one ``Node`` per term node it reads, in
    ``node_from_json``, and no ``ModuleElement`` through the class: the
    entries, the branch nodes and the restrictions are built by the trusted
    constructors."""
    elem = deep_element(system)
    elem_path = tmp_path / "elem.json"
    elem_path.write_text(json.dumps(elem.to_json()))
    argv = ["--system", write_system(tmp_path, system), "--element", str(elem_path),
            "--cmd", "check", "--horizon", str(HORIZON)]
    counts = counting_constructions(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    read = sum(len(e.terms) for _, e in elem.fact.entries)
    assert (counts["Node"], counts["ModuleElement"]) == (read, 0)
    assert read == CHECK_READS[system.tree.kind]


# The nodes the sampler draws for ``oracle-verify --horizon 8 --seed 0``.
ORACLE_DRAWS = {"disjoint_branches": 58, "finite_support": 59, "decreasing_seq": 51}


@pytest.mark.parametrize("system", SYSTEMS, ids=FAMILY_IDS)
def test_oracle_verify_calls_the_classes_only_in_the_sampler(system, tmp_path, monkeypatch,
                                                            capsys):
    """A 20-element ``oracle-verify`` builds a ``Node`` through the class only
    where the sampler draws one, and no ``ModuleElement``."""
    argv = ["--system", write_system(tmp_path, system), "--cmd", "oracle-verify",
            "--horizon", "8", "--seed", "0"]
    counts = counting_constructions(monkeypatch)
    rng = Random(0)
    for _ in range(20):
        random_planted(system, rng, level_cap=3, index_cap=7)
    drawn = counts.copy()
    counts.clear()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert counts == drawn
    assert (drawn["Node"], drawn["ModuleElement"]) == (ORACLE_DRAWS[system.tree.kind], 0)
