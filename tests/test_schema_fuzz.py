"""Mutated system and element files at the command line.

Each base case is a valid system file with two valid element files.  A
mutation drops one key or swaps one value (anywhere in one of the three
files) for a float, a boolean, a string, a list or ``null``.  Every mutant
goes through ``cli.main`` for ``decompose``, ``equiv``, ``check`` and
``card``: the exit code must be 0, 1 or 2, no exception may escape, and exit 1
must come with the command's evidence (``equiv``'s certificate, or a
``check`` element that is not ok).  Each field named in ``FIELDS`` gets a run
of its own that draws only among the places holding it, so ``level``, ``l``,
``coeff``, ``m`` and ``count`` are always mutated; the last run draws among
all places.
"""

import copy
import io
import json
from contextlib import redirect_stdout

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
    module_element,
    planted,
)
from invsys.cli import main


def _y(system, level, terms):
    elem = module_element(level, terms, system.ring, system.tree)
    return coboundary(system, {level: elem})


def _cases():
    disjoint = System(Ring(3), DisjointBranchesTree(2))
    support = System(Ring(2), FiniteSupportTree((3,), 2))
    decreasing = System(Ring(3), DecreasingSeqTree())
    b0, b1 = disjoint.tree.branch(0), disjoint.tree.branch(1)
    s1 = support.tree.branch(((0, 2),))
    return [
        (disjoint,
         planted(disjoint, {b0: 1}, _y(disjoint, 1, {(Node(1, 0), 2): 1})),
         planted(disjoint, {b1: 2}, _y(disjoint, 0, {(Node(0, 1), 1): 1, (Node(0, 0), 2): 2}))),
        (support,
         branch_generator(support, s1) + planted(support, {}, _y(support, 1, {(Node(1, ()), 3): 1})),
         planted(support, {}, _y(support, 2, {(Node(2, ((0, 1),)), 3): 1}))),
        (decreasing,
         planted(decreasing, {}, _y(decreasing, 2, {(Node(2, (3, 1)), 3): 2})),
         planted(decreasing, {}, _y(decreasing, 1, {(Node(1, (0,)), 2): 1}))),
    ]


BASES = [tuple(x.to_json() for x in case) for case in _cases()]


def _paths(obj, path=()):
    """Every place in a JSON value, the root included, as a key/index path."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


# (case, file: 0 system, 1 and 2 elements, path), one per mutable place
TARGETS = [(c, f, path) for c, base in enumerate(BASES) for f, doc in enumerate(base)
           for path in _paths(doc)]
FIELDS = ("level", "l", "coeff", "m", "count", None)
OPS = ("drop", "float", "bool", "string", "list", "null")


def _replacement(value, op, flag):
    if op == "float":
        return float(value) if isinstance(value, int) and not isinstance(value, bool) else 1.5
    return {"bool": flag, "string": str(value), "list": [value], "null": None}[op]


def _mutate(doc, path, op, flag):
    if not path:
        return doc if op == "drop" else _replacement(doc, op, flag)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop" and isinstance(parent, dict):
        del parent[key]
    elif op != "drop":
        parent[key] = _replacement(parent[key], op, flag)
    return doc


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f or "any")
def test_mutated_input_exits_0_1_or_2_with_evidence(workdir, field):
    targets = [t for t in TARGETS if field is None or (t[2] and t[2][-1] == field)]
    assert targets

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(target=st.sampled_from(targets), op=st.sampled_from(OPS), flag=st.booleans())
    def mutant_runs_cleanly(target, op, flag):
        case, which, path = target
        docs = list(BASES[case])
        docs[which] = _mutate(docs[which], path, op, flag)
        files = []
        for name, doc in zip(("system", "a", "b"), docs):
            (workdir / f"{name}.json").write_text(json.dumps(doc))
            files.append(str(workdir / f"{name}.json"))
        system, a, b = files
        for cmd, elements in [("decompose", [a]), ("equiv", [a, b]),
                              ("check", [a, b]), ("card", [a])]:
            argv = ["--system", system, "--cmd", cmd]
            for elem in elements:
                argv += ["--element", elem]
            code, report = _run(argv)
            assert code in (0, 1, 2), (cmd, report)
            if code == 1:
                if cmd == "equiv":
                    assert report["equivalent"] is False and "certificate" in report
                else:
                    assert cmd == "check", (cmd, report)
                    assert any(not e["ok"] for e in report["elements"])

    mutant_runs_cleanly()
