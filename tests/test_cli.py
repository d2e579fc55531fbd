import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Node,
    Planted,
    Ring,
    System,
    TruncatedSystem,
    branch_generator,
    cli,
    coboundary,
    decomp,
    module_element,
    oracle,
    planted,
)
from invsys.cli import main
from invsys.system import SchemaError


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sys1_path(tmp_path, sys1):
    return write_json(tmp_path / "sys1.json", sys1.to_json())


@pytest.fixture
def sys2_path(tmp_path, sys2):
    return write_json(tmp_path / "sys2.json", sys2.to_json())


def gen_file(tmp_path, system, name, index):
    elem = branch_generator(system, system.tree.branch(index))
    return write_json(tmp_path / name, elem.to_json())


def test_card_branchless(sys2_path, capsys):
    code = main(["--system", sys2_path, "--cmd", "card"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["cardinality"] == 1


def test_card_three_branches(tmp_path, sys3, capsys):
    path = write_json(tmp_path / "sys3.json", sys3.to_json())
    code = main(["--system", path, "--cmd", "card"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["cardinality"] == 8
    assert report["certified"]["pairs_checked"] == 28


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("count", [100000, 10 ** 9])
def test_card_too_many_digits_exit_2(tmp_path, capsys, fmt, count):
    """A cardinality past the printable digit limit is refused from ``m`` and
    ``count`` alone: 3 ** 10 ** 9 is never built."""
    path = write_json(tmp_path / "big.json", {"ring": {"kind": "zmod", "m": 3},
                                              "tree": {"kind": "disjoint_branches", "count": count}})
    code = main(["--system", path, "--cmd", "card", "--format", fmt])
    out = capsys.readouterr()
    message = (f"$.tree.count: the cardinality 3**{count} has more than "
               f"{cli.MAX_CARD_DIGITS} decimal digits, the most card prints")
    assert code == 2
    assert out.out == (json.dumps({"error": message}, indent=2) + "\n" if fmt == "json"
                       else f"error: {message}\n")
    assert out.err == ""


@pytest.mark.parametrize("modulus, count, refused", [(10, 4299, False), (10, 4300, True),
                                                     (2, 14284, False), (2, 14285, True)])
def test_card_digit_limit_is_exact(tmp_path, capsys, modulus, count, refused):
    path = write_json(tmp_path / "edge.json", {"ring": {"kind": "zmod", "m": modulus},
                                               "tree": {"kind": "disjoint_branches", "count": count}})
    code = main(["--system", path, "--cmd", "card"])
    report = json.loads(capsys.readouterr().out)
    assert code == (2 if refused else 0)
    assert ("error" in report) == refused


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_card_digit_limit_follows_a_lower_interpreter_limit(tmp_path, fresh_cli, fmt):
    """Under an interpreter limit below ``MAX_CARD_DIGITS`` the bound is that
    limit: a power of more digits exits 2 with the ``$.tree.count`` error, not
    a traceback from printing it."""
    env = {"PYTHONINTMAXSTRDIGITS": "640"}
    for count in (640, 639):
        path = write_json(tmp_path / "edge.json", {
            "ring": {"kind": "zmod", "m": 10},
            "tree": {"kind": "disjoint_branches", "count": count}})
        run = fresh_cli(["--system", path, "--cmd", "card", "--format", fmt], env=env,
                        timeout=120)
        assert run.stderr == ""
        if count == 640:
            message = ("$.tree.count: the cardinality 10**640 has more than 640 decimal "
                       "digits, the most card prints")
            assert run.returncode == 2
            assert run.stdout == (json.dumps({"error": message}, indent=2) + "\n"
                                  if fmt == "json" else f"error: {message}\n")
        else:
            assert run.returncode == 0
            assert str(10 ** 639) in run.stdout


def test_equiv_inequivalent_generators(tmp_path, sys1, sys1_path, capsys):
    a = gen_file(tmp_path, sys1, "a.json", 0)
    b = gen_file(tmp_path, sys1, "b.json", 1)
    code = main(["--system", sys1_path, "--element", a, "--element", b, "--cmd", "equiv"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["equivalent"] is False
    assert report["certificate"]["kind"] == "decomposition"
    assert len(report["certificate"]["combo"]) == 2


def test_equiv_modulo_coboundary(tmp_path, sys1, sys1_path, capsys):
    a = branch_generator(sys1, sys1.tree.branch(0))
    y0 = module_element(0, {(Node(0, 0), 1): 1}, sys1.ring, sys1.tree)
    b = a + planted(sys1, {}, coboundary(sys1, {0: y0}))
    pa = write_json(tmp_path / "a.json", a.to_json())
    pb = write_json(tmp_path / "b.json", b.to_json())
    code = main(["--system", sys1_path, "--element", pa, "--element", pb, "--cmd", "equiv"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["equivalent"] is True
    assert report["certificate"]["kind"] == "witness"


def test_check_zero_element(tmp_path, sys1_path, capsys):
    path = write_json(tmp_path / "zero.json", {"combo": [], "fact_y": []})
    code = main(["--system", sys1_path, "--element", path, "--cmd", "check"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True


def test_decompose_report_shape(tmp_path, sys1, sys1_path, capsys):
    y0 = module_element(0, {(Node(0, 0), 1): 1}, sys1.ring, sys1.tree)
    elem = planted(
        sys1, {sys1.tree.branch(0): 1, sys1.tree.branch(1): 2},
        coboundary(sys1, {0: y0}),
    )
    path = write_json(tmp_path / "elem.json", elem.to_json())
    code = main(["--system", sys1_path, "--element", path, "--cmd", "decompose"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [entry["coeff"] for entry in report["combo"]] == [1, 2]
    assert report["residual_y"][0]["level"] == 0
    assert report["verified_to"] >= 8


def test_decompose_reads_only_the_levels_y_occupies(tmp_path, sys1_path, capsys):
    # normalization evaluates one entry per nonzero level of y, so a term at
    # level 10**6 costs no more than one at level 3
    deep = 10 ** 6
    y = [{"level": level, "elem": {"level": level, "terms": [
        {"node": {"level": level, "address": address}, "l": level + 1, "coeff": coeff}]}}
        for level, address, coeff in ((3, 0, 1), (deep, 1, 2))]
    path = write_json(tmp_path / "deep.json", {"combo": [{"branch": 0, "coeff": 1}], "fact_y": y})
    code = main(["--system", sys1_path, "--element", path, "--cmd", "decompose"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["combo"] == [{"branch": 0, "coeff": 1}]
    assert report["residual_y"] == y
    assert report["verified_to"] == 2 * (deep + 1) + 4


def test_decomposition_certificate_reverifies(tmp_path, sys1, sys1_path, capsys):
    y0 = module_element(0, {(Node(0, 0), 2): 2}, sys1.ring, sys1.tree)
    elem = planted(sys1, {sys1.tree.branch(1): 2}, coboundary(sys1, {0: y0}))
    path = write_json(tmp_path / "elem.json", elem.to_json())
    assert main(["--system", sys1_path, "--element", path, "--cmd", "decompose"]) == 0
    report = json.loads(capsys.readouterr().out)
    rebuilt = write_json(
        tmp_path / "rebuilt.json",
        {"combo": report["combo"], "fact_y": report["residual_y"]},
    )
    assert main(["--system", sys1_path, "--element", rebuilt, "--cmd", "check"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_witness_certificate_reverifies(tmp_path, sys1, sys1_path, capsys):
    a = branch_generator(sys1, sys1.tree.branch(0))
    y0 = module_element(0, {(Node(0, 0), 1): 1}, sys1.ring, sys1.tree)
    b = a + planted(sys1, {}, coboundary(sys1, {0: y0}))
    pa = write_json(tmp_path / "a.json", a.to_json())
    pb = write_json(tmp_path / "b.json", b.to_json())
    assert main(["--system", sys1_path, "--element", pa, "--element", pb, "--cmd", "equiv"]) == 0
    report = json.loads(capsys.readouterr().out)
    witness = write_json(
        tmp_path / "witness.json",
        {"combo": [], "fact_y": report["certificate"]["y"]},
    )
    assert main(["--system", sys1_path, "--element", witness, "--cmd", "check"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_oracle_verify_elements(tmp_path, sys1, sys1_path, capsys):
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "oracle-verify"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checked"] == 1
    assert report["failures"] == []


def test_oracle_verify_seeded_suite(sys1_path, capsys):
    code = main(["--system", sys1_path, "--cmd", "oracle-verify", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checked"] == 20
    assert report["failures"] == []


def test_schema_error_exit_code(tmp_path, sys1_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"combo\": [{\"branch\": 7, \"coeff\": 1}], \"fact_y\": []}")
    code = main(["--system", sys1_path, "--element", str(bad), "--cmd", "check"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "error" in report


def test_invalid_json_exit_code(tmp_path, sys1_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["--system", sys1_path, "--element", str(bad), "--cmd", "check"])
    assert code == 2
    capsys.readouterr()


# One past the 4300 digits Python reads by default in an integer literal.
HUGE_LITERAL = "1" + "0" * 4400


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python reads integer literals of any length")
@pytest.mark.parametrize("which", ["system", "element"])
def test_oversized_integer_literal_names_the_file(tmp_path, sys1_path, capsys, which):
    """``json.load`` refuses such a literal with a plain ``ValueError``, not a
    ``JSONDecodeError``; it is reported as invalid JSON in the named file."""
    if which == "system":
        bad = tmp_path / "sys.json"
        bad.write_text('{"ring": {"kind": "zmod", "m": %s}, '
                       '"tree": {"kind": "disjoint_branches", "count": 2}}' % HUGE_LITERAL)
        argv = ["--system", str(bad), "--cmd", "card"]
    else:
        bad = tmp_path / "a.json"
        bad.write_text('{"combo": [{"branch": 0, "coeff": %s}], "fact_y": []}' % HUGE_LITERAL)
        argv = ["--system", sys1_path, "--element", str(bad), "--cmd", "check"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"].startswith(f"{bad}: invalid JSON: ")
    assert "4300" in report["error"]


# Far deeper than the recursion limit of Python's JSON decoder.
DEEP_NESTING = "[" * 100000


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("which", ["system", "element"])
def test_deeply_nested_file_is_invalid_json(tmp_path, sys1_path, fresh_cli, which, fmt):
    """The decoder gives up with a ``RecursionError``; it is reported as
    invalid JSON in the named file, exit 2, with no traceback."""
    bad = tmp_path / f"{which}.json"
    bad.write_text(DEEP_NESTING)
    if which == "system":
        argv = ["--system", str(bad), "--cmd", "card"]
    else:
        argv = ["--system", sys1_path, "--element", str(bad), "--cmd", "check"]
    run = fresh_cli([*argv, "--format", fmt], timeout=120)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    error = json.loads(run.stdout)["error"] if fmt == "json" else run.stdout.removeprefix("error: ")
    assert error.startswith(f"{bad}: invalid JSON: ")
    assert "recursion" in error


def _reference_read_json(path: str):
    """What ``_read_json`` must return or raise: ``json.load`` on the file opened
    in text mode as UTF-8, with universal newlines."""
    try:
        with open(path, encoding="utf-8") as handle:
            try:
                return json.load(handle)
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from exc


READ_CASES = {
    "crlf": b'{\r\n  "combo": [{"branch": 1, "coeff": 2}],\r\n  "fact_y": []\r\n}\r\n',
    "crlf before a syntax error": b'{\r\n  "combo": [\r\n    1 2]}\r\n',
    "lone cr before a syntax error": b'{\r"combo":\r\r[1,,2]}',
    "cr inside a string": b'{"a\rb": 1}',
    "utf-8 bom": b'\xef\xbb\xbf{"combo": []}',
    "invalid utf-8": b'{"combo": [\xff]}',
    "utf-8 cut inside a character": b'{"a": "\xc3',
    "utf-16": '{"combo": []}'.encode("utf-16"),
    "non-ascii text": '{"\u00e9": "\u00fc\u4e2d"}'.encode(),
    "truncated json": b'{"combo": [{"branch": 1, ',
    "empty file": b"",
    "nesting past the recursion limit": DEEP_NESTING.encode(),
    "over-long integer": HUGE_LITERAL.encode(),
}


@pytest.mark.parametrize("case", READ_CASES)
def test_read_json_matches_json_load_on_the_text_file(tmp_path, case):
    """The one-pass reader returns the value, or raises the ``SchemaError`` text,
    that ``json.load`` on the file opened as UTF-8 text gives: line and column
    after a CR, the BOM and UTF-8 faults, the decoder's limits."""
    path = tmp_path / "elem.json"
    path.write_bytes(READ_CASES[case])
    try:
        want = ("value", _reference_read_json(str(path)))
    except SchemaError as exc:
        want = ("error", str(exc))
    try:
        got = ("value", cli._read_json(str(path)))
    except SchemaError as exc:
        got = ("error", str(exc))
    assert got == want


def test_missing_file_exit_code(sys1_path, capsys):
    code = main(["--system", sys1_path, "--element", "/nonexistent.json", "--cmd", "check"])
    assert code == 2
    capsys.readouterr()


# family -> (system, address at level 1, address at level 2, branch or None)
LOAD_CASES = {
    "disjoint_branches": (System(Ring(3), DisjointBranchesTree(2)), 0, 1, 1),
    "finite_support": (System(Ring(3), FiniteSupportTree((), 2)), [[0, 1]], [], [[4, 1]]),
    "decreasing_seq": (System(Ring(3), DecreasingSeqTree()), [4], [3, 1], None),
}


@pytest.mark.parametrize("family", LOAD_CASES)
def test_loading_an_element_checks_each_node_once(family, tmp_path, monkeypatch):
    """Four ``y`` terms, one ``(node, l)`` given twice and one coefficient 0:
    ``check_node`` runs once per term, and the element is the one
    ``module_element`` builds from the same terms."""
    system, low, high, branch = LOAD_CASES[family]
    tree = system.tree

    def term(level, address, l, coeff):
        return {"node": {"level": level, "address": address}, "l": l, "coeff": coeff}

    low_terms = [term(1, low, 2, 1), term(1, low, 2, 1), term(1, low, 3, 0)]
    obj = {"combo": [] if branch is None else [{"branch": branch, "coeff": 2}],
           "fact_y": [{"level": 1, "elem": {"level": 1, "terms": low_terms}},
                      {"level": 2, "elem": {"level": 2, "terms": [term(2, high, 5, 1)]}}]}
    path = write_json(tmp_path / "elem.json", obj)
    n1 = Node(1, tree._address_from_json(low, "node"))
    n2 = Node(2, tree._address_from_json(high, "node"))
    calls = []
    check_node = type(tree).check_node
    monkeypatch.setattr(type(tree), "check_node",
                        lambda self, node: calls.append(node) or check_node(self, node))
    loaded = cli.load_element(path, system)
    monkeypatch.undo()
    assert calls == [n1, n1, n1, n2]
    fact = coboundary(system, {
        1: module_element(1, [((n1, 2), 1), ((n1, 2), 1), ((n1, 3), 0)], system.ring, tree),
        2: module_element(2, {(n2, 5): 1}, system.ring, tree)})
    combo = {} if branch is None else {tree.branch_from_json(branch): 2}
    assert loaded == planted(system, combo, fact)
    assert loaded.fact.entries[0][1].terms == ((n1, 2, 2),)


# family -> the branches an element's combo lists, repeats included; the
# decreasing-sequence tree has none, so its one entry is refused
BRANCH_LISTS = {
    "disjoint_branches": [1, 0, 1],
    "finite_support": [[[4, 1]], [], [[2, 1], [0, 1]], [[4, 1]]],
    "decreasing_seq": [[2, 1]],
}


@pytest.mark.parametrize("family", LOAD_CASES)
def test_loading_an_element_checks_each_branch_once(family, tmp_path, monkeypatch):
    """An element with k combo entries calls ``Tree.branch`` k times, and is the
    element ``planted`` builds from the same pairs."""
    system = LOAD_CASES[family][0]
    tree = system.tree
    branches = BRANCH_LISTS[family]
    obj = {"combo": [{"branch": b, "coeff": n + 1} for n, b in enumerate(branches)],
           "fact_y": []}
    path = write_json(tmp_path / "elem.json", obj)
    calls = []
    branch = type(tree).branch
    monkeypatch.setattr(type(tree), "branch",
                        lambda self, presentation: calls.append(presentation)
                        or branch(self, presentation))
    if family == "decreasing_seq":
        with pytest.raises(SchemaError) as caught:
            cli.load_element(path, system)
        assert str(caught.value) == (f"{path}: $.combo[0].branch: "
                                     "a decreasing-sequence tree has no branches")
    else:
        loaded = cli.load_element(path, system)
    monkeypatch.undo()
    assert calls == [tree._address_from_json(b, "branch") for b in branches]
    if family != "decreasing_seq":
        pairs = [(tree.branch_from_json(b), n + 1) for n, b in enumerate(branches)]
        assert loaded == planted(system, pairs)


def _faulty(term=None, branch=1, tag=1):
    """An element on the two disjoint branches with two combo entries and two
    coboundary levels of three terms each; ``term`` replaces the third term at
    level 1 (a field mapped to None is dropped), ``branch`` the second branch,
    ``tag`` the second level tag."""
    def terms(level):
        return [{"node": {"level": level, "address": a}, "l": level + 2 + a, "coeff": 1}
                for a in (0, 1, 0)]
    last = terms(1)
    if term is not None:
        last[2] = {k: v for k, v in {**last[2], **term}.items() if v is not None}
    return {"combo": [{"branch": 0, "coeff": 1}, {"branch": branch, "coeff": 2}],
            "fact_y": [{"level": 0, "elem": {"level": 0, "terms": terms(0)}},
                       {"level": tag, "elem": {"level": 1, "terms": last}}]}


FAULTS_AT_AN_INDEX = {
    "terms[2].node": (_faulty(term={"node": {"level": 1, "address": 5}}),
                      "$.fact_y[1].elem.terms[2].node: node address must be a branch index "
                      "below 2: Node(level=1, address=5)"),
    "terms[2].node at another level": (
        _faulty(term={"node": {"level": 2, "address": 0}}),
        "$.fact_y[1].elem.terms[2]: term node Node(level=2, address=0) is not at level 1"),
    "terms[2].l": (_faulty(term={"l": 1}),
                   "$.fact_y[1].elem.terms[2]: generator index 1 must exceed the level 1"),
    "terms[2].l missing": (_faulty(term={"l": None}), "$.fact_y[1].elem.terms[2].l: missing key"),
    "terms[2].l a string": (_faulty(term={"l": "4"}), "$.fact_y[1].elem.terms[2]: "
                            "generator index must be an integer, got '4'"),
    "terms[2].coeff": (_faulty(term={"coeff": 1.5}),
                       "$.fact_y[1].elem.terms[2]: coefficient must be an integer, got 1.5"),
    "combo[1].branch": (_faulty(branch=2), "$.combo[1].branch: branch index must lie below 2: 2"),
    "fact_y[1].level": (_faulty(tag=2),
                        "$.fact_y[1].level: level tag 2 does not match element level 1"),
}


@pytest.mark.parametrize("case", FAULTS_AT_AN_INDEX)
def test_schema_error_names_the_faulty_item_exactly(tmp_path, sys1, case):
    """A fault in an item past the first is reported with that item's index and
    field, in exactly the words a fault in the first item gets."""
    obj, message = FAULTS_AT_AN_INDEX[case]
    path = write_json(tmp_path / "elem.json", obj)
    with pytest.raises(SchemaError) as caught:
        cli.load_element(path, sys1)
    assert str(caught.value) == f"{path}: {message}"


def test_determinism_byte_identical(tmp_path, sys1, sys1_path, capsys):
    a = gen_file(tmp_path, sys1, "a.json", 0)
    runs = []
    for _ in range(2):
        for cmd, extra in [
            ("check", [ "--element", a]),
            ("decompose", ["--element", a]),
            ("card", []),
            ("oracle-verify", ["--seed", "42"]),
        ]:
            main(["--system", sys1_path, "--cmd", cmd, *extra])
            runs.append((cmd, capsys.readouterr().out))
    half = len(runs) // 2
    assert runs[:half] == runs[half:]


def test_text_format_renders(tmp_path, sys1, sys1_path, capsys):
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "check", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok: True" in out


# -- malformed input: exit 2 with the JSON path, never a traceback -------------------

GOOD_SYSTEM = {"ring": {"kind": "zmod", "m": 3}, "tree": {"kind": "disjoint_branches", "count": 2}}
FINITE_SUPPORT = {"ring": GOOD_SYSTEM["ring"],
                  "tree": {"kind": "finite_support", "widths": {"table": [3], "eventual": 2}}}
DECREASING_SEQ = {"ring": GOOD_SYSTEM["ring"], "tree": {"kind": "decreasing_seq"}}
GOOD_TERM = {"node": {"level": 0, "address": 0}, "l": 1, "coeff": 1}


def with_term(**changes):
    """An element with one coboundary term, ``changes`` applied; None drops a key."""
    term = {k: v for k, v in {**GOOD_TERM, **changes}.items() if v is not None}
    return {"combo": [], "fact_y": [{"level": 0, "elem": {"level": 0, "terms": [term]}}]}


def with_levels(tag=0, elem=0, node=0):
    """An element with one coboundary term at level 0, its three level fields given."""
    term = {**GOOD_TERM, "node": {"level": node, "address": 0}}
    return {"combo": [], "fact_y": [{"level": tag, "elem": {"level": elem, "terms": [term]}}]}


def with_node(level, address):
    """An element with one coboundary term at ``level``, through the node at ``address``."""
    term = {**GOOD_TERM, "node": {"level": level, "address": address}, "l": level + 1}
    return {"combo": [], "fact_y": [{"level": level, "elem": {"level": level, "terms": [term]}}]}


def widths(**changes):
    return {"ring": GOOD_SYSTEM["ring"],
            "tree": {"kind": "finite_support", "widths": {"table": [3], "eventual": 2, **changes}}}


MALFORMED_SYSTEMS = {
    "missing ring.m": ({"ring": {"kind": "zmod"}, "tree": GOOD_SYSTEM["tree"]}, "$.ring.m"),
    "ring.m not an integer": ({"ring": {"kind": "zmod", "m": "3"}, "tree": GOOD_SYSTEM["tree"]},
                              "$.ring.m"),
    "missing tree": ({"ring": GOOD_SYSTEM["ring"]}, "$.tree"),
    "tree.kind a list": ({"ring": GOOD_SYSTEM["ring"], "tree": {"kind": ["decreasing_seq"]}},
                         "$.tree"),
    "missing tree.count": ({"ring": GOOD_SYSTEM["ring"], "tree": {"kind": "disjoint_branches"}},
                           "$.tree.count"),
    "missing widths.eventual": ({"ring": GOOD_SYSTEM["ring"],
                                 "tree": {"kind": "finite_support", "widths": {"table": []}}},
                                "$.tree.widths.eventual"),
    "tree.count a bool": ({"ring": GOOD_SYSTEM["ring"],
                           "tree": {"kind": "disjoint_branches", "count": True}}, "$.tree.count"),
    "tree.count a float": ({"ring": GOOD_SYSTEM["ring"],
                            "tree": {"kind": "disjoint_branches", "count": 2.0}}, "$.tree.count"),
    "widths.table[] a bool": (widths(table=[3, True]), "$.tree.widths.table[1]"),
    "widths.table[] a float": (widths(table=[2.5]), "$.tree.widths.table[0]"),
    "widths.table[] zero": (widths(table=[0]), "$.tree.widths.table[0]"),
    "widths.table[] negative": (widths(table=[2, -1]), "$.tree.widths.table[1]"),
    "widths.table not a list": (widths(table=3), "$.tree.widths.table"),
    "widths.eventual a float": (widths(eventual=2.5), "$.tree.widths.eventual"),
}

MALFORMED_ELEMENTS = {
    "missing combo[].branch": ({"combo": [{"coeff": 1}], "fact_y": []}, "$.combo[0].branch"),
    "missing combo[].coeff": ({"combo": [{"branch": 0}], "fact_y": []}, "$.combo[0].coeff"),
    "combo[].coeff null": ({"combo": [{"branch": 0, "coeff": None}], "fact_y": []}, "$.combo[0]"),
    "combo not a list": ({"combo": 5, "fact_y": []}, "$.combo"),
    "combo[] not an object": ({"combo": [[0, 1]], "fact_y": []}, "$.combo[0]"),
    "missing fact_y[].elem": ({"combo": [], "fact_y": [{"level": 0}]}, "$.fact_y[0].elem"),
    "fact_y[].level mismatched": ({"combo": [], "fact_y": [{**with_term()["fact_y"][0], "level": 1}]},
                                  "$.fact_y[0].level"),
    "combo[].coeff a float": ({"combo": [{"branch": 0, "coeff": 2.7}], "fact_y": []}, "$.combo[0]"),
    "combo[].coeff a bool": ({"combo": [{"branch": 0, "coeff": True}], "fact_y": []}, "$.combo[0]"),
    "combo[].coeff a string": ({"combo": [{"branch": 0, "coeff": "5"}], "fact_y": []}, "$.combo[0]"),
    "combo[].branch a bool": ({"combo": [{"branch": True, "coeff": 1}], "fact_y": []},
                              "$.combo[0].branch"),
    "node address a bool": (with_term(node={"level": 0, "address": True}),
                            "$.fact_y[0].elem.terms[0].node"),
    "terms[].coeff a float": (with_term(coeff=2.7), "$.fact_y[0].elem.terms[0]"),
    "terms[].coeff a bool": (with_term(coeff=True), "$.fact_y[0].elem.terms[0]"),
    "terms[].coeff a string": (with_term(coeff="5"), "$.fact_y[0].elem.terms[0]"),
    "terms[].l a bool": (with_term(l=True), "$.fact_y[0].elem.terms[0]"),
    "missing terms[].l": (with_term(l=None), "$.fact_y[0].elem.terms[0].l"),
    "terms[].l a string": (with_term(l="1"), "$.fact_y[0].elem.terms[0]"),
    "terms[].l a list": (with_term(l=[1]), "$.fact_y[0].elem.terms[0]"),
    "missing terms[].node": (with_term(node=None), "$.fact_y[0].elem.terms[0].node"),
    "node level a string": (with_term(node={"level": "0", "address": 0}),
                            "$.fact_y[0].elem.terms[0].node"),
    "node level a float": (with_levels(node=0.0), "$.fact_y[0].elem.terms[0].node"),
    "node level a bool": (with_levels(node=False), "$.fact_y[0].elem.terms[0].node"),
    "fact_y[].level a float": (with_levels(tag=0.0), "$.fact_y[0]"),
    "fact_y[].level a bool": (with_levels(tag=False), "$.fact_y[0]"),
    "fact_y[].level a string": (with_levels(tag="0"), "$.fact_y[0]"),
    "fact_y[].elem.level a float": (with_levels(elem=0.0), "$.fact_y[0].elem"),
    "fact_y[].elem.level a bool": (with_levels(elem=False), "$.fact_y[0].elem"),
    "fact_y[].elem.level a string": (with_levels(elem="0"), "$.fact_y[0].elem"),
    # The last field names the system, when not the two disjoint branches.
    "support-map branch position a float": (
        {"combo": [{"branch": [[0.7, 1]], "coeff": 1}], "fact_y": []}, "$.combo[0].branch",
        FINITE_SUPPORT),
    "support-map branch value a bool": (
        {"combo": [{"branch": [[0, True]], "coeff": 1}], "fact_y": []}, "$.combo[0].branch",
        FINITE_SUPPORT),
    "support-map node value a float": (with_node(2, [[0, 2.0]]),
                                       "$.fact_y[0].elem.terms[0].node", FINITE_SUPPORT),
    "support-map node position negative": (with_node(3, [[-1, 1]]),
                                           "$.fact_y[0].elem.terms[0].node", FINITE_SUPPORT),
    "sequence node address a float and a bool": (with_node(2, [2.9, True]),
                                                 "$.fact_y[0].elem.terms[0].node", DECREASING_SEQ),
    "sequence node address a string": (with_node(1, ["3"]),
                                       "$.fact_y[0].elem.terms[0].node", DECREASING_SEQ),
    # A term whose coefficient is 0 mod m is checked like any other.
    "terms[].node at another level, coeff 0 mod m": (
        with_term(node={"level": 2, "address": 0}, l=5, coeff=3), "$.fact_y[0].elem.terms[0]"),
    "terms[].l at its level, coeff 0 mod m": (with_term(l=0, coeff=3), "$.fact_y[0].elem.terms[0]"),
    # the term at fault is named, not the first one
    "terms[1].l at its level": (
        {"combo": [], "fact_y": [{"level": 0, "elem": {"level": 0, "terms": [
            GOOD_TERM, {**GOOD_TERM, "l": 0}]}}]},
        "$.fact_y[0].elem.terms[1]"),
}


def assert_schema_exit(args, path, capsys):
    code = main(args)
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert code == 2
    assert f"{path}: " in report["error"]
    assert out.err == ""


@pytest.mark.parametrize("case", MALFORMED_SYSTEMS)
def test_malformed_system_exit_2_with_path(tmp_path, capsys, case):
    obj, path = MALFORMED_SYSTEMS[case]
    sys_path = write_json(tmp_path / "sys.json", obj)
    assert_schema_exit(["--system", sys_path, "--cmd", "card"], path, capsys)


@pytest.mark.parametrize("case", MALFORMED_ELEMENTS)
def test_malformed_element_exit_2_with_path(tmp_path, sys1_path, capsys, case):
    obj, path, *system = MALFORMED_ELEMENTS[case]
    if system:
        sys1_path = write_json(tmp_path / "sys.json", system[0])
    elem = write_json(tmp_path / "elem.json", obj)
    assert_schema_exit(["--system", sys1_path, "--element", elem, "--cmd", "check"], path, capsys)


# family -> (system, node level, {shape: malformed address}); each address is
# malformed as a whole or in one entry, as the family's addresses are built.
MALFORMED_ADDRESSES = {
    "disjoint_branches": (GOOD_SYSTEM, 0, {
        "bool": True, "float": 1.0, "string": "1", "object": {"index": 1},
        "nested list": [[1]], "pair of the wrong length": [0, 1, 1], "null": None}),
    "finite_support": (FINITE_SUPPORT, 2, {
        "bool": [[0, True]], "float": [[0.5, 1]], "string": [[0, "1"]],
        "object": [{"position": 0, "value": 1}], "nested list": [[[0], 1]],
        "pair of the wrong length": [[0, 1, 1]], "null": [None],
        "bool address": True, "object address": {"0": 1}, "null address": None,
        "bad pair after an unordered one": [[1, 1], [0, 1], [0.5, 1]]}),
    "decreasing_seq": (DECREASING_SEQ, 2, {
        "bool": [1, True], "float": [2.0, 1], "string": ["2", 1], "object": [{"v": 2}, 1],
        "nested list": [[2], 1], "pair of the wrong length": [[2, 1, 0], 1], "null": [2, None],
        "string address": "21"}),
}


@pytest.mark.parametrize("position", ("node", "branch"))
@pytest.mark.parametrize("family, shape", [(family, shape)
                                           for family, (_, _, shapes) in MALFORMED_ADDRESSES.items()
                                           for shape in shapes])
def test_malformed_address_exit_2_with_path(tmp_path, capsys, family, shape, position):
    """Every malformed address exits 2 at the JSON path of the node or branch
    that holds it, in node position and in branch position."""
    system, level, shapes = MALFORMED_ADDRESSES[family]
    address = shapes[shape]
    if position == "node":
        obj, path = with_node(level, address), "$.fact_y[0].elem.terms[0].node"
    else:
        obj, path = {"combo": [{"branch": address, "coeff": 1}], "fact_y": []}, "$.combo[0].branch"
    sys_path = write_json(tmp_path / "sys.json", system)
    elem = write_json(tmp_path / "elem.json", obj)
    assert_schema_exit(["--system", sys_path, "--element", elem, "--cmd", "check"], path, capsys)


def test_support_pairs_load_in_any_order(tmp_path, capsys):
    """A support map's pairs may be listed in any order, in a node and in a branch."""
    system = System.from_json(FINITE_SUPPORT)
    tree = system.tree
    elem = write_json(tmp_path / "elem.json",
                      {"combo": [{"branch": [[2, 1], [0, 1]], "coeff": 1}],
                       "fact_y": with_node(3, [[2, 1], [0, 2]])["fact_y"]})
    loaded = cli.load_element(elem, system)
    assert loaded.combo == ((tree.branch(((0, 1), (2, 1))), 1),)
    assert loaded.fact.entries[0][1].terms == ((Node(3, ((0, 2), (2, 1))), 4, 1),)


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("case", ("terms[].node at another level, coeff 0 mod m",
                                  "terms[].l at its level, coeff 0 mod m"))
def test_zero_coefficient_term_is_checked_in_both_formats(tmp_path, sys1_path, capsys, case, fmt):
    obj, path = MALFORMED_ELEMENTS[case]
    elem = write_json(tmp_path / "elem.json", obj)
    code = main(["--system", sys1_path, "--element", elem, "--cmd", "decompose", "--format", fmt])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == ""
    error = json.loads(out.out)["error"] if fmt == "json" else out.out
    assert f"{path}: " in error


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_term_error_names_the_term_in_both_formats(tmp_path, sys1_path, capsys, fmt):
    obj, path = MALFORMED_ELEMENTS["terms[1].l at its level"]
    elem = write_json(tmp_path / "elem.json", obj)
    code = main(["--system", sys1_path, "--element", elem, "--cmd", "decompose", "--format", fmt])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == ""
    error = json.loads(out.out)["error"] if fmt == "json" else out.out
    assert error.rstrip("\n").endswith(f"{elem}: {path}: generator index 0 must exceed the level 0")


def test_oracle_verify_horizon_above_cap_exit_2(sys1_path, capsys):
    code = main(["--system", sys1_path, "--cmd", "oracle-verify", "--horizon", "12"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report == {"error": "oracle-verify horizon must be at most 8, got 12"}


def test_check_horizon_above_cap_exit_2(tmp_path, sys1, sys1_path, capsys):
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "check", "--horizon", "65"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report == {"error": "check horizon must be at most 64, got 65"}


def test_check_default_horizon_above_cap_exit_2(tmp_path, sys1, sys1_path, capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli, "check_eq_recurrences", lambda *args: swept.append(args))
    a = gen_file(tmp_path, sys1, "a.json", 0)
    # One term at level 30: stabilization bound 31, default horizon 2 * 31 + 4 = 66.
    deep = write_json(tmp_path / "deep.json", with_node(30, 0))
    code = main(["--system", sys1_path, "--element", a, "--element", deep, "--cmd", "check"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report == {"error": f"{deep}: default check horizon 66 is above 64; "
                               "pass --horizon 64 or less"}
    assert swept == []


def test_oracle_verify_sweeps_coherence_only_for_a_failing_element(sys1_path, capsys, monkeypatch):
    """Agreement alone decides a passing element; the coherence test runs
    once, for the one element whose table has a flipped entry."""
    sweeps, flipped = [], []
    real_coherent, real_table = TruncatedSystem.table_coherent, TruncatedSystem.primary_table
    monkeypatch.setattr(TruncatedSystem, "table_coherent",
                        lambda self, table: sweeps.append(1) or real_coherent(self, table))
    argv = ["--system", sys1_path, "--cmd", "oracle-verify", "--seed", "5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 20 and sweeps == []

    def one_flipped(self, a):
        table = real_table(self, a)
        if self.dim(0) and not flipped:
            flipped.append(a)
            table[0, 1] = (table.get((0, 1), 0) + 1) % self.modulus
        return table

    monkeypatch.setattr(TruncatedSystem, "primary_table", one_flipped)
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 20 and len(flipped) == len(sweeps) == 1
    label = report["failures"][0]["element"]
    assert report["failures"] == [
        {"element": label, "kind": "agreement", "detail": "tables differ at (0, 1)"},
        {"element": label, "kind": "coherence", "detail": "table incoherent"},
    ]


def test_oracle_verify_builds_one_primary_table_per_element(sys1_path, capsys, monkeypatch):
    tables, truncations = [], []
    real_table, real_truncate = TruncatedSystem.primary_table, oracle.truncate
    monkeypatch.setattr(TruncatedSystem, "primary_table",
                        lambda self, a: tables.append(1) or real_table(self, a))
    # cli imports the oracle inside the command, so it reads the patched name.
    monkeypatch.setattr(oracle, "truncate", lambda *args: truncations.append(1) or real_truncate(*args))
    assert main(["--system", sys1_path, "--cmd", "oracle-verify", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == len(tables) == len(truncations) == 20


def test_oracle_verify_incoherent_table_is_one_coherence_failure(tmp_path, sys1, sys1_path,
                                                                 capsys, monkeypatch):
    real = TruncatedSystem.primary_table

    def incoherent(self, a):
        table = real(self, a)
        top = self.height - 1
        for r in self._rows(0):
            table[r, top] = (table.get((r, top), 0) + 1) % self.modulus
        return table

    monkeypatch.setattr(TruncatedSystem, "primary_table", incoherent)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "oracle-verify"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == 1
    kinds = [f["kind"] for f in failures]
    assert kinds.count("coherence") == 1 and "solve" not in kinds
    assert {"element": a, "kind": "coherence", "detail": "table incoherent"} in failures


def test_oracle_verify_coherent_wrong_table_is_one_agreement_failure(tmp_path, sys1, sys1_path,
                                                                      capsys, monkeypatch):
    """A primary table that is the coboundary table of the wrong vector,
    ``v + e_r`` for the presentation vector ``v``, is coherent: it fails
    agreement alone, at its first pair."""
    def shifted(self, a):
        v = self.presentation_vector(a)
        # coordinate 0 lies in level 0, so the tables differ from (0, 1) on
        v[0] = v.get(0, 0) + 1
        return self._coboundary_table(v)

    monkeypatch.setattr(TruncatedSystem, "primary_table", shifted)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "oracle-verify"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == 1
    assert failures == [{"element": a, "kind": "agreement", "detail": "tables differ at (0, 1)"}]


def test_internal_certification_failure_exit_3(tmp_path, sys1, sys1_path, capsys, monkeypatch):
    def failing(a, dec):
        raise AssertionError("decomposition does not reproduce entry (0, 1)")

    monkeypatch.setattr(decomp, "_verify_decomposition", failing)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "decompose"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {
        "error": "internal certification failure: decomposition does not reproduce entry (0, 1)"}
    assert out.err == ""


def test_miscertified_decomposition_exit_3(tmp_path, sys1, sys1_path, capsys, monkeypatch):
    """A normalization witness that does not absorb the coboundary part gives a
    certificate that fails its own check: exit 3, not an answer."""
    real = decomp.normalize_cobounded
    extra = coboundary(sys1, {0: module_element(0, {(Node(0, 1), 1): 1}, sys1.ring, sys1.tree)})

    def forged(a):
        normal = real(a)
        return normal._replace(witness=normal.witness + extra)

    monkeypatch.setattr(decomp, "normalize_cobounded", forged)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "decompose"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {"error": "internal certification failure: decomposition "
                                            "does not reproduce the element's presentation"}
    assert out.err == ""


def _drop_a_term(entry):
    return entry._replace(terms=entry.terms[1:])


def _two_terms_on_one_node(entry):
    (node, l, c0), (_, _, c1), *rest = entry.terms
    terms = {(node, l): c0 + c1, **{(n, k): c for n, k, c in rest}}
    return module_element(entry.level, terms, entry.ring, entry.tree)


def _coefficient_two(entry):
    (node, l, _), *rest = entry.terms
    return entry._replace(terms=((node, l, 2), *rest))


@pytest.mark.parametrize("fault", [_drop_a_term, _two_terms_on_one_node, _coefficient_two])
def test_card_unseparated_probe_entry_exit_3(tmp_path, sys1, capsys, monkeypatch, fault):
    """A probed entry that does not show n separated branch nodes, each with
    coefficient 1, fails the separation certificate: exit 3, not an answer."""
    real = Planted.eval_entry
    monkeypatch.setattr(Planted, "eval_entry", lambda self, i, j: fault(real(self, i, j)))
    with pytest.raises(AssertionError):
        decomp.quotient_card_report(sys1)
    path = write_json(tmp_path / "sys1.json", sys1.to_json())
    code = main(["--system", path, "--cmd", "card"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {"error": "internal certification failure: "
                                            "branch nodes are not separated at the probe level"}
    assert out.err == ""


# -- dispatch ---------------------------------------------------------------------------

@pytest.mark.parametrize("cmd", ["check", "decompose", "equiv", "card", "oracle-verify"])
def test_main_finds_each_handler_when_it_is_called(tmp_path, sys1, sys1_path, capsys,
                                                   monkeypatch, cmd):
    """``main`` looks ``_run_<cmd>`` up in the module on every call, so a
    handler replaced after import (by a test or by the benchmark's tracer)
    sees each call."""
    calls = []

    def handler(*args):
        calls.append(args)
        return {"command": cmd}, 0

    monkeypatch.setattr(cli, f"_run_{cmd.replace('-', '_')}", handler)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    elements = ["--element", a] * (2 if cmd == "equiv" else 1)
    assert main(["--system", sys1_path, *elements, "--cmd", cmd]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out) == {"command": cmd}


# -- one parser per process ------------------------------------------------------------

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_import_builds_no_parser(tmp_path, fresh_cli):
    probe = "import invsys.cli as c; print(c.build_parser.cache_info().currsize)"
    child = fresh_cli([], code=probe, cwd=tmp_path, timeout=120, check=True)
    assert child.stdout == "0\n"


def test_repeated_elements_do_not_leak_into_the_next_call(tmp_path, sys1, sys1_path, capsys,
                                                          monkeypatch, fresh_cli):
    """``--element`` appends to a list whose default the parser keeps; two
    elements for ``equiv`` must not reach the ``decompose`` call after it."""
    monkeypatch.chdir(tmp_path)
    gen_file(tmp_path, sys1, "a.json", 0)
    gen_file(tmp_path, sys1, "b.json", 1)
    calls = [["--system", "sys1.json", "--element", "a.json", "--element", "b.json",
              "--cmd", "equiv"],
             ["--system", "sys1.json", "--element", "a.json", "--cmd", "decompose"]]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    fresh = [fresh_cli(argv, cwd=tmp_path, timeout=120) for argv in calls]
    assert in_process == [(child.returncode, child.stdout) for child in fresh]
    assert [code for code, _ in in_process] == [1, 0]


def test_a_call_refused_by_the_parser_leaves_the_next_unchanged(tmp_path, sys1, sys1_path,
                                                                 capsys):
    a = gen_file(tmp_path, sys1, "a.json", 0)
    argv = ["--system", sys1_path, "--element", a, "--cmd", "decompose"]
    before = main(argv), capsys.readouterr().out
    assert before[0] == 0
    with pytest.raises(SystemExit) as caught:
        main(["--system", sys1_path, "--element", a, "--element", a])  # no --cmd
    assert caught.value.code == 2
    assert "--cmd" in capsys.readouterr().err
    assert (main(argv), capsys.readouterr().out) == before


# -- two readers of argv, one option table -----------------------------------------------

def written_out_parser():
    """The parser with its options written out one ``add_argument`` call each,
    as before ``OPTIONS`` stated them once: the parser built from the table
    must keep its help text and every usage error."""
    parser = cli._Parser(
        prog="invsys",
        description="exact computations in inverse systems of free Z/m-modules over a tree",
    )
    parser.add_argument("--system", required=True, help="path to a system file")
    parser.add_argument(
        "--element", action="append", default=[], help="path to an element file (repeatable)"
    )
    parser.add_argument("--cmd", required=True,
                        choices=("check", "decompose", "equiv", "card", "oracle-verify"))
    parser.add_argument(
        "--horizon", type=int, default=None,
        help="check horizon (3 to 64); oracle-verify height (3 to 8)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def parse_outcome(parser, argv):
    """What ``parser.parse_args(argv)`` returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        except TypeError as exc:  # an item of argv that is not a str
            result = ("TypeError", str(exc))
    return result, out.getvalue(), err.getvalue()


# Argv that ``_plain_args`` leaves to argparse: help, abbreviations (one
# ambiguous), ``=``-joined values, ``--``, values starting with ``-``, an
# unknown flag, a stray or missing value, bad values and missing options.
ARGPARSE_ONLY = [
    ["--help"],
    ["-h"],
    ["--system", "s.json", "--cmd", "card", "--help"],
    [],
    ["--sys", "s.json", "--cmd", "card"],
    ["--s", "s.json", "--cmd", "card"],
    ["--system", "s.json", "--c", "card", "--elem", "a.json"],
    ["--system=s.json", "--cmd=card"],
    ["--system", "s.json", "--cmd", "card", "--horizon", "-1"],
    ["--system", "s.json", "--cmd", "card", "--seed", "-3"],
    ["--system", "-x", "--cmd", "card"],
    ["--system", "-", "--cmd", "card"],
    ["--system", "s.json", "--cmd", "card", "--"],
    ["--", "--system", "s.json", "--cmd", "card"],
    ["--system", "s.json", "--cmd", "card", "--unknown", "1"],
    ["--system", "s.json", "--cmd", "card", "extra"],
    ["--system", "s.json", "--cmd"],
    ["--system", "s.json", "--cmd", "nope"],
    ["--system", "s.json", "--cmd", "card", "--format", "xml"],
    ["--system", "s.json", "--cmd", "card", "--horizon", "x"],
    ["--system", "s.json", "--cmd", "card", "--seed", "1.5"],
    ["--system", "s.json"],
    ["--cmd", "card"],
    ["--system", "s.json", "--cmd", "card", "--element", 7],
]

CANONICAL = [
    ["--system", "s.json", "--cmd", "card"],
    ["--cmd", "equiv", "--element", "a.json", "--system", "s.json", "--element", "b.json"],
    ["--system", "s.json", "--cmd", "oracle-verify", "--horizon", "8", "--seed", "12",
     "--format", "text"],
    ["--system", "", "--cmd", "check", "--system", "t.json", "--horizon", " 7", "--seed", "1_0"],
    ["--system", "s.json", "--cmd", "check", "--cmd", "card", "--format", "text",
     "--format", "json", "--seed", "\u0663"],
]


@pytest.mark.parametrize("argv", ARGPARSE_ONLY)
def test_argv_outside_the_plain_form_keeps_argparse_bytes(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._plain_args(argv) is None
    assert parse_outcome(cli.build_parser(), argv) == parse_outcome(written_out_parser(), argv)


@pytest.mark.parametrize("argv", CANONICAL)
def test_plain_argv_reads_as_the_written_out_parser_reads_it(argv):
    assert vars(cli._plain_args(argv)) == parse_outcome(written_out_parser(), argv)[0]


FLAGS = [opt.flag for opt in cli.OPTIONS]
VALUES = ["", "-", "-x", "-3", " 7", "1_0", "\u0663", "7", "0", "s.json", *cli.COMMANDS, "nope",
          "json", "text", "JSON"]
OTHER_TOKENS = ["--sys", "--elem", "--c", "--hor", "--se", "--form", "--s", "--system=s.json",
                "--horizon=5", "--cmd=card", "--element=a.json", "-h", "--help", "--",
                "--unknown"]


def flag_value(flag):
    """A value for ``flag``: from the whole grammar, or, twice as often, one
    that it accepts."""
    opt = cli._BY_FLAG[flag]
    good = opt.choices or (["7", " 7", "1_0", "\u0663", "0"] if opt.type is int
                           else ["s.json", "", "a b", "x=y"])
    return st.sampled_from(VALUES) | st.sampled_from(good) | st.sampled_from(good)


@st.composite
def argv_tokens(draw):
    """Flag-value pairs, mostly with ``--system`` and ``--cmd`` among them, in
    any order, with a few stray tokens of the grammar dropped in anywhere."""
    pairs = draw(st.lists(st.sampled_from(FLAGS).flatmap(
        lambda flag: st.tuples(st.just(flag), flag_value(flag))), max_size=5))
    if draw(st.sampled_from([True, True, False])):
        pairs += [("--system", "s.json"), ("--cmd", draw(st.sampled_from(cli.COMMANDS)))]
    argv = [token for pair in draw(st.permutations(pairs)) for token in pair]
    stray = st.lists(st.sampled_from(FLAGS + VALUES + OTHER_TOKENS), min_size=1, max_size=3)
    for token in draw(st.just([]) | st.just([]) | stray):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=argv_tokens())
@example(argv=["--system", "-x", "--cmd", "card"])
@example(argv=["--system", "s.json", "--cmd", "card", "--horizon", "7", "--seed", "1_0"])
@example(argv=["--element", "a.json", "--system", "s.json", "--cmd", "equiv", "--element", "b"])
def test_plain_reading_is_what_argparse_reads(argv):
    """Wherever ``_plain_args`` reads argv, argparse accepts it and reads the
    same values; the other argv, argparse alone reads."""
    plain = cli._plain_args(argv)
    if plain is None:
        return
    result, out, err = parse_outcome(cli.build_parser(), argv)
    assert (out, err) == ("", "")
    assert vars(plain) == result


def test_each_plain_reading_gets_its_own_element_list():
    base = ["--system", "s.json", "--cmd", "equiv"]
    first = cli._plain_args([*base, "--element", "a.json", "--element", "b.json"])
    second = cli._plain_args([*base, "--element", "c.json"])
    assert (first.element, second.element) == (["a.json", "b.json"], ["c.json"])
    assert cli._plain_args(base).element == []
    assert cli.build_parser().parse_args(base).element == []


def test_canonical_argv_of_every_command_never_reaches_argparse(tmp_path, sys1, sys1_path,
                                                                monkeypatch):
    parsed = []
    real = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: parsed.append(a) or real(self, *a, **k))
    a = gen_file(tmp_path, sys1, "a.json", 0)
    b = gen_file(tmp_path, sys1, "b.json", 1)
    calls = {"check": (["--element", a, "--horizon", "5"], 0),
             "decompose": (["--element", a, "--format", "text"], 0),
             "equiv": (["--element", a, "--element", b], 1),
             "card": ([], 0),
             "oracle-verify": (["--element", a, "--horizon", "4", "--seed", "3"], 0)}
    assert set(calls) == set(cli.COMMANDS)
    for cmd, (extra, status) in calls.items():
        assert main(["--system", sys1_path, "--cmd", cmd, *extra]) == status
    assert parsed == []
    # the counter does count: an abbreviation goes to argparse
    assert main(["--sys", sys1_path, "--cmd", "card"]) == 0
    assert len(parsed) == 1


@pytest.mark.parametrize("flag, built", [("--system", "0"), ("--sys", "1")])
def test_a_canonical_console_call_builds_no_parser(tmp_path, sys1_path, fresh_cli, flag, built):
    """The console script's ``main()`` reads ``sys.argv[1:]``; a canonical
    call never builds the parser, an abbreviation builds it."""
    probe = ("import sys, invsys.cli as c; code = c.main(); "
             "print(c.build_parser.cache_info().currsize, code)")
    child = fresh_cli([flag, sys1_path, "--cmd", "card"], code=probe, cwd=tmp_path, timeout=120,
                      check=True)
    assert child.stdout.splitlines()[-1] == f"{built} 0"


# -- the JSON writer and the output encoding -------------------------------------------

# Strings over all of Unicode, lone surrogates included, with the characters
# JSON must escape drawn often.
JSON_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\udcff\u2028')))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 300, 10 ** 300) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_writer_prints_the_bytes_of_indented_json_dumps(value):
    out = []
    cli._write_json(value, "", out)
    assert "".join(out) == json.dumps(value, sort_keys=True, indent=2)


def test_writer_writes_tuples_as_lists():
    out = []
    cli._write_json({"t": (1, ("a", None)), "e": ()}, "", out)
    assert "".join(out) == json.dumps({"t": [1, ["a", None]], "e": []}, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, [{"ok": [None, 2.0]}], {"k": object()}])
def test_writer_refuses_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        cli._write_json(value, "", [])


def test_path_that_is_not_utf8_prints_escaped_in_both_formats(tmp_path, sys1, fresh_cli):
    """A path with an undecodable byte reaches the report as a lone surrogate;
    a strict UTF-8 stdout must print it escaped, with the exit code of the
    answer, not a traceback."""
    name, bad = os.fsdecode(b"a\xff.json"), os.fsdecode(b"c\xff.json")
    try:
        gen_file(tmp_path, sys1, name, 0)
        write_json(tmp_path / bad, {"combo": 3})
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a name that is not valid UTF-8")
    gen_file(tmp_path, sys1, "a.json", 0)
    write_json(tmp_path / "sys1.json", sys1.to_json())

    def call(element, fmt):
        argv = ["--system", "sys1.json", "--element", element, "--cmd", "decompose",
                "--format", fmt]
        child = fresh_cli(argv, env={"PYTHONIOENCODING": "utf-8"}, text=False, cwd=tmp_path,
                          timeout=120)
        assert child.stderr == b""
        return child.returncode, child.stdout.decode("ascii")

    error = r"c\udcff.json: $.combo: expected a list, got int"
    for fmt in ("json", "text"):
        code, out = call("a.json", fmt)
        assert code == 0
        assert call(name, fmt) == (0, out.replace("a.json", r"a\udcff.json"))
    assert call(bad, "json") == (2, f'{{\n  "error": "{error}"\n}}\n')
    assert call(bad, "text") == (2, f"error: {error}\n")


# -- a reader of stdout that went away ---------------------------------------------------

MAIN_AS_CONSOLE_SCRIPT = "import sys; from invsys.cli import main; sys.exit(main())"


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("entry", ["module", "console script"])
def test_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, sys1_path, capsys, fresh_cli,
                                                       entry, unbuffered):
    """With stdout on a pipe whose read end is closed, each report (json, text,
    an exit-2 error and the help text) ends in the documented status, not a
    traceback, both when every print writes through and when the report waits
    in a buffer."""
    code = None if entry == "module" else MAIN_AS_CONSOLE_SCRIPT
    reports = {("--cmd", "card"): 0, ("--cmd", "card", "--format", "text"): 0,
               ("--cmd", "check"): 2, ("--help",): 0}
    for args, status in reports.items():
        argv = ["--system", sys1_path, *args]
        try:
            returned = main(argv)
        except SystemExit as exc:  # argparse exits after printing the help
            returned = exc.code
        assert returned == status and capsys.readouterr().out
        read, write = os.pipe()
        os.close(read)
        try:
            child = fresh_cli(argv, code=code, stdout=write, cwd=tmp_path, timeout=120,
                              env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (cli.EXIT_BROKEN_PIPE, "")
    assert cli.EXIT_BROKEN_PIPE == 141
