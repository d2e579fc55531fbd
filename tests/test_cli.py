import dataclasses
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import (
    Node,
    Planted,
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


def test_missing_file_exit_code(sys1_path, capsys):
    code = main(["--system", sys1_path, "--element", "/nonexistent.json", "--cmd", "check"])
    assert code == 2
    capsys.readouterr()


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
    assert f"{path}: " in report["error"] or f"{path}." in report["error"]
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


def test_oracle_verify_sweeps_coherence_once_per_element(sys1_path, capsys, monkeypatch):
    sweeps = []
    real = TruncatedSystem.table_coherent
    monkeypatch.setattr(TruncatedSystem, "table_coherent",
                        lambda self, table: sweeps.append(1) or real(self, table))
    assert main(["--system", sys1_path, "--cmd", "oracle-verify", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == len(sweeps) == 20


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
        table[self._rows(0), top] = (table[self._rows(0), top] + 1) % self.modulus
        return table

    monkeypatch.setattr(TruncatedSystem, "primary_table", incoherent)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "oracle-verify"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == 1
    kinds = [f["kind"] for f in failures]
    assert kinds.count("coherence") == 1 and "solve" not in kinds
    assert {"element": a, "kind": "coherence", "detail": "table incoherent"} in failures


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
        return dataclasses.replace(normal, witness=normal.witness + extra)

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
