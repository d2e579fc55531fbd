import json

import pytest

from invsys import Node, branch_generator, coboundary, decomp, module_element, planted
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
GOOD_TERM = {"node": {"level": 0, "address": 0}, "l": 1, "coeff": 1}


def with_term(**changes):
    """An element with one coboundary term, ``changes`` applied; None drops a key."""
    term = {k: v for k, v in {**GOOD_TERM, **changes}.items() if v is not None}
    return {"combo": [], "fact_y": [{"level": 0, "elem": {"level": 0, "terms": [term]}}]}


def with_levels(tag=0, elem=0, node=0):
    """An element with one coboundary term at level 0, its three level fields given."""
    term = {**GOOD_TERM, "node": {"level": node, "address": 0}}
    return {"combo": [], "fact_y": [{"level": tag, "elem": {"level": elem, "terms": [term]}}]}


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
    obj, path = MALFORMED_ELEMENTS[case]
    elem = write_json(tmp_path / "elem.json", obj)
    assert_schema_exit(["--system", sys1_path, "--element", elem, "--cmd", "check"], path, capsys)


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


def test_internal_certification_failure_exit_3(tmp_path, sys1, sys1_path, capsys, monkeypatch):
    def failing(a, dec, horizon):
        raise AssertionError("decomposition does not reproduce entry (0, 1)")

    monkeypatch.setattr(decomp, "_verify_decomposition", failing)
    a = gen_file(tmp_path, sys1, "a.json", 0)
    code = main(["--system", sys1_path, "--element", a, "--cmd", "decompose"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {
        "error": "internal certification failure: decomposition does not reproduce entry (0, 1)"}
    assert out.err == ""


def test_card_class_decided_equivalent_exit_3(tmp_path, sys3, capsys, monkeypatch):
    real = decomp.equiv_decide
    target = branch_generator(sys3, sys3.tree.branch(1))

    def mutant(a, b):
        equivalent, certificate = real(a, b)
        return equivalent or a - b == target, certificate

    monkeypatch.setattr(decomp, "equiv_decide", mutant)
    path = write_json(tmp_path / "sys3.json", sys3.to_json())
    code = main(["--system", path, "--cmd", "card"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {"error": "internal certification failure: "
                                            "distinct canonical combinations decided equivalent"}
    assert out.err == ""
