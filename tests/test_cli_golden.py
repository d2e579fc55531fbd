"""Golden CLI stdout: every command, all three tree families, json and text.

The inputs below are fixed files; ``cli_golden.json`` holds, for each
invocation, the exit code and the exact stdout bytes.  Criterion 8 of the
acceptance suite compares two runs of one checkout; this test pins the output
itself, so a change that alters any byte of a report fails here.

The ``session/`` cases are the README's example session and the edge cases
of the CLI, in json: 64 and 81 classes, a term at level 10**9, the largest
``check`` horizon, a modulus above 2**32, the minimal truncation height,
branches that separate late and a coboundary level above the truncation.  The
request errors are ``session/`` cases too, in json and text: a wrong number of
elements, a horizon below 3, a missing file, a directory passed as a file,
and the order in which the errors are checked.
Next to each, ``SESSION`` keeps the facts its report must hold, checked on the
parsed report, so a regenerated golden file cannot absorb a wrong answer.

Element paths are passed relative to the working directory, so the reports
name them the same way on every machine.  To regenerate the expected file
after an intended change of output::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from invsys.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def term(level, address, l, coeff):
    return {"node": {"level": level, "address": address}, "l": l, "coeff": coeff}


def fact(*levels):
    """A coboundary part from ``(level, [term, ...])`` pairs."""
    return [{"level": lvl, "elem": {"level": lvl, "terms": terms}} for lvl, terms in levels]


# family -> (system, {element name: element}); ``c`` differs from ``a`` in its
# combination, ``b`` only in its coboundary part.
FAMILIES = {
    "disjoint": (
        {"ring": {"kind": "zmod", "m": 3}, "tree": {"kind": "disjoint_branches", "count": 2}},
        {
            "a": {"combo": [{"branch": 0, "coeff": 1}, {"branch": 1, "coeff": 2}],
                  "fact_y": fact((0, [term(0, 0, 2, 1)]), (2, [term(2, 1, 4, 2)]))},
            "b": {"combo": [{"branch": 0, "coeff": 1}, {"branch": 1, "coeff": 2}],
                  "fact_y": fact((1, [term(1, 1, 3, 1)]))},
            "c": {"combo": [{"branch": 0, "coeff": 1}],
                  "fact_y": fact((0, [term(0, 1, 1, 2)]))},
        },
    ),
    "finite_support": (
        {"ring": {"kind": "zmod", "m": 3},
         "tree": {"kind": "finite_support", "widths": {"table": [3], "eventual": 2}}},
        {
            "a": {"combo": [{"branch": [[0, 2], [3, 1]], "coeff": 1},
                            {"branch": [[1, 1]], "coeff": 2}],
                  "fact_y": fact((1, [term(1, [[0, 2]], 2, 1)]),
                                 (3, [term(3, [[0, 1], [2, 1]], 5, 2)]))},
            "b": {"combo": [{"branch": [[0, 2], [3, 1]], "coeff": 1},
                            {"branch": [[1, 1]], "coeff": 2}],
                  "fact_y": fact((0, [term(0, [], 1, 2)]))},
            "c": {"combo": [{"branch": [], "coeff": 1}], "fact_y": []},
        },
    ),
    "decreasing_seq": (
        {"ring": {"kind": "zmod", "m": 3}, "tree": {"kind": "decreasing_seq"}},
        {
            "a": {"combo": [],
                  "fact_y": fact((0, [term(0, [], 2, 1)]), (2, [term(2, [3, 1], 4, 2)]))},
            "b": {"combo": [], "fact_y": fact((1, [term(1, [5], 3, 1)]))},
        },
    ),
}


def invocations():
    """``(case id, argv)`` for every command on every family, in both formats."""
    for family, (_, elements) in FAMILIES.items():
        sys_path = f"{family}.system.json"

        def elem(name):
            return ["--element", f"{family}.{name}.json"]

        runs = {
            "check": elem("a") + ["--cmd", "check"],
            "decompose": elem("a") + ["--cmd", "decompose"],
            "equiv-equivalent": elem("a") + elem("b") + ["--cmd", "equiv"],
            "card": ["--cmd", "card"],
            "oracle-verify": ["--cmd", "oracle-verify", "--seed", "7"],
        }
        if "c" in elements:
            runs["equiv-inequivalent"] = elem("a") + elem("c") + ["--cmd", "equiv"]
        for command, argv in runs.items():
            for fmt in ("json", "text"):
                yield f"{family}/{command}/{fmt}", ["--system", sys_path, *argv, "--format", fmt]


def disjoint(m, count):
    return {"ring": {"kind": "zmod", "m": m}, "tree": {"kind": "disjoint_branches", "count": count}}


# Two branches that agree below position 5: the probe level 6 is both the
# larger presentation level and their separation level.
LATE_COMBO = [{"branch": [[3, 1]], "coeff": 1}, {"branch": [[3, 1], [5, 1]], "coeff": 3}]
SESSION_FILES = {
    "sys.json": disjoint(3, 2),
    "a.json": {"combo": [{"branch": 0, "coeff": 1}], "fact_y": []},
    "b.json": {"combo": [{"branch": 1, "coeff": 1}], "fact_y": []},
    "card64.json": disjoint(2, 6),
    "card81.json": disjoint(3, 4),
    "tall.json": {"combo": [{"branch": 0, "coeff": 1}],
                  "fact_y": fact((3, [term(3, 0, 4, 1)]),
                                 (10 ** 9, [term(10 ** 9, 1, 10 ** 9 + 1, 2)]))},
    "wide.json": disjoint(4294967311, 2),
    "fs.json": {"ring": {"kind": "zmod", "m": 4},
                "tree": {"kind": "finite_support", "widths": {"table": [2, 3], "eventual": 2}}},
    "ds.json": {"ring": {"kind": "zmod", "m": 3}, "tree": {"kind": "decreasing_seq"}},
    "late.json": {"combo": LATE_COMBO, "fact_y": fact((2, [term(2, [[1, 2]], 3, 1)]))},
    "late-bare.json": {"combo": LATE_COMBO, "fact_y": []},
    "sys3.json": disjoint(3, 3),
    "y10.json": {"combo": [{"branch": 0, "coeff": 1}],
                 "fact_y": fact((10, [term(10, 2, 11, 1)]))},
}

ABSENT = "<absent>"
SUITE_PASSES = {"checked": 20, "failures": []}


def suite(system, horizon):
    return f"--system {system} --cmd oracle-verify --horizon {horizon} --seed 3"


# case -> (exit code, argv, {dotted key path: value}); ``ABSENT`` marks a key
# the report must not have.
SESSION = {
    "session/equiv/a-b/json": (
        1, "--system sys.json --element a.json --element b.json --cmd equiv",
        {"equivalent": False, "certificate.kind": "decomposition",
         "certificate.combo": [{"branch": 0, "coeff": 1}, {"branch": 1, "coeff": 2}]}),
    "session/card/sys/json": (0, "--system sys.json --cmd card", {
        "cardinality": 9,
        "certified": {"classes": 9, "pairs_checked": 36, "all_inequivalent": True}}),
    "session/oracle-verify/a/json": (0, "--system sys.json --element a.json --cmd oracle-verify",
                                     {"checked": 1, "failures": []}),
    "session/decompose/a/json": (0, "--system sys.json --element a.json --cmd decompose",
                                 {"combo": [{"branch": 0, "coeff": 1}]}),
    "session/card/card64/json": (0, "--system card64.json --cmd card", {
        "certified": {"classes": 64, "pairs_checked": 2016, "all_inequivalent": True}}),
    "session/card/card81/json": (0, "--system card81.json --cmd card",
                                 {"cardinality": 81, "certified": ABSENT}),
    "session/decompose/tall/json": (0, "--system sys.json --element tall.json --cmd decompose",
                                    {"combo": [{"branch": 0, "coeff": 1}]}),
    "session/check/horizon-64/json": (
        0, "--system sys.json --element a.json --cmd check --horizon 64", {"ok": True}),
    "session/oracle-verify/wide/json": (0, suite("wide.json", 8), {"failures": []}),
    "session/oracle-verify/fs/json": (0, suite("fs.json", 8), SUITE_PASSES),
    "session/oracle-verify/ds/json": (0, suite("ds.json", 8), SUITE_PASSES),
    "session/decompose/late/json": (0, "--system fs.json --element late.json --cmd decompose",
                                    {"combo": LATE_COMBO}),
    "session/equiv/late/json": (
        0, "--system fs.json --element late.json --element late-bare.json --cmd equiv",
        {"equivalent": True, "certificate.kind": "witness"}),
    "session/oracle-verify/late/json": (
        0, "--system fs.json --element late.json --cmd oracle-verify --horizon 8",
        {"failures": []}),
    # Height 3 is the minimal truncation, where the top level owns no coordinates.
    "session/oracle-verify/h3-sys/json": (0, suite("sys.json", 3), SUITE_PASSES),
    "session/oracle-verify/h3-fs/json": (0, suite("fs.json", 3), SUITE_PASSES),
    "session/oracle-verify/h3-ds/json": (0, suite("ds.json", 3), SUITE_PASSES),
    # A coboundary level above the height does not fit the truncation.
    "session/oracle-verify/y10/json": (
        1, "--system sys3.json --element y10.json --cmd oracle-verify --horizon 8",
        {"checked": 1, "failures": [{"element": "y10.json", "kind": "truncation",
                                     "detail": "coboundary level 10 lies outside the truncation"}]}),
}

# Request errors exit 2 with one message.  They are checked in this order: the
# horizon, the system file, the element files in order, the command's own
# checks; the last two cases pin that order.
NEEDS_ONE = "decompose needs exactly one --element"
LOW_HORIZON = "horizon must be at least 3"
REQUEST_ERRORS = {
    "decompose/no-element": ("--system sys.json --cmd decompose", NEEDS_ONE),
    "decompose/two-elements": (
        "--system sys.json --element a.json --element b.json --cmd decompose", NEEDS_ONE),
    "equiv/one-element": ("--system sys.json --element a.json --cmd equiv",
                          "equiv needs exactly two --element files"),
    "check/no-element": ("--system sys.json --cmd check", "check needs at least one --element"),
    "card/horizon-2": ("--system sys.json --cmd card --horizon 2", LOW_HORIZON),
    "card/horizon-2-missing-system": ("--system missing.json --cmd card --horizon 2", LOW_HORIZON),
    "decompose/missing-second-element": (
        "--system sys.json --element a.json --element missing.json --cmd decompose",
        "missing.json: No such file or directory"),
    # the working directory is always a directory
    "card/system-is-a-directory": ("--system . --cmd card", ".: Is a directory"),
}
for name, (argv, message) in REQUEST_ERRORS.items():
    for fmt in ("json", "text"):
        SESSION[f"session/{name}/{fmt}"] = (2, f"{argv} --format {fmt}", {"error": message})


def lookup(report, path):
    """The value at a dotted key path of a report, or ``ABSENT``."""
    for key in path.split("."):
        if key not in report:
            return ABSENT
        report = report[key]
    return report


def write_inputs(directory: Path) -> None:
    for family, (system, elements) in FAMILIES.items():
        (directory / f"{family}.system.json").write_text(json.dumps(system))
        for name, element in elements.items():
            (directory / f"{family}.{name}.json").write_text(json.dumps(element))
    for name, content in SESSION_FILES.items():
        (directory / name).write_text(json.dumps(content))


def run(argv) -> dict:
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


CASES = dict(invocations())
CASES.update((case, argv.split()) for case, (_, argv, _) in SESSION.items())


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_stdout_matches_golden(case, expected, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    result = run(CASES[case])
    assert result == expected[case]
    if case.endswith("/json"):
        report = json.loads(result["stdout"])
        assert result["stdout"] == json.dumps(report, sort_keys=True, indent=2) + "\n"
    if case in SESSION:
        code, _, facts = SESSION[case]
        if case.endswith("/text"):
            # the text session cases are one-line error reports
            report = dict(line.split(": ", 1) for line in result["stdout"].splitlines())
        assert result["exit"] == code
        assert {path: lookup(report, path) for path in facts} == facts


# No input may make a command hang: each of these prints its golden bytes
# within 10 s in a fresh interpreter.
@pytest.mark.parametrize("case", ["session/decompose/tall/json", "session/card/card64/json",
                                  "session/check/horizon-64/json"])
def test_bounded_cases_finish_in_a_fresh_interpreter(case, expected, tmp_path, fresh_cli):
    write_inputs(tmp_path)
    child = fresh_cli(CASES[case], cwd=tmp_path, timeout=10)
    assert {"exit": child.returncode, "stdout": child.stdout} == expected[case]


def test_reports_never_reach_the_pure_python_encoder(expected, tmp_path, monkeypatch):
    """Before Python 3.13, ``json.dumps(indent=2)`` runs the pure-Python
    ``_make_iterencode``; since 3.13 the C encoder takes ``indent`` too.  On
    every version the CLI must print the same bytes with that encoder refused."""
    def refuse(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    if sys.version_info < (3, 13):
        # the probe: the refusal reaches an indented dump
        with pytest.raises(RuntimeError, match="pure-Python"):
            json.dumps({"probe": 1}, indent=2)
    write_inputs(tmp_path)
    (tmp_path / "bad.json").write_text('{"combo": 3}')
    monkeypatch.chdir(tmp_path)
    for case in ("disjoint/decompose/json", "disjoint/equiv-equivalent/json",
                 "disjoint/equiv-inequivalent/json", "disjoint/card/json",
                 "finite_support/check/json"):
        assert run(CASES[case]) == expected[case]
    refused = ["--system", "disjoint.system.json", "--element", "bad.json", "--cmd", "decompose"]
    assert run(refused) == {
        "exit": 2, "stdout": '{\n  "error": "bad.json: $.combo: expected a list, got int"\n}\n'}


# Runs the golden cases in argv[1] through ``main`` in a fresh interpreter
# where numpy cannot be imported, reports which of the oracle, the index sets
# and the sampler they loaded, then runs the oracle-verify case in argv[2] in
# the same process and reports whether it loaded numpy or dataclasses.
FRESH_PROCESS = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from contextlib import redirect_stdout
from io import StringIO
from invsys.cli import main

def run(argv):
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}

symbolic = {case: run(argv) for case, argv in json.loads(sys.argv[1]).items()}
loaded = [name for name in ("invsys.oracle", "invsys.indexset", "invsys.sampling")
          if name in sys.modules]
verify = run(json.loads(sys.argv[2]))
print(json.dumps({"symbolic": symbolic, "loaded": loaded, "verify": verify,
                  "numpy_after_verify": sys.modules["numpy"] is not None,
                  "dataclasses_after_verify": "dataclasses" in sys.modules}))
"""


def test_symbolic_commands_never_load_the_oracle(expected, tmp_path, fresh_cli):
    symbolic = {case: argv for case, argv in CASES.items()
                if case.split("/")[0] in ("disjoint", "finite_support", "session")
                and case.split("/")[1] != "oracle-verify" and case.endswith("/json")}
    # check, decompose, two equivs and card per family, 9 session cases and
    # 8 request errors
    assert len(symbolic) == 27
    write_inputs(tmp_path)
    verify_case = "disjoint/oracle-verify/json"
    child = fresh_cli([json.dumps(symbolic), json.dumps(CASES[verify_case])], code=FRESH_PROCESS,
                      cwd=tmp_path, timeout=120, check=True)
    report = json.loads(child.stdout)
    assert report["symbolic"] == {case: expected[case] for case in symbolic}
    assert report["loaded"] == []
    assert report["verify"] == expected[verify_case]
    assert json.loads(report["verify"]["stdout"])["failures"] == []
    assert report["numpy_after_verify"] is False
    assert report["dataclasses_after_verify"] is False


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        write_inputs(Path(scratch))
        os.chdir(scratch)
        try:
            results = {case: run(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
