"""Golden CLI stdout: every command, all three tree families, json and text.

The inputs below are fixed files; ``cli_golden.json`` holds, for each
invocation, the exit code and the exact stdout bytes.  Criterion 8 of the
acceptance suite compares two runs of one checkout; this test pins the output
itself, so a change that alters any byte of a report fails here.

Element paths are passed relative to the working directory, so the reports
name them the same way on every machine.  To regenerate the expected file
after an intended change of output::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import invsys
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


def write_inputs(directory: Path) -> None:
    for family, (system, elements) in FAMILIES.items():
        (directory / f"{family}.system.json").write_text(json.dumps(system))
        for name, element in elements.items():
            (directory / f"{family}.{name}.json").write_text(json.dumps(element))


def run(argv) -> dict:
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


CASES = dict(invocations())


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_stdout_matches_golden(case, expected, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(CASES[case]) == expected[case]


def test_reports_never_reach_the_pure_python_encoder(expected, tmp_path, monkeypatch):
    """``json.dumps(indent=2)`` runs the pure-Python ``_make_iterencode``; the
    CLI must print the same bytes without it."""
    def refuse(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
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


# Runs the golden cases in argv[1] through ``main`` in a fresh interpreter,
# reports which of numpy, the oracle, the index sets and the sampler they
# loaded, then runs the oracle-verify case in argv[2] in the same process.
FRESH_PROCESS = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO
from invsys.cli import main

def run(argv):
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}

symbolic = {case: run(argv) for case, argv in json.loads(sys.argv[1]).items()}
loaded = [name for name in ("numpy", "invsys.oracle", "invsys.indexset", "invsys.sampling")
          if name in sys.modules]
verify = run(json.loads(sys.argv[2]))
print(json.dumps({"symbolic": symbolic, "loaded": loaded, "verify": verify,
                  "numpy_after_verify": "numpy" in sys.modules}))
"""


def test_symbolic_commands_never_load_the_oracle(expected, tmp_path):
    symbolic = {case: argv for case, argv in CASES.items()
                if case.split("/")[0] in ("disjoint", "finite_support")
                and case.split("/")[1] != "oracle-verify" and case.endswith("/json")}
    assert len(symbolic) == 10  # check, decompose, two equivs and card per family
    write_inputs(tmp_path)
    src = str(Path(invsys.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    verify_case = "disjoint/oracle-verify/json"
    child = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, json.dumps(symbolic), json.dumps(CASES[verify_case])],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120, check=True)
    report = json.loads(child.stdout)
    assert report["symbolic"] == {case: expected[case] for case in symbolic}
    assert report["loaded"] == []
    assert report["verify"]["exit"] == 0
    assert json.loads(report["verify"]["stdout"])["failures"] == []
    assert report["numpy_after_verify"] is True


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
