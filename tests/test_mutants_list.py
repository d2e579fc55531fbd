"""The committed mutant list stays runnable: ``tests/run_mutants.py`` can apply
every mutant and run every test it names.

Running the mutants takes one pytest process each, so it is a separate step;
this guard is cheap.  Each snippet occurs exactly once in its file under
``src/``, its replacement differs from it, the mutated file still parses,
and each listed test ID is one that pytest collects.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_snippet_occurs_once(mutant):
    assert set(mutant) == {"name", "file", "snippet", "replacement", "killed_by"}
    assert Path(mutant["file"]).parts[0] == "src"
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    assert mutant["killed_by"]
    # a mutant that does not parse fails every test by a SyntaxError, which
    # shows nothing about the check it changes
    ast.parse(text.replace(mutant["snippet"], mutant["replacement"]), mutant["file"])


def test_mutant_names_are_distinct():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_each_listed_test_exists():
    listed = sorted({test for mutant in MUTANTS for test in mutant["killed_by"]})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *listed],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    collected = {line for line in child.stdout.splitlines() if "::" in line}
    assert child.returncode == 0, child.stdout + child.stderr
    assert collected == set(listed)
