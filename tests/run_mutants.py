"""Run the committed mutants: each must make one of its listed tests fail.

Usage, from anywhere: ``python tests/run_mutants.py``.

Each entry of ``tests/mutants.json`` names a file under ``src/``, an exact
snippet of it, a replacement and the tests expected to kill the mutant.  The
listed tests first run against an unchanged copy of ``src/`` and must all
pass there, so a test that fails anyway is not counted as a kill.  Then, per
mutant, ``src/`` is copied to a fresh temporary directory, the snippet is
replaced there, and only that mutant's tests run against the copy.  A
mutant survives when they all pass.  The exit status is 0 when every mutant
is killed and 1 otherwise.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_tests(src: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """Run ``tests`` from the repository root with ``src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run([sys.executable, "-c", "import invsys; print(invsys.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    if not Path(probe.stdout.strip()).is_relative_to(src):
        sys.exit(f"the tests would import {probe.stdout.strip()}, not the copy in {src}")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)


def apply(src: Path, mutant: dict) -> None:
    path = src / Path(mutant["file"]).relative_to("src")
    text = path.read_text()
    found = text.count(mutant["snippet"])
    if found != 1:
        sys.exit(f"{mutant['name']}: the snippet occurs {found} times in {mutant['file']}")
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]))


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    every_test = sorted({test for mutant in mutants for test in mutant["killed_by"]})
    with tempfile.TemporaryDirectory() as tmp:
        baseline = run_tests(copy_src(Path(tmp)), every_test)
    if baseline.returncode != 0:
        print(baseline.stdout)
        print(f"the listed tests fail on the unchanged source (exit {baseline.returncode})")
        return 1
    survivors = []
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            apply(src, mutant)
            result = run_tests(src, mutant["killed_by"])
        killed = result.returncode == 1
        if not killed:
            survivors.append(mutant["name"])
            print(result.stdout)
        print(f"{'killed' if killed else 'SURVIVED'} (pytest exit {result.returncode}): {mutant['name']}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
