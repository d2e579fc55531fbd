import os
import subprocess
import sys
from pathlib import Path

import pytest

import invsys
from invsys import DecreasingSeqTree, DisjointBranchesTree, FiniteSupportTree, Ring, System


@pytest.fixture
def sys1():
    """Z/3 over two disjoint branches."""
    return System(Ring(3), DisjointBranchesTree(2))


@pytest.fixture
def sys2():
    """Z/3 over the branchless decreasing-sequence tree."""
    return System(Ring(3), DecreasingSeqTree())


@pytest.fixture
def sys3():
    """Z/2 over three disjoint branches."""
    return System(Ring(2), DisjointBranchesTree(3))


@pytest.fixture
def sysf():
    """Z/3 over the width-2 finite-support tree."""
    return System(Ring(3), FiniteSupportTree((), 2))


@pytest.fixture
def fresh_cli():
    """Runs ``python -m invsys.cli *argv`` in a new interpreter that imports
    this checkout's ``src``, or ``python -c code *argv`` when ``code`` is given.
    ``env`` adds variables; other keywords go to ``subprocess.run``, with
    output captured as text unless ``text=False``."""
    src = str(Path(invsys.__file__).resolve().parents[1])
    base = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(argv, *, code=None, env=(), **kwargs):
        head = ["-m", "invsys.cli"] if code is None else ["-c", code]
        return subprocess.run([sys.executable, *head, *argv], capture_output=True,
                              env={**base, **dict(env)}, **{"text": True, **kwargs})

    return run
