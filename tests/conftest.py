import os
import subprocess
import sys
from pathlib import Path

import pytest

import invsys
from invsys import DecreasingSeqTree, DisjointBranchesTree, FiniteSupportTree, Planted, Ring, System


def prefilled(a, entries, table=dict):
    """A fresh copy of ``a`` whose entry table starts as ``entries``, a
    ``(i, j) -> element`` mapping, held in a new ``table(entries)``.

    The identity checks read an entry from the table when it is there and
    evaluate it otherwise, so this is how a test injects faulty entries.
    ``table`` may be a recording mapping type.
    """
    b = Planted(a.system, a.combo, a.fact)
    object.__setattr__(b, "_entries", table(entries))
    return b


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
    ``env`` adds variables, and removes those it maps to ``None``; other
    keywords go to ``subprocess.run``, with stdout and stderr captured as text
    unless ``stdout``, ``stderr`` or ``text=False`` say otherwise."""
    src = str(Path(invsys.__file__).resolve().parents[1])
    base = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(argv, *, code=None, env=(), **kwargs):
        head = ["-m", "invsys.cli"] if code is None else ["-c", code]
        merged = {key: value for key, value in {**base, **dict(env)}.items() if value is not None}
        options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
        return subprocess.run([sys.executable, *head, *argv], env=merged, **options)

    return run
