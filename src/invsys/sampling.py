"""Deterministic random generation of nodes, branches, and planted elements.

Everything is driven by a caller-supplied ``random.Random`` so identical seeds
reproduce identical objects byte for byte.

The draws build through the trusted constructors (``freemod._canonical``,
``coherent._coboundary`` and ``coherent._planted``), which validate nothing.
Each node address comes from the family's ``draw_address`` at the node's own
level, each generator index lies above its level, and each coefficient in
``[1, m)``.  Each branch is validated once, by ``tree.branch`` in
``sample_branch``.  On the ``oracle-verify`` path every node of an element's
universe is validated again by ``truncate``; ``tests/test_sampling.py`` checks
the draws against the validating constructors.
"""

from __future__ import annotations

from random import Random

from .coherent import Coboundary, Planted, _coboundary, _planted
from .freemod import _canonical
from .system import System
from .tree import Branch, Node, Tree

# Draw sizes no caller varies: branches per element, terms per y level, the
# generator-index spread above a level, and finite-support branch positions.
MAX_BRANCHES = 3
MAX_TERMS = 3
INDEX_SPREAD = 4
BRANCH_POSITION_CAP = 4


def sample_node(tree: Tree, rng: Random, level: int) -> Node:
    """A node at ``level``; each finitely supported position is filled with
    chance 0.4."""
    return Node(level, tree.draw_address(rng, level, 0.4))


def sample_branch(tree: Tree, rng: Random, max_position: int = 4) -> Branch:
    """A branch with support positions below ``max_position``, each filled
    with chance 0.5; a branchless tree refuses the draw."""
    return tree.branch(tree.draw_address(rng, max_position, 0.5))


def sample_branches(tree: Tree, rng: Random, count: int) -> list[Branch]:
    """Up to ``count`` distinct branches; fewer when the family is too small."""
    out: list[Branch] = []
    for _ in range(40 * (count + 1)):
        if len(out) >= count:
            break
        b = sample_branch(tree, rng, BRANCH_POSITION_CAP)
        if b not in out:
            out.append(b)
    return out


def random_coboundary(
    system: System,
    rng: Random,
    max_levels: int = 4,
    level_cap: int = 4,
    index_cap: int | None = None,
) -> Coboundary:
    entries = []
    levels = rng.sample(range(level_cap), rng.randint(0, min(max_levels, level_cap)))
    for level in levels:
        terms = {}
        for _ in range(rng.randint(1, MAX_TERMS)):
            node = sample_node(system.tree, rng, level)
            top = level + INDEX_SPREAD
            if index_cap is not None:
                top = min(top, index_cap)
            if top <= level:
                continue
            l = rng.randint(level + 1, top)
            key = (node, l)
            terms[key] = terms.get(key, 0) + rng.randrange(1, system.ring.modulus)
        entries.append((level, _canonical(level, terms, system.ring, system.tree)))
    return _coboundary(system, entries)


def random_planted(
    system: System,
    rng: Random,
    max_fact_levels: int = 4,
    level_cap: int = 4,
    index_cap: int | None = None,
) -> Planted:
    combo = {}
    if system.tree.branch_count() != 0:
        for branch in sample_branches(system.tree, rng, rng.randint(0, MAX_BRANCHES)):
            combo[branch] = rng.randrange(1, system.ring.modulus)
    fact = random_coboundary(system, rng, max_levels=max_fact_levels, level_cap=level_cap,
                             index_cap=index_cap)
    return _planted(system, combo, fact)
