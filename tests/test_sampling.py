"""The seeded sampler stream is pinned, and it draws valid data.

``oracle-verify`` without elements checks a suite of 20 ``random_planted``
elements drawn from ``Random(--seed)``.  The golden cases print only counts,
so this digest pins which elements such a suite holds: the canonical JSON of
every element, over all three families, the heights the CLI's tests and the
benchmark use, and 30 seeds.  A change to a draw, or to the order of the rng
calls, changes the digest.

The sampler builds through the trusted constructors and validates nothing
itself, so every draw is checked here against the validating boundary.
"""

import hashlib
import json
from random import Random

import pytest

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Ring,
    System,
    coboundary,
    module_element,
    planted,
)
from invsys.sampling import random_planted

SYSTEMS = (
    System(Ring(3), DisjointBranchesTree(3)),
    # A width-1 position, which the support draws skip.
    System(Ring(3), FiniteSupportTree((3, 1), 2)),
    System(Ring(3), DecreasingSeqTree()),
)
HEIGHTS = (3, 7, 8)
SEEDS = range(30)
SUITE = 20

# sha256 of the suites below, computed with the sampler that drew them first.
DIGEST = "faf51eebd8c02c477727490252a66d11105776db6788aaf0c713989f158b2675"


def suite_digest() -> str:
    """sha256 over every suite ``oracle-verify --horizon h --seed s`` checks."""
    digest = hashlib.sha256()
    for system in SYSTEMS:
        for height in HEIGHTS:
            for seed in SEEDS:
                rng = Random(seed)
                for _ in range(SUITE):
                    elem = random_planted(system, rng, level_cap=min(3, height - 2),
                                          index_cap=height - 1)
                    digest.update(json.dumps(elem.to_json(), sort_keys=True).encode())
                    digest.update(b"\n")
    return digest.hexdigest()


def test_the_seeded_suites_are_unchanged():
    assert suite_digest() == DIGEST


@pytest.mark.parametrize("height", range(3, 9))
@pytest.mark.parametrize("system", SYSTEMS, ids=[s.tree.kind for s in SYSTEMS])
def test_the_sampler_draws_valid_data(system, height):
    tree, m = system.tree, system.ring.modulus
    rng = Random(height)
    for _ in range(5 * SUITE):
        elem = random_planted(system, rng, level_cap=min(3, height - 2), index_cap=height - 1)
        for branch, c in elem.combo:
            assert tree.branch(branch.presentation) == branch
            assert 1 <= c < m
        for level, y in elem.fact.entries:
            assert y.level == level and y.terms
            for node, l, c in y.terms:
                tree.check_node(node)
                assert node.level == level < l < height
                assert 1 <= c < m
        # the validating constructors rebuild the same element
        fact = coboundary(system, {level: module_element(level, {(n, l): c for n, l, c in y.terms},
                                                         system.ring, tree)
                                   for level, y in elem.fact.entries})
        assert planted(system, dict(elem.combo), fact) == elem


if __name__ == "__main__":
    print(suite_digest())
