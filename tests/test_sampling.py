"""The seeded sampler stream is pinned.

``oracle-verify`` without elements checks a suite of 20 ``random_planted``
elements drawn from ``Random(--seed)``.  The golden cases print only counts,
so this digest pins which elements such a suite holds: the canonical JSON of
every element, over all three families, the heights the CLI's tests and the
benchmark use, and 30 seeds.  A change to a draw, or to the order of the rng
calls, changes the digest.
"""

import hashlib
import json
from random import Random

from invsys import DecreasingSeqTree, DisjointBranchesTree, FiniteSupportTree, Ring, System
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


if __name__ == "__main__":
    print(suite_digest())
