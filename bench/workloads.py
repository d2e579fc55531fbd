"""Seeded inputs for the invsys CLI benchmark, each with the answer it must produce.

Inputs are plain JSON objects built here from a ``random.Random``; the
expected answer of every call follows from how its input was built, never
from asking invsys.  A call is a ``Call``: the command, the files it reads,
extra argv, and a ``check`` that judges the exit code and the parsed report.

Workloads (one caller, closed loop, calls in the order generated):

* ``check-deep`` -- ``check`` at horizon 14 on elements whose coboundary part
  reaches level 8.  The O(h^3) identity sweeps re-evaluate every entry O(h)
  times, so entry evaluation, module arithmetic and tree validation do almost
  all the work; nothing is peeled and the oracle is idle.
* ``peel-equiv`` -- fresh elements on every call: ``decompose`` and ``equiv``
  (half equivalent, half not) plus ``card`` on small disjoint-branch systems.
  The peeling phases, index-set algebra and the O(h^2) verification sweep
  dominate and each entry is evaluated about once; ``card`` is the slow tail.
* ``oracle-sweep`` -- ``oracle-verify`` on the CLI's built-in random suite at
  heights 7 and 8 with a fresh ``--seed`` per call: the only workload that
  builds truncated matrices and runs the random sampler.

Every workload cycles through all three tree families in a fixed order, so
each run holds the same mix and only the elements change with the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from random import Random
from typing import Callable

WORKLOADS = ("check-deep", "peel-equiv", "oracle-sweep")

CHECK_HORIZON = 14
CHECK_TOP_LEVEL = 8

# (modulus, branch count) of the ``card`` systems in ``peel-equiv``: 8 and 9
# classes, certified by C(8, 2) = 28 and C(9, 2) = 36 pairwise decisions.
CARD_SYSTEMS = ((2, 3), (3, 2))

# One ``peel-equiv`` cycle: 2 of its 15 calls are ``card``, each slower than
# any other call, so the p90 latency falls inside the card calls, away from
# their boundary with the other commands.
PEEL_CYCLE = ("decompose",) * 7 + ("equiv",) * 6 + ("card",) * 2


class Family:
    """One tree family with a fixed ring: node and branch generation in JSON form."""

    def __init__(self, modulus: int, tree: dict):
        self.modulus = modulus
        self.system = {"ring": {"kind": "zmod", "m": modulus}, "tree": tree}

    @property
    def has_branches(self) -> bool:
        return self.system["tree"]["kind"] != "decreasing_seq"

    def node(self, rng: Random, level: int):
        """A random node address at ``level``."""
        tree = self.system["tree"]
        if tree["kind"] == "disjoint_branches":
            return rng.randrange(tree["count"])
        if tree["kind"] == "finite_support":
            return [[p, rng.randrange(1, w)] for p in range(level)
                    if (w := self._width(p)) >= 2 and rng.random() < 0.3]
        return sorted(rng.sample(range(level + 3), level), reverse=True)

    def branch(self, rng: Random):
        """A random branch as a hashable key whose order is the canonical order."""
        tree = self.system["tree"]
        if tree["kind"] == "disjoint_branches":
            return rng.randrange(tree["count"])
        return tuple((p, rng.randrange(1, self._width(p))) for p in range(4)
                     if self._width(p) >= 2 and rng.random() < 0.5)

    def _width(self, position: int) -> int:
        widths = self.system["tree"]["widths"]
        table = widths["table"]
        return table[position] if position < len(table) else widths["eventual"]


def branch_json(key):
    return key if isinstance(key, int) else [list(p) for p in key]


def combo_json(combo: dict, modulus: int) -> list:
    """The canonical form of a branch combination: merged, reduced, sorted."""
    return [{"branch": branch_json(b), "coeff": c % modulus}
            for b, c in sorted(combo.items()) if c % modulus]


FAMILIES = (
    Family(3, {"kind": "disjoint_branches", "count": 3}),
    Family(4, {"kind": "finite_support", "widths": {"table": [2, 3], "eventual": 2}}),
    Family(3, {"kind": "decreasing_seq"}),
)


def coboundary_json(fam: Family, rng: Random, levels, max_terms: int, spread: int) -> list:
    """A coboundary sequence with at least one nonzero term at each listed level."""
    out = []
    for level in sorted(levels):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            address = fam.node(rng, level)
            l = rng.randint(level + 1, level + spread)
            # Distinct generators cannot cancel, so the level stays nonzero.
            terms.setdefault((repr(address), l), {
                "node": {"level": level, "address": address}, "l": l,
                "coeff": rng.randrange(1, fam.modulus)})
        out.append({"level": level, "elem": {"level": level, "terms": list(terms.values())}})
    return out


def element(fam: Family, rng: Random, max_branches: int, levels, max_terms: int = 2,
            spread: int = 3) -> tuple[dict, dict]:
    """A planted element as JSON, and its branch combination before reduction."""
    combo: dict = {}
    if fam.has_branches:
        for _ in range(rng.randint(1, max_branches)):
            b = fam.branch(rng)
            combo[b] = combo.get(b, 0) + rng.randrange(1, fam.modulus)
    obj = {"combo": [{"branch": branch_json(b), "coeff": c} for b, c in combo.items()],
           "fact_y": coboundary_json(fam, rng, levels, max_terms, spread)}
    return obj, combo


@dataclass
class Call:
    """One CLI invocation: ``--system`` first, then ``--element`` files in order."""

    cmd: str
    system: dict
    elements: list
    extra: list
    check: Callable[[int, dict], bool]


def check_deep(rng: Random):
    for fam in itertools.cycle(FAMILIES):
        extra_levels = rng.sample(range(CHECK_TOP_LEVEL), rng.randint(1, 3))
        elem, _ = element(fam, rng, 3, extra_levels + [CHECK_TOP_LEVEL])
        yield Call("check", fam.system, [elem], ["--horizon", str(CHECK_HORIZON)],
                   lambda code, r: code == 0 and r["ok"] is True
                   and [(e["horizon"], e["ok"]) for e in r["elements"]] == [(CHECK_HORIZON, True)])


def _peel_element(fam: Family, rng: Random) -> tuple[dict, dict]:
    levels = rng.sample(range(5), rng.randint(0, 3))
    return element(fam, rng, 3, levels, max_terms=3, spread=4)


def _decompose_call(fam: Family, rng: Random) -> Call:
    elem, combo = _peel_element(fam, rng)
    want = combo_json(combo, fam.modulus)
    return Call("decompose", fam.system, [elem], [],
                lambda code, r: code == 0 and r["combo"] == want)


def _equiv_call(fam: Family, rng: Random, equivalent: bool) -> Call:
    a, combo_a = _peel_element(fam, rng)
    if equivalent:
        levels = rng.sample(range(5), rng.randint(1, 3))
        b = {"combo": a["combo"],
             "fact_y": a["fact_y"] + coboundary_json(fam, rng, levels, 3, 4)}
        combo_b = combo_a
    else:
        while True:
            b, combo_b = _peel_element(fam, rng)
            if combo_json(combo_b, fam.modulus) != combo_json(combo_a, fam.modulus):
                break
    diff = dict(combo_a)
    for k, c in combo_b.items():
        diff[k] = diff.get(k, 0) - c
    want = combo_json(diff, fam.modulus)
    if equivalent:
        return Call("equiv", fam.system, [a, b], [],
                    lambda code, r: code == 0 and r["equivalent"] is True
                    and r["certificate"]["kind"] == "witness")
    return Call("equiv", fam.system, [a, b], [],
                lambda code, r: code == 1 and r["equivalent"] is False
                and r["certificate"]["kind"] == "decomposition"
                and r["certificate"]["combo"] == want)


def card_call(modulus: int, count: int) -> Call:
    classes = modulus ** count
    system = {"ring": {"kind": "zmod", "m": modulus},
              "tree": {"kind": "disjoint_branches", "count": count}}
    return Call("card", system, [], [],
                lambda code, r: code == 0 and r["cardinality"] == classes
                and r["certified"] == {"classes": classes, "pairs_checked": comb(classes, 2),
                                       "all_inequivalent": True})


def peel_equiv(rng: Random):
    decompose_fams = itertools.cycle(FAMILIES)
    equivalent_fams = itertools.cycle(FAMILIES)
    inequivalent_fams = itertools.cycle(f for f in FAMILIES if f.has_branches)
    equivalent = itertools.cycle((True, False))
    cards = itertools.cycle(CARD_SYSTEMS)
    while True:
        for cmd in rng.sample(PEEL_CYCLE, len(PEEL_CYCLE)):
            if cmd == "decompose":
                yield _decompose_call(next(decompose_fams), rng)
            elif cmd == "equiv":
                eq = next(equivalent)
                fam = next(equivalent_fams if eq else inequivalent_fams)
                yield _equiv_call(fam, rng, eq)
            else:
                yield card_call(*next(cards))


def oracle_sweep(rng: Random):
    for fam, height in zip(itertools.cycle(FAMILIES), itertools.cycle((7, 8))):
        seed = rng.randrange(2 ** 31)
        yield Call("oracle-verify", fam.system, [],
                   ["--horizon", str(height), "--seed", str(seed)],
                   lambda code, r, seed=seed, height=height: code == 0
                   and r["failures"] == [] and r["checked"] == 20
                   and r["height"] == height and r["seed"] == seed)


def calls(workload: str, seed: int | str):
    """The endless, seeded call sequence of ``workload``."""
    rng = Random(f"{workload}/{seed}")
    return {"check-deep": check_deep, "peel-equiv": peel_equiv,
            "oracle-sweep": oracle_sweep}[workload](rng)
