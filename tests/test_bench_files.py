"""The committed benchmark evidence agrees with its own runs.

Every ``BENCH_*.json`` at the repository root lists its ``runs`` and a
``summary`` per workload.  The summary must be what the runs give: the
number of pairs, each end-to-end metric's median on each side, and the
number of pairs the change won, ties counting for neither side.  Both sides
of a pair share a seed, and every run exited 0 with a correct answer.
``order`` numbers the runs of one workload in the order they ran, so it must
increase within each workload; some files restart it per workload.
"""

import json
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SIDES = ("parent", "change")


def by_workload(runs):
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def pairs_of(runs):
    """``pair -> {side: run}``, each side of each pair present once."""
    pairs = {}
    for run in runs:
        sides = pairs.setdefault(run["pair"], {})
        assert run["side"] not in sides, f"pair {run['pair']} has two {run['side']} runs"
        sides[run["side"]] = run
    for pair, sides in pairs.items():
        assert set(sides) == set(SIDES), f"pair {pair} has sides {sorted(sides)}"
    return pairs


def value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def test_there_is_evidence():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_summary_is_recomputed_from_the_runs(path):
    bench = json.loads(path.read_text())
    workloads = by_workload(bench["runs"])
    assert set(workloads) == set(bench["summary"])
    for workload, runs in workloads.items():
        orders = [run["order"] for run in runs]
        assert orders == sorted(set(orders)), f"{workload}: order does not increase"
        for run in runs:
            assert run["exit"] == 0, f"{workload} run {run['order']} exited {run['exit']}"
            assert run["result"]["correct"] is True, f"{workload} run {run['order']} incorrect"
        pairs = pairs_of(runs)
        for pair, sides in pairs.items():
            assert sides["parent"]["seed"] == sides["change"]["seed"], f"{workload} pair {pair}"
        summary = bench["summary"][workload]
        assert summary["pairs"] == len(pairs)
        for metric, better in END_TO_END.items():
            got = summary[metric]
            assert got["better"] == better
            for side in SIDES:
                assert got[side]["median"] == pytest.approx(
                    median(value(p[side], metric) for p in pairs.values()), rel=1e-12), \
                    f"{workload} {metric} {side} median"
            sign = 1 if better == "higher" else -1
            won = sum(sign * (value(p["change"], metric) - value(p["parent"], metric)) > 0
                      for p in pairs.values())
            assert got["change_won"] == won, f"{workload} {metric} change_won"
