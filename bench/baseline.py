"""Run the benchmark over several seeds and record the baseline it gives.

Run from the repository root:

    python3 bench/baseline.py --seeds 1-10 --sets 2 --out bench/baseline.json

Each set runs every workload once per seed with ``--trace 0`` for the
``run_seconds`` of ``BENCHMARK.json``.  Seeds are the outer loop and the
workload order rotates from seed to seed, so a slow stretch of the host falls
on all workloads rather than on one.  Per set, each end-to-end metric is
summarised by its median, quartiles and spread (quartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles), both
as reported and unscaled (see ``run.py``); each later set also records how
far its medians moved from the first set's, in the metric's worse direction.
Then every workload runs twice with ``--trace 1`` on the first seed; the
per-layer table is the first of those runs, and the ``*.calls`` counters of
the two are compared.  The output also records which end-to-end metric each
layer's figures should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Layer -> the end-to-end metric, on the workload, that its figures should move.
LAYER_TARGETS = {
    "ring": "latency_p50_ms on check-deep",
    "tree": "calls_per_s on check-deep and peel-equiv",
    "freemod": "calls_per_s on check-deep",
    "coherent": "latency on check-deep; peak_rss_mib there if an entry cache lands",
    "indexset": "latency_p50_ms on peel-equiv",
    "decomp": "latency_p90_ms and calls_per_s on peel-equiv",
    "oracle": "calls_per_s on oracle-sweep only",
    "sampling": "calls_per_s on oracle-sweep",
    "cli": "latency_p50_ms on peel-equiv (the cli layer includes the system module)",
}
BYPASSES = [
    "a change confined to oracle leaves check-deep and peel-equiv unchanged",
    "a change confined to decomp leaves check-deep and oracle-sweep unchanged",
]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect answers:\n{proc.stdout}")
    result["notes"] = [line[2:] for line in lines if line.startswith("# ")]
    return result


def unscaled(result: dict) -> dict[str, float]:
    """The unscaled timings a ``--trace 0`` run prints in its notes."""
    line = next(note for note in result["notes"] if ": unscaled " in note)
    return {name: float(value)
            for name, value in re.findall(r"(\w+) ([-+.\deE]+) ", line.split(": unscaled ")[1] + " ")}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs over all seeds")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = []
    for number in range(1, args.sets + 1):
        values = {name: {} for name in names}
        raw = {name: {} for name in names}
        totals = {name: [0, 0] for name in names}
        for k, seed in enumerate(seeds):
            for name in names[k % len(names):] + names[:k % len(names)]:
                result = run(name, seed, seconds, 0)
                totals[name][0] += result["attempted"]
                totals[name][1] += result["failed"]
                for metric, entry in result["metrics"].items():
                    values[name].setdefault(metric, []).append(entry["value"])
                for metric, value in unscaled(result).items():
                    raw[name].setdefault(metric, []).append(value)
                print(f"set {number} {name} seed {seed}: " + ", ".join(
                    f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
        per_workload = {}
        for name in names:
            attempted, failed = totals[name]
            per_workload[name] = {
                "calls_attempted": attempted,
                "failed_ratio": failed / attempted,
                "end_to_end": {m: {"unit": units[m], **summary(v)}
                               for m, v in values[name].items()},
                "unscaled": {m: summary(v) for m, v in raw[name].items()},
            }
            for metric, stats in per_workload[name]["end_to_end"].items():
                if sets:
                    first = sets[0]["workloads"][name]["end_to_end"][metric]["median"]
                    shift = (stats["median"] - first) / first
                    stats["worse_than_set_1"] = shift if better[metric] == "lower" else -shift
                print(f"  set {number} {name} {metric}: median {stats['median']:.4g} "
                      f"spread {stats['spread']:.3f}"
                      + (f" worse than set 1 by {stats['worse_than_set_1']:+.3f}" if sets else ""),
                      flush=True)
        sets.append({"set": number, "workloads": per_workload})

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        traced = [run(name, seeds[0], seconds, 1) for _ in range(2)]
        counters = [{m: e["value"] for m, e in t["metrics"].items() if m.endswith(".calls")}
                    for t in traced]
        workloads[name] = {
            "why": w["why"],
            "per_layer": {m: {"unit": units[m], "value": e["value"]}
                          for m, e in traced[0]["metrics"].items()},
            "calls_counters_repeat": counters[0] == counters[1],
            "traced_run_notes": traced[0]["notes"],
        }
        print(f"  {name}: traced *.calls counters "
              f"{'repeat' if counters[0] == counters[1] else 'DIFFER'} across two runs", flush=True)

    record = {
        "measured": time.strftime("%Y-%m-%d"),
        "machine": f"{os.cpu_count()} CPUs ({platform.machine()}), "
                   f"Python {platform.python_version()}",
        "seeds": seeds,
        "run_seconds": seconds,
        "per_layer_note": "per-layer figures are per CLI call over a fixed prefix of the "
                          f"workload's calls, from a traced run on seed {seeds[0]}",
        "layer_targets": LAYER_TARGETS,
        "bypasses": BYPASSES,
        "sets": sets,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
