"""Seeded, closed-loop benchmark of the invsys command line.

Run from the repository root:

    python3 bench/run.py --workload check-deep --seed 1 --seconds 30 --trace 0

One caller in one process drives ``invsys.cli.main(argv)`` in-process with
stdout captured; the next call starts when the previous one returns.  Inputs
are JSON files generated from ``--seed`` (see ``workloads.py``) and every
answer is checked.  Fresh-interpreter import cost is reported once per run,
as ``setup_s``: the median of separate launches spread over the run.

Times are reported at a fixed reference speed.  A shared host's speed can
drift by half within seconds, so the benchmark pins itself (and the launches
it starts) to one CPU, brackets every call and every launch with timings of a
fixed pure-Python loop (``reference_seconds``), and scales the call's time by
``REFERENCE_S`` over the mean of the two.  A time therefore reads as on a
machine where that loop takes ``REFERENCE_S``; unscaled figures are printed
alongside.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed prefix of the workload's calls alternately plain
and under the span tracer of ``spans.py``, and reports per-layer call counts
and self times per CLI call (self times scaled like the end-to-end times), the
tracing overhead, and a self-test of the counters on fixed cases.  Every run
prints a table of its metrics and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import workloads

SETUP_LAUNCHES = 7
WARMUP_CALLS = 3
MIN_CALLS = 100
REFERENCE_S = 0.004  # the reference loop's time at the speed times are reported at

# Calls per traced pass: a few whole cycles of each workload's call pattern.
TRACE_CALLS = {"check-deep": 6, "peel-equiv": 30, "oracle-sweep": 6}
MIN_TRACE_ROUNDS = 2


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# -- running calls ----------------------------------------------------------------


def write_call(call: workloads.Call, stem: Path) -> list[str]:
    """Write the call's input files under ``stem`` and return its argv."""
    argv = ["--system", f"{stem}-system.json", "--cmd", call.cmd]
    Path(argv[1]).write_text(json.dumps(call.system))
    for n, elem in enumerate(call.elements):
        path = f"{stem}-element{n}.json"
        Path(path).write_text(json.dumps(elem))
        argv += ["--element", path]
    return argv + call.extra


def invoke(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One in-process CLI call: exit code (None on a traceback), stdout, seconds."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed call, not a dead benchmark
        code = None
        print(f"bench: {argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), time.perf_counter() - t0


def answer_ok(call: workloads.Call, code, stdout: str) -> bool:
    """The answer gate: exit 2 or a traceback fails; otherwise the call's check."""
    if code not in (0, 1):
        return False
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    try:
        return bool(call.check(code, report))
    except (KeyError, TypeError):
        return False


# -- end-to-end run ----------------------------------------------------------------


def _reference_work() -> int:
    table: dict = {}
    total = 0
    for i in range(10000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total + len(table)


def reference_seconds() -> float:
    """One timing of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def launch_seconds() -> float:
    """Wall time of one fresh interpreter importing ``invsys.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import invsys.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def run_e2e(cli, workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    launch_seconds()  # the first launch may also compile bytecode
    for call in itertools.islice(workloads.calls(workload, f"warmup/{seed}"), WARMUP_CALLS):
        invoke(cli, write_call(call, work / "warmup"))

    source = workloads.calls(workload, seed)
    raw, latencies = [], []  # per call: seconds as timed, and scaled to the reference speed
    raw_launches, launches = [], []
    failed = 0
    ref = reference_seconds()

    def scaled(taken: float) -> float:
        """``taken`` at the reference speed, by the reference timings on either side."""
        nonlocal ref
        after = reference_seconds()
        factor = 2 * REFERENCE_S / (ref + after)
        ref = after
        return taken * factor

    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(latencies) < MIN_CALLS:
        # Launches are spread over the run so that setup_s samples the host
        # over the same stretch as the calls.
        if (len(launches) < SETUP_LAUNCHES
                and time.perf_counter() - started >= len(launches) * seconds / SETUP_LAUNCHES):
            raw_launches.append(launch_seconds())
            launches.append(scaled(raw_launches[-1]))
        call = next(source)
        code, stdout, elapsed = invoke(cli, write_call(call, work / "call"))
        raw.append(elapsed)
        latencies.append(scaled(elapsed))
        failed += not answer_ok(call, code, stdout)
    while len(launches) < SETUP_LAUNCHES:
        raw_launches.append(launch_seconds())
        launches.append(scaled(raw_launches[-1]))

    def timings(samples: list[float], launched: list[float]) -> dict:
        deciles = statistics.quantiles(samples, n=10, method="inclusive")
        return {
            "setup_s": (statistics.median(launched), "s"),
            "calls_per_s": (len(samples) / sum(samples), "1/s"),
            "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        }

    attempted = len(latencies)
    metrics = timings(latencies, launches)
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    print(f"# {workload}: {attempted} calls, {sum(raw):.2f} s busy; latency percentiles over "
          f"{attempted} calls; failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"# {workload}: unscaled " + ", ".join(
        f"{name} {value:.4g} {unit}" for name, (value, unit) in timings(raw, raw_launches).items()))
    return metrics, attempted, failed


# -- traced run ---------------------------------------------------------------------

# Per-layer metrics reported by a traced run: span-name counters ...
CALL_COUNTERS = (
    "ring.elem", "tree.check_node", "tree.restrict", "tree.branch_node",
    "freemod.module_element", "freemod.apply_hom", "freemod.coefficient", "freemod.add",
    "coherent.eval_entry", "indexset.classify", "indexset.square_restrict",
    "decomp.decompose", "decomp.equiv_decide", "decomp.extract_branch", "oracle.truncate",
)
# ... self times of single spans ...
SPAN_SELF_TIMES = (
    "coherent.eval_entry", "coherent.check_coherence", "coherent.check_eq_recurrences",
    "coherent.restriction_stability", "coherent.normalize_cobounded",
    "decomp.refine_nonzero", "decomp.support_bound", "decomp.extract_branch",
    "oracle.truncate", "oracle.primary_table", "oracle.independent_table",
    "oracle.table_coherent", "oracle.solve_coboundary", "cli.load",
)
# ... and self times of whole layers (the cli layer includes the system module).
LAYER_SELF_TIMES = {
    "ring": ("ring",), "tree": ("tree",), "freemod": ("freemod",), "coherent": ("coherent",),
    "indexset": ("indexset",), "decomp": ("decomp",), "oracle": ("oracle",),
    "sampling": ("sampling",), "cli": ("cli", "system"),
}


def run_pass(cli, prepared) -> tuple[float, int]:
    """Run the prepared calls in order; wall seconds and failed calls."""
    failed = 0
    t0 = time.perf_counter()
    for call, argv in prepared:
        code, stdout, _ = invoke(cli, argv)
        failed += not answer_ok(call, code, stdout)
    return time.perf_counter() - t0, failed


def traced_pass(cli, tracer, prepared) -> tuple[float, int]:
    """``run_pass`` with every layer wrapped; the tracer keeps only this pass's spans."""
    tracer.clear()
    tracer.install()
    try:
        return run_pass(cli, prepared)
    finally:
        tracer.remove()


# Self-test counters that a later change may move on purpose (an entry cache,
# deciding equivalence from the canonical form): reported, never failing.
INFORMATIONAL = ("coherent.eval_entry", "decomp.equiv_decide")


def self_test(cli, tracer, work: Path) -> bool:
    """Check the counters against identities on fixed cases independent of the
    seed; False if one outside ``INFORMATIONAL`` fails.

    ``check`` evaluates 8 entries per index triple below its horizon and
    ``card`` decides every pair of its classes; these two are informational.
    A branchless tree has nothing to extract.  Most other identities count
    calls that reach a function only through a name ``cli`` imported, so they
    fail if the tracer wraps a function only where it is defined, and a
    counter that falls to 0 cannot pass for a gain.
    """
    h = workloads.CHECK_HORIZON
    checks = [(call, {"coherent.eval_entry": 8 * comb(h, 3),
                      "coherent.restriction_stability": comb(h, 3)})
              for call in itertools.islice(workloads.calls("check-deep", "selftest"), 3)]
    checks += [(workloads.card_call(modulus, count),
                {"decomp.equiv_decide": comb(modulus ** count, 2),
                 "decomp.quotient_card_report": 1})
               for modulus, count in workloads.CARD_SYSTEMS]
    decreasing = next(f for f in workloads.FAMILIES if not f.has_branches)
    checks += [(next(c for c in workloads.calls("peel-equiv", "selftest")
                     if c.cmd == cmd and c.system == decreasing.system),
                {"decomp.extract_branch": 0, "decomp.decompose": 1})
               for cmd in ("decompose", "equiv")]
    checks.append((next(workloads.calls("oracle-sweep", "selftest")),
                   {"oracle.truncate": 20, "sampling.random_planted": 20}))
    ok = True
    for n, (call, want) in enumerate(checks):
        _, failed = traced_pass(cli, tracer, [(call, write_call(call, work / f"selftest{n}"))])
        counts = tracer.counts()
        results = []
        for name, expected in want.items():
            gated = name not in INFORMATIONAL
            passed = counts[name] == expected
            ok &= passed or not gated
            results.append(f"{name}.calls {counts[name]} (want {expected}"
                           f"{'' if gated else ', informational'}) {'ok' if passed else 'FAIL'}")
        ok &= failed == 0
        print(f"# selftest: {call.cmd} on {call.system['tree']['kind']} "
              f"(m={call.system['ring']['m']}): {'answer ok' if failed == 0 else 'answer FAIL'}, "
              + ", ".join(results))
    return ok


def run_traced(cli, workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, int, bool]:
    from spans import Tracer

    tracer = Tracer()
    correct = self_test(cli, tracer, work)
    for target in tracer.missing:
        print(f"# trace FAIL: {target} not found, so its spans would read 0")
    correct &= not tracer.missing

    source = itertools.islice(workloads.calls(workload, seed), TRACE_CALLS[workload])
    prepared = [(call, write_call(call, work / f"t{n}")) for n, call in enumerate(source)]
    n_calls = len(prepared)
    plain_walls, traced_walls, self_runs = [], [], []
    counts = None
    failed = attempted = 0
    started = time.perf_counter()
    while len(traced_walls) < MIN_TRACE_ROUNDS or time.perf_counter() - started < seconds:
        ref = reference_seconds()
        wall, bad = run_pass(cli, prepared)
        plain_walls.append(wall)
        failed += bad
        wall, bad = traced_pass(cli, tracer, prepared)
        traced_walls.append(wall)
        failed += bad
        scale = 2 * REFERENCE_S / (ref + reference_seconds())
        attempted += 2 * n_calls
        if counts is None:
            counts = tracer.counts()
            distinct = tracer.distinct_entries
        elif tracer.counts() != counts or tracer.distinct_entries != distinct:
            print("# trace FAIL: call counters differ between traced passes of the same calls")
            correct = False
        self_runs.append({name: t * scale for name, t in tracer.self_times().items()})
    WORK.joinpath("spans").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "spans" / f"{workload}.bin")

    def per_call_self(keep) -> float:
        """Median over passes of the summed self time of the spans ``keep`` selects."""
        return statistics.median(
            sum(t for name, t in run.items() if keep(name)) for run in self_runs) / n_calls

    metrics = {}
    for name in CALL_COUNTERS:
        metrics[f"{name}.calls"] = (counts[name] / n_calls, "count/call")
    evals = counts["coherent.eval_entry"]
    metrics["coherent.eval_entry.unique_ratio"] = (distinct / evals if evals else 0.0, "ratio")
    extracts = counts["decomp.extract_branch"]
    metrics["decomp.rounds_per_branch"] = (
        counts["decomp.refine_nonzero"] / extracts if extracts else 0.0, "ratio")
    for name in SPAN_SELF_TIMES:
        metrics[f"{name}.self_s"] = (per_call_self(lambda span: span == name), "s/call")
    for layer, members in LAYER_SELF_TIMES.items():
        metrics[f"{layer}.self_s"] = (
            per_call_self(lambda span: span.split(".")[0] in members), "s/call")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    metrics["trace.spans"] = (len(tracer.start) / n_calls, "count/call")
    print(f"# {workload}: {len(traced_walls)} traced and plain passes of {n_calls} calls; "
          f"per-layer figures are per CLI call; spans in .bench_work/spans/{workload}.bin")
    return metrics, attempted, failed, correct


# -- entry point --------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "invsys" / "cli.py").is_file():
        fail(f"no invsys sources under {SRC}; run from a full checkout")
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run, so the reference timings see the speed
        # of the CPU the calls run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import invsys.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported invsys from {cli.__file__}, not from {SRC}")

    work = WORK / f"inputs-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, correct = run_traced(
                cli, args.workload, args.seed, args.seconds, work)
        else:
            metrics, attempted, failed = run_e2e(cli, args.workload, args.seed, args.seconds, work)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13}  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
