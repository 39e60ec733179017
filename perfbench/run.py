"""The chordenum benchmark: one workload, timed for a fixed time, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Load is one closed-loop caller: this process starts one child interpreter
at a time (``child.py``), each running one pass of the workload against the
library in ``src/``, and the next pass starts only after the previous child
has exited.  Passes repeat while at least half of the next one fits in
``--seconds`` (at least one pass, two when tracing).  Set-up is timed in
extra children, a few before the passes and about one per two seconds of
passes after each, so that they sample the whole run.  Every output
is checked against ``reference.json``.

Timings are the best over the run.  Each request of a pass, and the rest
of the pass (child start-up, import, exit), is taken at its fastest over
the passes: ``wall_s`` is the sum of these parts, and ``op_p50_ms`` and
``op_p95_ms`` are percentiles over the requests.  On a shared two-vCPU
host the speed flips every second or so between a fast state and states
35% to 2x slower, in spells of up to minutes, and the share of time in
each varies from run to run.  A part at its fastest keeps the program's
own cost and drops most of the host's, as ``timeit``'s best-of does; a
whole pass is rarely fast from end to end, so its fastest instance
still varies with the host.  ``setup_s`` is the median of its probes.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the last
line reports the per-layer metrics, the tracing overhead among them.  The
spans of the last traced pass are written to ``perfbench/out/``.  Lines
before the last one give each metric with its sample count, and a run
record with nproc, the Python version and the load average at start and end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
SETUP_PROBES = 4  # before the passes; more follow each pass
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {f"{layer}.{kind}": unit for layer in tracer.LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update(
    {
        "symmetry.column_builds": "count",
        "symmetry.column_distinct": "count",
        "symmetry.column_reuse": "ratio",
        "symmetry.cells_built": "count",
        "symmetry.validations": "count",
        "reflection.mirror_builds": "count",
        "reflection.mirror_cells": "count",
        "oracle.matchings": "count",
        "oracle.matchings_per_s": "1/s",
        "diagram.classify_calls": "count",
        "diagram.classify_s": "s",
        "diagram.canonical_calls": "count",
        "diagram.canonical_s": "s",
        "series.mul_calls": "count",
        "series.mul_s": "s",
        "series.exp_calls": "count",
        "octahedron.cycles": "count",
        "octahedron.cycles_per_s": "1/s",
        "octahedron.canonical_s": "s",
        "octahedron.to_diagram_s": "s",
        "cli.render_s": "s",
        "cli.bytes_out": "bytes",
        "cli.checks": "count",
        "trace.overhead_frac": "ratio",
    }
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between the two nearest ranks.

    With few requests in a pass (nine on rows-200) the nearest rank would
    jump from one request to another; interpolation moves smoothly.
    """
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "unavailable"


def child_env() -> dict:
    """The library from ``src/``, a fixed hash seed, and bytecode caching on.

    With caching on, the warm-up probe leaves bytecode behind and setup_s
    times imports the way an installed package runs them.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, job=None) -> tuple[dict, float]:
    """Run one child to completion; return its report and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        input=json.dumps(job) if job is not None else "",
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def layer_metrics(summary: dict, results: list) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, inclusive, counters = summary["calls"], summary["inclusive"], summary["counters"]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = summary["layer_calls"][layer]
        metrics[f"{layer}.self_s"] = summary["layer_self"][layer]
    builds = counters["symmetry.column_builds"]
    metrics.update(
        {
            "symmetry.column_builds": builds,
            "symmetry.column_distinct": summary["column_distinct"],
            "symmetry.column_reuse": summary["column_distinct"] / builds if builds else 0.0,
            "symmetry.cells_built": counters["symmetry.cells_built"],
            "symmetry.validations": calls["symmetry.validate_even_sector_terms"],
            "reflection.mirror_builds": counters["reflection.mirror_builds"],
            "reflection.mirror_cells": counters["reflection.mirror_cells"],
            "oracle.matchings": counters["oracle.matchings"],
            "oracle.matchings_per_s": rate(counters["oracle.matchings"], inclusive["oracle.full_sweep"]),
            "diagram.classify_calls": calls["diagram.classify_pairing"],
            "diagram.classify_s": inclusive["diagram.classify_pairing"],
            "diagram.canonical_calls": calls["diagram.canonical_pairing_code"],
            "diagram.canonical_s": inclusive["diagram.canonical_pairing_code"],
            "series.mul_calls": calls["series.TruncatedSeries.__mul__"],
            "series.mul_s": inclusive["series.TruncatedSeries.__mul__"],
            "series.exp_calls": calls["series.TruncatedSeries.exp"],
            "octahedron.cycles": counters["octahedron.cycles"],
            "octahedron.cycles_per_s": rate(counters["octahedron.cycles"], inclusive["octahedron.count_cycles"]),
            "octahedron.canonical_s": inclusive["octahedron.HamCycle.canonical"],
            "octahedron.to_diagram_s": inclusive["octahedron.cycle_to_diagram"],
            "cli.render_s": inclusive["cli.render_sequence"] + inclusive["cli._emit"],
            "cli.bytes_out": sum(r["bytes"] for r in results),
            "cli.checks": sum(r["checks"] for r in results),
        }
    )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "chordenum" / "cli.py").is_file():
        raise BenchmarkError(f"no chordenum sources under {ROOT / 'src'}")
    expected = reference.load()
    requests = workloads.requests(workload, seed)
    # verify is checked line by line, so its text comes back from the child
    keep_text = any(r["kind"] == "cli" and r["argv"][0] == "verify" for r in requests)
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": loadavg(),
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.jsonl"

    deadline = time.perf_counter() + seconds
    run_child(["--probe"])  # fills the bytecode and file caches; not counted
    setup = [run_child(["--probe"])[0]["setup_s"] for _ in range(SETUP_PROBES)]

    passes = []
    failures = []
    attempted = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        job = {"requests": requests, "trace": traced, "keep_text": keep_text}
        if traced:
            job["spans_path"] = str(spans_path)
        report, wall = run_child([], job)
        if traced:
            wall -= report["post_s"]
            if report["left_wrapped"]:
                raise BenchmarkError(f"tracer left wrapped names: {report['left_wrapped'][:5]}")
        setup.append(report["setup_s"])
        setup += [run_child(["--probe"])[0]["setup_s"] for _ in range(max(1, round(wall / 2)))]
        for index, (request, result) in enumerate(zip(requests, report["requests"])):
            attempted += 1
            reason = reference.failure(request, result, expected)
            if reason is None and traced and result["sha256"] != passes[0]["report"]["requests"][index]["sha256"]:
                reason = "traced output differs from the untraced output"
            if reason is not None:
                failures.append(f"pass {len(passes)} {workloads.key(request)}: {reason}")
        passes.append({"traced": traced, "wall": wall, "report": report})
        # Start another pass only if at least half of it fits before the
        # deadline, so that a run takes about --seconds on average however
        # long a pass is.  The fastest pass so far is the estimate: a slow
        # first pass must not cut the run short.
        half_end = time.perf_counter() + min(p["wall"] for p in passes) / 2
        if half_end > deadline and (not trace or len(passes) >= 2):
            break
    record["loadavg_end"] = loadavg()
    record["pass_walls_s"] = ",".join(f"{p['wall']:.3f}" for p in passes)

    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in plain]
    record["median_wall_s"] = f"{statistics.median(walls):.3f}"
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["report"]["trace"], p["report"]["requests"]) for p in traced_passes]
        # the layer metrics are medians over traced passes, so their shares
        # are of the median traced pass; the overhead compares fastest passes
        traced_wall = statistics.median(p["wall"] for p in traced_passes)
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_frac"] = min(p["wall"] for p in traced_passes) / min(walls) - 1
        samples = {name: len(per_pass) for name in metrics}
        samples["trace.overhead_frac"] = len(passes)
        record["traced_wall_s"] = traced_wall
        # Share of the traced wall time spent in each layer's own code; the
        # rest is interpreter start-up, import and the benchmark itself.
        record["self_share"] = ",".join(
            f"{layer}={metrics[f'{layer}.self_s'] / traced_wall:.3f}" for layer in tracer.LAYERS
        )
        record["spans_written"] = str(spans_path.relative_to(ROOT))
        units = PER_LAYER
    else:
        seconds_by_pass = [[r["seconds"] for r in p["report"]["requests"]] for p in plain]
        fastest = [min(column) for column in zip(*seconds_by_pass)]  # per request
        rest = min(wall - sum(row) for wall, row in zip(walls, seconds_by_pass))
        record["fastest_pass_s"] = f"{min(walls):.3f}"
        latencies = [s * 1000 for s in fastest]
        metrics = {
            "wall_s": rest + sum(fastest),
            "op_p50_ms": percentile(latencies, 0.50),
            "op_p95_ms": percentile(latencies, 0.95),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["report"]["maxrss_kb"] for p in plain) / 1024,
        }
        samples = {
            "wall_s": len(walls),
            "op_p50_ms": len(latencies),
            "op_p95_ms": len(latencies),
            "setup_s": len(setup),
            "peak_rss_mb": len(plain),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "record": record,
        "passes": len(passes),
        "attempted": attempted,
        "failures": failures,
        "metrics": {name: (value, units[name], samples[name]) for name, value in metrics.items()},
    }


def print_result(result: dict, seed: int, seconds: float, trace: bool):
    """The metric table, the run record, then the result as one JSON line."""
    workload, attempted, failed = result["workload"], result["attempted"], len(result["failures"])
    print(f"# workload {workload}: {workloads.WHY[workload]}")
    print(f"# seed={seed} seconds={seconds:g} trace={int(trace)} passes={result['passes']}")
    print("# run " + " ".join(f"{k}={v}" for k, v in result["record"].items()))
    for name, (value, unit, count) in result["metrics"].items():
        print(f"{name:<28} {value:>16.6f} {unit:<6} n={count}")
    print(f"{'fail_frac':<28} {failed / attempted:>16.6f} {'ratio':<6} n={attempted}")
    for line in result["failures"][:20]:
        print(f"# FAILED {line}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=workloads.NAMES + ("all",), required=True,
        help="one workload, or all of them in turn (one result line each)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print_result(result, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
