"""jetpde benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py [--workload verify-2nd|verify-3rd|jet-calls|all]
                         [--seed N] [--seconds T] [--trace 0|1]

With ``--trace 0`` a fresh process runs the workload's output checks, then
closed-loop ops for ``--seconds`` (whole cycles, at least 100 completed
ops, and at least the workload's cycles with new inputs, which later
cycles replay); further fresh processes time set-up alone. ``attempted``
and ``failed`` count the distinct ops, so they depend on the seed alone. Times are scaled to a
nominal host speed measured with a reference that does not use jetpde.
``--seconds`` is BENCHMARK.json's ``run_seconds``, which is passed on every
run; its default, RUN_SECONDS, is that same value, the one the metric
bounds were measured at. With ``--trace 1`` three processes run the same
fixed op list: plain, with spans at every layer boundary
(``bench/tracing.py``), and plain again. Every metric is printed by
name with its unit; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Run from any
directory; the library is imported from ``src/`` next to ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-2nd", "verify-3rd", "jet-calls")
VERIFY_WORKLOADS = ("verify-2nd", "verify-3rd")

# Seconds of closed-loop ops per run: BENCHMARK.json's run_seconds.
RUN_SECONDS = 25
# Fresh interpreters that time set-up alone, besides the measuring one.
SETUP_PROBES = 4
# Cycles of the fixed op list a traced run replays (see workloads.py).
TRACE_CYCLES = {"verify-2nd": 1, "verify-3rd": 1, "jet-calls": 20}
# A run must end within this many seconds.
DEADLINE_S = 170.0
# Host speed, in runs of the worker's reference per second, that time-based
# end-to-end metrics are scaled to. The host is shared: its speed drifts by
# +-25% over minutes, and scaling by the reference rate measured during the
# same run removes that drift (see README.md).
HOST_REF_PER_S = 400.0

UNITS = {
    "samples_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """A worker failed; the run prints no result."""


def worker(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def op_stats(rec: dict) -> dict:
    """Attempted, failed and skipped count the distinct ops, which depend on
    the seed alone; latencies and op time cover every run, replays too."""
    distinct = rec["distinct"]
    failed = [f for f in rec["failed"][:distinct] if f is not None]
    done_ms = [ms for ms, f in zip(rec["ms"], rec["failed"]) if f is None]
    reasons: dict = {}
    for kind, f in zip(rec["kind"][:distinct], rec["failed"][:distinct]):
        if f is not None:
            key = f"{kind.rsplit(':', 1)[0] if kind.startswith('verify') else kind}: {f}"
            reasons[key] = reasons.get(key, 0) + 1
    return {
        "attempted": distinct,
        "failed": len(failed),
        "skipped": sum(rec["skipped"][:distinct]),
        "runs": len(rec["ms"]),
        "completed_ms": done_ms,
        "op_s": sum(rec["ms"]) / 1e3,
        "reasons": dict(sorted(reasons.items())),
    }


def samples_per_s(workload: str, rec: dict, stats: dict) -> tuple[float, str]:
    if workload in VERIFY_WORKLOADS:
        n = sum(rec["samples"])
        return n / stats["op_s"], f"{n} attempted samples over {stats['op_s']:.3f} s of op time"
    ms = [m for m, s in zip(rec["ms"], rec["samples"]) if s]
    return len(ms) / (sum(ms) / 1e3), f"{len(ms)} sample_on_zero_set calls over {sum(ms) / 1e3:.3f} s in them"


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    loop = worker("loop", workload, seed, deadline, "--seconds", str(seconds))
    probes = [loop] + [worker("setup", workload, seed, deadline) for _ in range(SETUP_PROBES)]
    # Each time is scaled by (host speed during it) / HOST_REF_PER_S.
    setups = [p["setup_s"] * p["setup_host_per_s"] / HOST_REF_PER_S for p in probes]
    scale = loop["host_per_s"] / HOST_REF_PER_S
    stats = op_stats(loop)
    done = stats["completed_ms"]
    p50, p90 = statistics.median(done), percentile(done, 90)
    sps, sps_note = samples_per_s(workload, loop, stats)
    ops = stats["runs"] / stats["op_s"]
    metrics = {
        "samples_per_s": (sps / scale, f"raw {sps:.3f}: {sps_note}"),
        "ops_per_s": (ops / scale, f"raw {ops:.3f}: {stats['runs']} ops over {stats['op_s']:.3f} s "
                                   f"of op time, {loop['cycles']} cycles"),
        "op_ms_p50": (p50 * scale, f"raw {p50:.3f}: n={len(done)} completed ops"),
        "op_ms_p90": (p90 * scale, f"raw {p90:.3f}: n={len(done)} completed ops, "
                                   f"{sum(1 for x in done if x > p90)} beyond"),
        "peak_rss_mb": (loop["peak_rss_mb"], "ru_maxrss of the measuring process, not scaled"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh interpreters, raw "
                    + ", ".join(f"{p['setup_s']:.3f}" for p in probes)),
    }
    header(workload, seed, loop, f"seconds={seconds} trace=0")
    print(f"host speed: {loop['host_per_s']:.1f} reference runs/s during the ops; times below are "
          f"scaled to {HOST_REF_PER_S:.0f}/s (raw values in brackets)")
    print(f"checks: {'ok' if not loop['problems'] else loop['problems']}")
    print(f"distinct ops: attempted {stats['attempted']}, failed {stats['failed']}, skipped {stats['skipped']}, "
          f"failed_share {stats['failed'] / stats['attempted']:.6f} ratio; {stats['runs']} timed runs "
          f"({loop['cycles']} cycles, the first {loop['new_cycles']} with new inputs)")
    for reason, count in stats["reasons"].items():
        print(f"  failed  {count:6d}  {reason}")
    for name, (value, note) in metrics.items():
        print(f"{name:16s} {value:14.6f} {UNITS[name]:4s} [{note}]")
    return {
        "correct": not loop["problems"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in metrics.items()},
    }


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    cycles = str(TRACE_CYCLES[workload])
    # Plain runs on both sides of the traced one, so drift in machine speed
    # cancels out of the overhead estimate.
    plain = worker("fixed", workload, seed, deadline, "--cycles", cycles)
    traced = worker("fixed", workload, seed, deadline, "--cycles", cycles, "--trace")
    after = worker("fixed", workload, seed, deadline, "--cycles", cycles)
    plain_s = (op_seconds(plain) + op_seconds(after)) / 2
    stats = op_stats(plain)
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = op_seconds(traced) / plain_s - 1.0
    layers["failed_share"] = stats["failed"] / stats["attempted"]
    header(workload, seed, plain, f"trace=1 cycles={cycles}")
    print(f"checks: {'ok' if not plain['problems'] else plain['problems']}")
    print(f"ops: attempted {stats['attempted']}, failed {stats['failed']}, skipped {stats['skipped']}; "
          f"host-scaled op time plain {plain_s:.3f} s (mean of 2), traced {op_seconds(traced):.3f} s; "
          f"{layers.pop('trace.spans')} spans in bench/_out/spans-{workload}.npz")
    for reason, count in stats["reasons"].items():
        print(f"  failed  {count:6d}  {reason}")
    metrics = {}
    for name, value in layers.items():
        unit = layer_unit(name)
        print(f"{name:48s} {value:16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not plain["problems"], "attempted": stats["attempted"],
            "failed": stats["failed"], "metrics": metrics}


def op_seconds(rec: dict) -> float:
    """Op time of a worker, scaled to HOST_REF_PER_S."""
    return sum(rec["ms"]) / 1e3 * rec["host_per_s"] / HOST_REF_PER_S


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms") or ".ms_per_call." in name:
        return "ms"
    if name.endswith("_per_sample"):
        return "count/sample"
    if name.endswith("_per_prolong"):
        return "count/call"
    return "ratio"


def header(workload: str, seed: int, rec: dict, mode: str) -> None:
    prov = rec["provenance"]
    print(f"== jetpde benchmark: workload={workload} seed={seed} {mode}")
    print(f"provenance: python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"nproc {os.cpu_count()}, commit {git_commit()}, workload seed {seed}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "jetpde" / "__init__.py").is_file():
        print(f"no jetpde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = per_layer(name, args.seed, deadline)
            else:
                results[name] = end_to_end(name, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
