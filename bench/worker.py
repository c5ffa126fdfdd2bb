"""One benchmark process: set up a workload, then check, loop or trace it.

Run by ``bench/run.py``, one fresh interpreter per measurement:

    python3 bench/worker.py setup  --workload W --seed S
    python3 bench/worker.py loop   --workload W --seed S --seconds T
    python3 bench/worker.py fixed  --workload W --seed S --cycles C [--trace]

Prints one JSON object on its last stdout line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"

# Ops latencies are reported for at least this many completed ops, so the
# 90th percentile has ten ops beyond it.
MIN_COMPLETED = 100
# Op time between two timings of the host-speed reference, and reference
# timings made after set-up.
REFERENCE_EVERY_S = 0.05
SETUP_REFERENCES = 30


class HostSpeed:
    """How fast this (shared) host runs right now.

    Times ``reference()``, a fixed mix of interpreter work and small numpy
    calls that never touches jetpde, so its rate follows the speed other
    tenants leave to this process and not the program under test.
    """

    def __init__(self):
        self.runs = 0
        self.seconds = 0.0

    @staticmethod
    def reference() -> float:
        import numpy as np

        total = 0.0
        a = np.arange(10.0)
        for i in range(3000):
            total += float(a[i % 10]) * 1.0001
            d = {"k": i}
            total += d["k"] * 1e-9
        m = 2.0 * np.eye(3)
        for _ in range(150):
            np.linalg.eigvalsh(m)
            total += float((np.zeros(6) + 1.0)[0])
        return total

    def sample(self) -> None:
        t = time.perf_counter()
        self.reference()
        self.seconds += time.perf_counter() - t
        self.runs += 1

    def per_s(self) -> float:
        return self.runs / self.seconds


def setup(name: str, seed: int, workdir: Path):
    """Import the CLI, build the workload's inputs and make one warm-up call.

    Returns the workload and the wall time since interpreter start-up
    finished, in seconds.
    """
    sys.path.insert(0, str(SRC))
    import jetpde.cli  # noqa: F401

    if not Path(jetpde.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"jetpde imported from {jetpde.cli.__file__}, not {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    wl = workloads.make(name, seed, workdir)
    try:
        wl.warm_up()
    except workloads.SKIPS:
        pass
    return wl, time.perf_counter() - T0


def run_op(op, skips, check=True):
    """(milliseconds, failure reason or None, skipped?) of one op.

    Inputs are made before the op's clock starts, and the output check
    runs after it has stopped."""
    fn, args = op.fn(), op.inputs()
    t = time.perf_counter()
    try:
        out = fn(*args)
    except skips:
        return (time.perf_counter() - t) * 1e3, None, True
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return (time.perf_counter() - t) * 1e3, type(exc).__name__, False
    ms = (time.perf_counter() - t) * 1e3
    return ms, op.check(out) if check else None, False


def run_ops(wl, skips, until, recorder=None):
    """Run whole cycles until ``until()`` holds; the op records as lists.

    The first ``wl.distinct_cycles`` cycles make new inputs, later ones
    replay them in order. ``distinct`` is the number of ops with new inputs,
    which come first in the records; a replay whose outcome differs from
    the op's first run is listed in ``replay_problems``.
    """
    rec = {"ms": [], "failed": [], "skipped": [], "samples": [], "kind": [], "replay_problems": []}
    host = HostSpeed()
    since_reference = 0.0
    cycles = []
    first = {}  # id(op) -> (failure reason, skipped) of the op's first run
    done = 0
    start = time.perf_counter()
    while not until(done, rec):
        if done < wl.distinct_cycles:
            cycles.append(wl.cycle())
        for op in cycles[done % len(cycles)]:
            if recorder is not None:
                recorder.op = len(rec["ms"])
            ms, reason, skipped = run_op(op, skips, check=recorder is None)
            outcome = first.setdefault(id(op), (reason, skipped))
            if outcome != (reason, skipped):
                rec["replay_problems"].append(f"{op.kind}: {outcome} on its first run, {(reason, skipped)} on a replay")
            rec["ms"].append(ms)
            rec["failed"].append(reason)
            rec["skipped"].append(skipped)
            rec["samples"].append(op.samples)
            rec["kind"].append(op.kind)
            since_reference += ms / 1e3
            if since_reference >= REFERENCE_EVERY_S:
                host.sample()
                since_reference = 0.0
        done += 1
    rec["wall_s"] = time.perf_counter() - start
    rec["cycles"] = done
    rec["distinct"] = sum(len(c) for c in cycles)
    rec["new_cycles"] = len(cycles)
    if host.runs == 0:
        host.sample()
    rec["host_per_s"] = host.per_s()
    return rec


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "loop", "fixed"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = measure(args, Path(workdir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(args, workdir: Path) -> dict:
    wl, setup_s = setup(args.workload, args.seed, workdir)
    host = HostSpeed()
    for _ in range(SETUP_REFERENCES):
        host.sample()
    result = {"setup_s": setup_s, "setup_host_per_s": host.per_s()}
    if args.mode != "setup":
        import workloads

        result["problems"] = wl.checks(args.seed)
        if args.mode == "loop":
            def until(done, rec):
                completed = sum(1 for f in rec["failed"] if f is None)
                return (time.perf_counter() - t_loop >= args.seconds and completed >= MIN_COMPLETED
                        and done >= wl.distinct_cycles)

            t_loop = time.perf_counter()
            result.update(run_ops(wl, workloads.SKIPS, until))
        else:
            recorder = None
            if args.trace:
                import tracing

                recorder = tracing.SpanRecorder(f"{args.workload}-seed{args.seed}")
                recorder.install()
            result.update(run_ops(wl, workloads.SKIPS, lambda done, rec: done >= args.cycles, recorder))
            if recorder is not None:
                result["layers"] = recorder.aggregate()
                recorder.write(OUT / f"spans-{args.workload}.npz")
        result["problems"] += result.pop("replay_problems")
        result["provenance"] = provenance()
    return result


if __name__ == "__main__":
    sys.exit(main())
