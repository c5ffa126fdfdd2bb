"""Time 300-sample invariance reports: milliseconds per sample, per preset.

For each of the five golden presets at n = 2 and 3, with n = 4 as an
information column, this times ``invariance_report(build(GeometryTag(g,
n), preset), SampleConfig(7, 300))`` in this process: one warm-up run,
then the best of 5, divided by the sample count.  BLAS runs on one thread.
Compare two commits by running each alternately on the same machine.

The table is information, not a gate: the script always exits 0 and
prints markdown.  Run from the repository root (about 10 s):

    PYTHONPATH=src python3 tests/report_timings.py [--samples 300] [--ns 2 3 4]

The last n given is labelled an information column.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import time  # noqa: E402

from golden.make_reports import PRESETS  # noqa: E402
from jetpde.groups import GeometryTag  # noqa: E402
from jetpde.pde import build  # noqa: E402
from jetpde.verify import SampleConfig, invariance_report  # noqa: E402

SEED = 7
RUNS = 5


def ms_per_sample(preset: str, geometry: str, n: int, samples: int) -> float:
    """Best of RUNS timed reports after one warm-up, in ms per sample."""
    desc, cfg = build(GeometryTag(geometry, n), preset), SampleConfig(SEED, samples)
    invariance_report(desc, cfg)
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        invariance_report(desc, cfg)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best / samples


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--ns", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args()
    heads = [f"n = {n}" for n in args.ns]
    if len(heads) > 1:
        heads[-1] += " (information)"
    print(f"### Report time, ms per sample: seed {SEED}, {args.samples} samples, "
          f"best of {RUNS} after one warm-up, one BLAS thread\n")
    print("| preset | " + " | ".join(heads) + " |")
    print("|---|" + "---|" * len(heads))
    for preset, geometry in PRESETS:
        cells = [f"{ms_per_sample(preset, geometry, n, args.samples):.3f}" for n in args.ns]
        print(f"| `{preset}` | " + " | ".join(cells) + " |")
