"""Count the prolongation round trips that miss the benchmark's tolerance.

For each seed, this builds the first ``TWO_WAY_CYCLES`` cycles of the
``jet-calls`` workload (``bench/workloads.JetCallsWorkload``) and runs
their 16 prolong ops.  A round trip ``prolong(g^-1, prolong(g, j))``
misses when the op's own check fails: ``jets_close`` at 1e-9.  Ops whose
prolongation is a documented skip are not counted.

The count is information, not a gate: the script always exits 0 and
prints a markdown table.  Run from the repository root:

    PYTHONPATH=src python3 tests/round_trips.py [--seeds 0 40]
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (the benchmark's inputs and checks, read only)


def misses(seed: int) -> list[tuple[int, str, str]]:
    """(cycle, geometry, shape) of each round trip of ``seed`` that misses."""
    work = workloads.JetCallsWorkload(seed)
    out = []
    for c in range(workloads.TWO_WAY_CYCLES):
        for op in work.cycle():
            if not op.kind.startswith("prolong:"):
                continue
            try:
                there = op.fn()(*op.inputs())
            except workloads.SKIPS:
                continue
            if op.check(there):
                _, geometry, shape = op.kind.split(":")
                out.append((c, geometry, shape))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 40), metavar=("FIRST", "STOP"))
    seeds = range(*parser.parse_args(argv).seeds)

    found = {seed: misses(seed) for seed in seeds}
    counts = collections.Counter((geo, shape) for hits in found.values() for _, geo, shape in hits)
    shapes = [f"n{n}k{k}" for n, k in workloads.PROLONG_SHAPES]
    print(f"### Round trips missing 1e-9: {sum(counts.values())}, seeds {seeds.start}-{seeds.stop - 1}, "
          f"cycles 0-{workloads.TWO_WAY_CYCLES - 1}\n")
    print("| geometry | " + " | ".join(shapes) + " |")
    print("|---|" + "---|" * len(shapes))
    for geo in workloads.GEOMETRIES:
        print(f"| {geo} | " + " | ".join(str(counts[(geo, s)]) for s in shapes) + " |")
    per_seed = ", ".join(f"{seed}: {len(hits)}" for seed, hits in found.items() if hits)
    print(f"\nMisses per seed: {per_seed or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
