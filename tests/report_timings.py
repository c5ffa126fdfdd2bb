"""Time invariance reports and single zero-set draws, per preset.

The first table gives milliseconds per sample of 300-sample reports: for
each of the five golden presets at n = 2 and 3, with n = 4 as an
information column, ``invariance_report(build(GeometryTag(g, n),
preset), SampleConfig(7, 300))``.  The second gives microseconds per
``sample_on_zero_set`` call for each preset at n = 2 and 3 (the sampler
mix of the ``jet-calls`` benchmark workload): 200 draws at jet scale 0.5,
draw i from ``default_rng((7, i))``.  Each cell is one warm-up run, then
the best of 5 timed runs.  BLAS runs on one thread.

``--parent PATH`` compares two trees in one process: the ``jetpde``
package under PATH/src is imported a second time under another package
name, and each cell alternates the two trees run by run (the order
swapping every run), so both see the same machine state.  A cell then
reads "this vs parent (wins)": the two best times and in how many of
the paired runs this tree was faster.

The tables are information, not a gate: the script always exits 0 and
prints markdown.  Run from the repository root (about 5 s, twice that
with ``--parent``):

    PYTHONPATH=src python3 tests/report_timings.py [--samples 300] [--ns 2 3 4] [--parent PATH]

The last n given is labelled an information column.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import jetpde.groups  # noqa: E402
import jetpde.pde  # noqa: E402
import jetpde.verify  # noqa: E402
from golden.make_reports import PRESETS  # noqa: E402

SEED = 7
RUNS = 5
DRAWS = 200
DRAW_NS = (2, 3)
JET_SCALE = 0.5
PARENT_PACKAGE = "jetpde_parent"


class Tree:
    """The entry points a table times, from one tree's ``jetpde``."""

    def __init__(self, groups, pde, verify):
        self.GeometryTag, self.build = groups.GeometryTag, pde.build
        self.SampleConfig, self.verify = verify.SampleConfig, verify


def load_tree(root: str, name: str = PARENT_PACKAGE) -> Tree:
    """The ``jetpde`` package under root/src, imported as package ``name``
    (its modules import each other relatively, so they stay in that tree)."""
    init = pathlib.Path(root) / "src" / "jetpde" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return Tree(*(importlib.import_module(f"{name}.{m}") for m in ("groups", "pde", "verify")))


def report_job(tree: Tree, preset: str, geometry: str, n: int, samples: int):
    """One report, as a call taking no arguments."""
    desc, cfg = tree.build(tree.GeometryTag(geometry, n), preset), tree.SampleConfig(SEED, samples)
    return lambda: tree.verify.invariance_report(desc, cfg)


def draws_job(tree: Tree, preset: str, geometry: str, n: int):
    """DRAWS single draws, as a call taking no arguments."""
    desc = tree.build(tree.GeometryTag(geometry, n), preset)
    sample = tree.verify.sample_on_zero_set
    return lambda: [sample(desc, np.random.default_rng((SEED, i)), JET_SCALE) for i in range(DRAWS)]


def seconds(job) -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def cell(jobs: list, per: float, digits: int = 3) -> str:
    """The best of RUNS timed runs of each job after one warm-up, times
    ``per``, the jobs alternating run by run; with two jobs, also how often
    the first was faster."""
    for job in jobs:
        job()
    times = [[] for _ in jobs]
    for r in range(RUNS):
        order = range(len(jobs)) if r % 2 == 0 else reversed(range(len(jobs)))
        for k in order:
            times[k].append(seconds(jobs[k]))
    best = [f"{per * min(t):.{digits}f}" for t in times]
    if len(jobs) == 1:
        return best[0]
    wins = sum(a < b for a, b in zip(*times))
    return f"{best[0]} vs {best[1]} ({wins}/{RUNS})"


def table(title: str, heads: list[str], rows) -> None:
    print(f"### {title}\n")
    print("| preset | " + " | ".join(heads) + " |")
    print("|---|" + "---|" * len(heads))
    for preset, cells in rows:
        print(f"| `{preset}` | " + " | ".join(cells) + " |")
    print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--ns", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--parent", metavar="PATH", help="root of a second tree to interleave with this one")
    args = parser.parse_args()
    trees = [Tree(jetpde.groups, jetpde.pde, jetpde.verify)]
    if args.parent:
        trees.append(load_tree(args.parent))
    paired = ", this tree vs the parent (runs this tree won)" if args.parent else ""
    heads = [f"n = {n}" for n in args.ns]
    if len(heads) > 1:
        heads[-1] += " (information)"
    table(f"Report time, ms per sample: seed {SEED}, {args.samples} samples, best of {RUNS} after one "
          f"warm-up, one BLAS thread{paired}", heads,
          ((p, [cell([report_job(t, p, g, n, args.samples) for t in trees], 1e3 / args.samples)
                for n in args.ns]) for p, g in PRESETS))
    table(f"Single draws, µs per `sample_on_zero_set` call: {DRAWS} draws at jet scale {JET_SCALE}, best "
          f"of {RUNS} after one warm-up, one BLAS thread{paired}", [f"n = {n}" for n in DRAW_NS],
          ((p, [cell([draws_job(t, p, g, n) for t in trees], 1e6 / DRAWS, 1) for n in DRAW_NS])
           for p, g in PRESETS))
