"""Tabulate how far float ``prolong`` lands from exact rational arithmetic.

For each geometry, each of the four ``jet-calls`` shapes (n, order) and
each of seeds 0-39, this takes ``tests/test_exact.py``'s oracle error
(``oracle_error``) of one call at element scale 0.5: the largest entry
error |float - exact| / (1 + |exact|) of the float prolongation against
``exact_reference``.  Calls whose float prolongation is a skip are
counted, not compared.

A second table takes the far-from-origin ``umbilical`` controls of
``tests/test_controls.py`` at seed 9 (conformal n = 2 and 3,
``SampleConfig(9, 100, scale=3.0, jet_scale=1e3)``): the report's
``max_defect`` and tolerance beside the oracle error of the sample that
gave that defect, its drawn jet moved by its element.  The gap between the
two is what float ``prolong`` loses on that sample.

The tables are information, not a gate: the script always exits 0 and prints
markdown.  Run from the repository root (about 20 s):

    PYTHONPATH=src python3 tests/oracle_errors.py
"""

from __future__ import annotations

import numpy as np

import exact_reference as exact
from jetpde.groups import GEOMETRIES, GeometryTag, GroupElement, prolong_batch, random_elements
from jetpde.pde import build, residuals
from jetpde.verify import SampleConfig, generators, invariance_report, residual_scales, sample_rows, seed_states
from test_exact import SHAPES, oracle_error

SCALE = 0.5
SEEDS = range(40)
FAR = SampleConfig(9, 100, scale=3.0, jet_scale=1e3)


def errors(geometry: str) -> tuple[dict, int]:
    """{(shape, seed): oracle error} of the calls that moved, and the skip count."""
    out, skips = {}, 0
    for n, order in SHAPES:
        for seed in SEEDS:
            e = oracle_error(geometry, n, order, seed, SCALE)
            if e is None:
                skips += 1
            else:
                out[(f"n{n}k{order}", seed)] = e
    return out, skips


def far_umbilical(n: int) -> tuple[float, int, float]:
    """The FAR report's max_defect, and the sample index and oracle error
    of its worst sample, redrawn as the report draws it (one block)."""
    tag = GeometryTag("conformal", n)
    desc, count = build(tag, "umbilical"), FAR.count
    states = seed_states(FAR.seed, count)
    drawn, jets = sample_rows(desc, generators(states[:count]), FAR.jet_scale)
    g = random_elements(tag, generators(states[count + drawn]), FAR.scale)
    moved, skips = prolong_batch(g, jets)
    rows = np.delete(np.arange(len(jets)), list(skips))
    values, _ = residuals(desc, moved)
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.abs(values) / residual_scales(desc, moved)
    k = int(np.nanargmax(defects))
    r = rows[k]
    element = GroupElement(g.kind, n, g.mat[r], None if g.shift is None else g.shift[r])
    error = exact.prolong_error(moved.jet(k), exact.prolong(element, jets.jet(r)))
    return invariance_report(desc, FAR).max_defect, int(drawn[r]), error


if __name__ == "__main__":
    print(f"### Float prolong against exact arithmetic, seeds {SEEDS.start}-{SEEDS.stop - 1}, "
          f"element scale {SCALE}\n")
    print("| geometry | compared | skipped | median | p99 | max | max at |")
    print("|---|---|---|---|---|---|---|")
    for geometry in GEOMETRIES:
        found, skips = errors(geometry)
        if not found:
            print(f"| {geometry} | 0 | {skips} | | | | |")
            continue
        e = np.array(list(found.values()))
        shape, seed = max(found, key=found.get)
        print(f"| {geometry} | {e.size} | {skips} | {np.median(e):.2e} | {np.percentile(e, 99):.2e} "
              f"| {e.max():.2e} | {shape} seed {seed} |")
    print(f"\n### Far-from-origin umbilical reports: the worst sample against exact arithmetic, seed {FAR.seed}, "
          f"{FAR.count} samples, element scale {FAR.scale}, jet scale {FAR.jet_scale:g}\n")
    print("| control | max_defect | tol | worst sample | its oracle error |")
    print("|---|---|---|---|---|")
    for n in (2, 3):
        report, index, error = far_umbilical(n)
        print(f"| umbilical-far-n{n} | {report:.2e} | {FAR.tol:.0e} | {index} | {error:.2e} |")
