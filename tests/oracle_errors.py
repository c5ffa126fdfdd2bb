"""Tabulate how far float ``prolong`` lands from exact rational arithmetic.

For each geometry, each of the four ``jet-calls`` shapes (n, order) and
each of seeds 0-39, this takes ``tests/test_exact.py``'s oracle error
(``oracle_error``) of one call at element scale 0.5: the largest entry
error |float - exact| / (1 + |exact|) of the float prolongation against
``exact_reference``.  Calls whose float prolongation is a skip are
counted, not compared.

The table is information, not a gate: the script always exits 0 and prints
markdown.  Run from the repository root (about 20 s):

    PYTHONPATH=src python3 tests/oracle_errors.py
"""

from __future__ import annotations

import numpy as np

from jetpde.groups import GEOMETRIES
from test_exact import SHAPES, oracle_error

SCALE = 0.5
SEEDS = range(40)


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
