"""Write the golden report grid, ``reports.json`` beside this script.

The grid is 5 presets x n = 2, 3, 4 x seeds 7, 11, 13, each an invariance
report of 300 samples at the default scales and tolerance.  The file
records the numpy version it was made with, since maxima are compared bit
for bit only under that version (``tests/test_golden.py``).

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_reports.py

Regenerate only in a change that moves reports on purpose, and list the
moved values with it.
"""

import json
import pathlib

import numpy as np

from jetpde.groups import GeometryTag
from jetpde.pde import build
from jetpde.verify import SampleConfig, invariance_report

PATH = pathlib.Path(__file__).with_name("reports.json")
PRESETS = (
    ("minimal_surface", "euclidean"),
    ("monge_ampere", "euclidean"),
    ("umbilical", "conformal"),
    ("affine_cubic", "affine"),
    ("projective_cubic", "projective"),
)
NS = (2, 3, 4)
SEEDS = (7, 11, 13)
SAMPLES = 300


def grid() -> list[tuple[str, str, int, int]]:
    """(preset, geometry, n, seed) of each report, in file order."""
    return [(p, g, n, s) for p, g in PRESETS for n in NS for s in SEEDS]


def report(preset: str, geometry: str, n: int, seed: int) -> dict:
    desc = build(GeometryTag(geometry, n), preset)
    return invariance_report(desc, SampleConfig(seed, SAMPLES)).to_json()


def main() -> None:
    reports = [{"preset": p, "geometry": g, "n": n, "seed": s, "report": report(p, g, n, s)}
               for p, g, n, s in grid()]
    text = json.dumps({"numpy": np.__version__, "samples": SAMPLES, "reports": reports}, indent=2)
    PATH.write_text(text + "\n")


if __name__ == "__main__":
    main()
