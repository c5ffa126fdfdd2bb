"""The golden report grid: 5 presets x n = 2, 3, 4 x seeds 7, 11, 13, each
with 300 samples, recomputed and compared with ``golden/reports.json``.

Counts and verdicts must match on every platform.  The maxima must match
bit for bit under the numpy version that wrote the file; under another
version they are left out, and the test warns that it left them out.  A
change that moves reports on purpose regenerates the file with
``golden/make_reports.py`` and lists the moved values.
"""

import json
import warnings

import numpy as np
import pytest

from golden.make_reports import PATH, SAMPLES, grid, report

GOLDEN = json.loads(PATH.read_text())
MAXIMA = ("max_defect", "max_ratio_defect")


def test_the_file_holds_the_grid():
    assert GOLDEN["samples"] == SAMPLES
    assert [(r["preset"], r["geometry"], r["n"], r["seed"]) for r in GOLDEN["reports"]] == grid()


@pytest.mark.parametrize("entry", GOLDEN["reports"],
                         ids=lambda r: f"{r['preset']}-{r['geometry']}-{r['n']}-seed{r['seed']}")
def test_report_matches_the_golden_grid(entry):
    got, want = report(entry["preset"], entry["geometry"], entry["n"], entry["seed"]), entry["report"]
    if np.__version__ != GOLDEN["numpy"]:
        warnings.warn(f"numpy {np.__version__}, not the recorded {GOLDEN['numpy']}: "
                      "counts and verdicts compared, maxima not")
        got, want = ({k: v for k, v in r.items() if k not in MAXIMA} for r in (got, want))
    assert got == want
