"""The control table: expressions whose verdict is known, each run as a
300-sample report (20 at the extreme jet scales, 100 at n = 4 and 5).

The rows whose report is right today must stay right.  The rows whose
report is wrong today are strict xfails, each naming the ROADMAP item that
fixes it: the fix makes its row pass, and then the mark must go.
"""

import pytest

from jetpde.groups import GeometryTag
from jetpde.pde import build, lam, pick, sigma, tau, tauring
from jetpde.verify import SampleConfig, invariance_report


def wrong_today(items, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP {items}: {why}")


def fails(defect=None, no_root=None):
    """The check of a report that must fail, with this defect (to 3 digits)
    or with this many no_root skips."""
    def check(report):
        assert not report.passed
        if defect is not None:
            assert report.evaluated > 0 and report.max_defect == pytest.approx(defect, rel=2e-3)
        if no_root is not None:
            assert report.skipped["no_root"] == no_root and report.evaluated == 0
    return check


def passes(report):
    assert report.passed and report.evaluated > 0


CONTROLS = [
    pytest.param(tau(1) - 1.0, "euclidean", 2, SampleConfig(7, 300), fails(0.287), id="tau1-minus-1"),
    pytest.param(lam(1) - lam(2) * 2.0, "euclidean", 2, SampleConfig(7, 300, scale=3.0), fails(0.712),
                 id="lam-ratio-scale3"),
    pytest.param(tau(1) * tau(2), "euclidean", 3, SampleConfig(7, 300), passes, id="tau1-tau2"),
    pytest.param(sigma(2), "euclidean", 3, SampleConfig(7, 300), passes, id="sigma2"),
    pytest.param(pick() * pick(), "projective", 3, SampleConfig(7, 300), passes, id="pick-squared"),
    pytest.param(tau(1) * tau(1) - tau(2) * 2.0, "euclidean", 2, SampleConfig(7, 300), fails(no_root=300),
                 id="even-order-zero"),
    pytest.param(tau(1) - 1.0, "euclidean", 4, SampleConfig(7, 100), fails(0.1555), id="tau1-minus-1-n4"),
    pytest.param(tau(1) - 1.0, "euclidean", 5, SampleConfig(7, 100), fails(0.1221), id="tau1-minus-1-n5"),
    pytest.param(sigma(2) - 1.0, "euclidean", 4, SampleConfig(7, 100), fails(0.01797), id="sigma2-minus-1-n4"),
    pytest.param(sigma(2) - 1.0, "euclidean", 5, SampleConfig(7, 100), fails(0.01928), id="sigma2-minus-1-n5"),
    pytest.param(tauring(2) - 1.0, "conformal", 4, SampleConfig(7, 100), fails(0.2207), id="tauring2-minus-1-n4"),
    pytest.param(tauring(2) - 1.0, "conformal", 5, SampleConfig(7, 100), fails(0.01628), id="tauring2-minus-1-n5"),
    pytest.param(lam(1) - lam(2) * 2.0, "euclidean", 2, SampleConfig(7, 300), fails(),
                 marks=wrong_today("item 10", "default-scale elements rarely flip the normal"), id="lam-ratio"),
    pytest.param(tau(1) * (tau(1) - 1.0), "euclidean", 2, SampleConfig(7, 300), fails(),
                 marks=wrong_today("item 9", "the line solve always takes the tau = 0 root"), id="tau1-branches"),
    pytest.param(pick() * (pick() - 1.0), "affine", 3, SampleConfig(11, 300), fails(),
                 marks=wrong_today("item 9", "third-order draws always solve Q = 0"), id="pick-branches"),
    pytest.param(pick() * pick() - 1.0, "projective", 3, SampleConfig(7, 300), fails(),
                 marks=wrong_today("items 9 and 4", "never sampled on pick^2 = 1, and the scale hides the constant"),
                 id="pick-squared-minus-1"),
    pytest.param(pick() * pick() + 1.0, "projective", 3, SampleConfig(7, 300), fails(),
                 marks=wrong_today("item 4", "the scale hides the constant of an empty zero set"),
                 id="pick-squared-plus-1"),
    pytest.param(tau(1) * (tau(1) - 1.0), "euclidean", 5, SampleConfig(7, 100), fails(),
                 marks=wrong_today("item 9", "the line solve always takes the tau = 0 root"), id="tau1-branches-n5"),
    pytest.param(pick() - 1.0, "affine", 5, SampleConfig(7, 100), fails(),
                 marks=wrong_today("item 4", "the scale hides the constant"), id="pick-minus-1-affine-n5"),
    pytest.param(pick() - 1.0, "projective", 5, SampleConfig(7, 100), fails(),
                 marks=wrong_today("item 4", "the scale hides the constant"), id="pick-minus-1-projective-n5"),
    pytest.param("minimal_surface", "euclidean", 3, SampleConfig(7, 20, jet_scale=1e120), fails(),
                 marks=wrong_today("item 4", "the scale does not see the chart metric"), id="minimal-surface-1e120"),
    pytest.param("minimal_surface", "euclidean", 3, SampleConfig(7, 20, jet_scale=1e154), fails(),
                 marks=wrong_today("item 4", "the scale does not see the chart metric"), id="minimal-surface-1e154"),
]


@pytest.mark.parametrize("expr,geometry,n,cfg,check", CONTROLS)
def test_control_verdict(expr, geometry, n, cfg, check):
    check(invariance_report(build(GeometryTag(geometry, n), expr), cfg))
