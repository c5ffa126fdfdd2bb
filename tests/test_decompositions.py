"""How often a third-order pass decomposes its Hessians.

A third-order report decomposes each drawn sample once: the draw stage
makes one ``np.linalg.eigh`` call (definiteness and the line rows'
adjugates), whose spectrum the soundness check of the draws reads, and,
per block, the evaluation stage makes at most one; a single residual makes
one.  Each pass of ``verify._scaled`` (the soundness check, an evaluation
block) takes det and the degenerate rows from one
``invariants.hessian_dets`` call, for the residuals and the scales.  A
Euclidean block's ratio check makes one ``eigvalsh`` call over the rows
before and after the move.  No stage runs the 5-operand ``np.einsum``
that the staged Pick contraction replaced.
"""

import collections

import numpy as np
import pytest

from jetpde import invariants, pde, verify
from jetpde.groups import GeometryTag
from jetpde.pde import build, lam, residual
from jetpde.verify import SampleConfig, invariance_report

DECOMPOSITIONS = ("eigh", "eigvalsh")


@pytest.fixture
def calls(monkeypatch):
    """Counts of the decompositions made, and of the einsum calls with five
    operands, while the test runs."""
    counts = collections.Counter()
    for name in DECOMPOSITIONS:
        def spy(*args, name=name, real=getattr(np.linalg, name), **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)

    def einsum(subscripts, *operands, real=np.einsum, **kwargs):
        counts["einsum5"] += int(len(operands) >= 5)
        return real(subscripts, *operands, **kwargs)
    monkeypatch.setattr(np, "einsum", einsum)
    return counts


def decompositions(counts) -> int:
    return sum(counts[name] for name in DECOMPOSITIONS)


def staged(monkeypatch, calls, name):
    """Wrap ``verify.<name>`` to record the decompositions of each call."""
    made = []
    real = getattr(verify, name)

    def wrapped(*args, **kwargs):
        before = decompositions(calls)
        out = real(*args, **kwargs)
        made.append(decompositions(calls) - before)
        return out
    monkeypatch.setattr(verify, name, wrapped)
    return made


@pytest.mark.parametrize("block", (verify.BLOCK_SAMPLES, 40))
@pytest.mark.parametrize("preset,geometry,n", [("affine_cubic", "affine", 2),
                                               ("projective_cubic", "projective", 3)])
def test_a_report_decomposes_once_per_stage_and_block(monkeypatch, calls, preset, geometry, n, block):
    monkeypatch.setattr(verify, "BLOCK_SAMPLES", block)
    draws, sampled, evaluated = (staged(monkeypatch, calls, name)
                                 for name in ("_cubic_draws", "sample_rows", "_evaluate"))
    rep = invariance_report(build(GeometryTag(geometry, n), preset), SampleConfig(7, 120))
    assert rep.evaluated > 0
    assert draws == [1]
    assert sampled[0] == draws[0]  # the soundness check reads the draw's spectrum
    assert len(evaluated) == -(-(rep.attempted - rep.skipped["no_root"]) // block)
    assert all(k <= 1 for k in evaluated)
    assert decompositions(calls) == sum(sampled) + sum(evaluated)
    assert calls["einsum5"] == 0


@pytest.mark.parametrize("preset,geometry,n", [("affine_cubic", "affine", 2),
                                               ("projective_cubic", "projective", 3)])
def test_one_residual_decomposes_once(calls, preset, geometry, n):
    desc = build(GeometryTag(geometry, n), preset)
    rows, jets = verify.sample_rows(desc, [np.random.default_rng((7, 0))], 0.5)
    assert rows.size == 1
    j = jets.jet(0)
    calls.clear()
    residual(desc, j)
    assert decompositions(calls) == 1
    assert calls["einsum5"] == 0


@pytest.mark.parametrize("preset,geometry,n", [("affine_cubic", "affine", 2),
                                               ("projective_cubic", "projective", 3)])
def test_a_scaled_pass_takes_one_det(monkeypatch, preset, geometry, n):
    dets = collections.Counter()
    real = invariants.hessian_dets

    def spy(lams):
        dets["calls"] += 1
        return real(lams)
    for module in (invariants, pde, verify):
        monkeypatch.setattr(module, "hessian_dets", spy)
    monkeypatch.setattr(verify, "BLOCK_SAMPLES", 40)
    per_pass = []
    real_scaled = verify._scaled

    def scaled(*args, **kwargs):
        before = dets["calls"]
        out = real_scaled(*args, **kwargs)
        per_pass.append(dets["calls"] - before)
        return out
    monkeypatch.setattr(verify, "_scaled", scaled)
    rep = invariance_report(build(GeometryTag(geometry, n), preset), SampleConfig(7, 120))
    assert rep.evaluated > 0
    assert len(per_pass) == 1 + -(-(rep.attempted - rep.skipped["no_root"]) // 40)  # the check, then each block
    assert per_pass == [1] * len(per_pass)


@pytest.mark.parametrize("block", (verify.BLOCK_SAMPLES, 40))
@pytest.mark.parametrize("expr,n", [("minimal_surface", 2), (lam(1) + lam(2) + lam(3), 3)])
def test_a_euclidean_block_checks_ratios_by_one_spectrum(monkeypatch, calls, expr, n, block):
    monkeypatch.setattr(verify, "BLOCK_SAMPLES", block)
    sampled, evaluated = (staged(monkeypatch, calls, name) for name in ("sample_rows", "_evaluate"))
    rep = invariance_report(build(GeometryTag("euclidean", n), expr), SampleConfig(7, 120))
    assert rep.evaluated > 0 and rep.max_ratio_defect >= 0.0
    blocks = -(-(rep.attempted - rep.skipped["no_root"]) // block)
    assert len(evaluated) == blocks
    assert calls["eigh"] == 0
    assert decompositions(calls) - sum(sampled) - sum(evaluated) == blocks
