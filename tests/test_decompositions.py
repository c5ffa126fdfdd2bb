"""How often a third-order pass decomposes its Hessians.

A third-order report decomposes each stack of Hessians once: the draw
stage (definiteness and the line rows' adjugates), the soundness check of
the draws and, per block, the evaluation stage each make at most one
``np.linalg.eigh`` or ``eigvalsh`` call, and a single residual makes one.
No stage runs the 5-operand ``np.einsum`` that the staged Pick contraction
replaced.
"""

import collections

import numpy as np
import pytest

from jetpde import verify
from jetpde.groups import GeometryTag
from jetpde.pde import build, residual
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
    assert sampled[0] - draws[0] <= 1  # the soundness check
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
