"""The batch axis: invariance reports, element draws, prolongation and
residuals over N samples reproduce N batches of one bit for bit, with the
same skips; the batches of one reproduce the scalar routes of
``jet_reference``; the batched report reproduces its per-sample loop
byte for byte, whatever its block size; and one seeding pass gives every
generator the state ``np.random.default_rng`` gives it.

Both sides run live in this process on the same inputs, so the comparison
holds whatever BLAS/LAPACK build the wheels carry.
"""

import numpy as np
import pytest

import jet_reference as ref
from jet_reference import assert_bitwise
from jetpde import verify
from jetpde.errors import ChartDomain, DivisionBySingular, JetError
from jetpde.groups import (
    GEOMETRIES,
    GeometryTag,
    GroupElement,
    _minimal_rotation,
    prolong,
    prolong_batch,
    Elements,
    random_element,
    random_elements,
)
from jetpde.jetspace import GraphJet, JetBatch
from jetpde.invariants import adjugates, hessian_dets, pick_numerator, pick_numerators
from jetpde.pde import build, const, pick, residual, residuals
from jetpde.symtensor import SymCubic, SymMatrix, _cubic_gather, _matrix_gather
from jetpde.verify import (
    SampleConfig,
    generators,
    invariance_report,
    report_to_text,
    residual_scale,
    residual_scales,
    sample_on_zero_set,
    sample_rows,
    seed_states,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PRESETS = (
    ("minimal_surface", "euclidean"),
    ("monge_ampere", "euclidean"),
    ("umbilical", "conformal"),
    ("affine_cubic", "affine"),
    ("projective_cubic", "projective"),
)
PRESET_OF = {"euclidean": "monge_ampere", "conformal": "umbilical",
             "affine": "affine_cubic", "projective": "projective_cubic"}
CONFIGS = (SampleConfig(7, 40), SampleConfig(11, 40), SampleConfig(5, 30, scale=3.0, jet_scale=3.0),
           SampleConfig(2**32 + 5, 40), SampleConfig(2**64 + 5, 40))
# the byte-identity grid of 300-sample reports
GRID = (SampleConfig(7, 300), SampleConfig(11, 300), SampleConfig(13, 300))


def config_id(cfg) -> str:
    return f"seed{cfg.seed}-scale{cfg.scale}" + ("-300" if cfg in GRID else "")


def same_report(desc, cfg):
    text = report_to_text(invariance_report(desc, cfg))
    assert text == report_to_text(ref.invariance_report(desc, cfg))
    return invariance_report(desc, cfg)


@pytest.mark.parametrize("cfg", CONFIGS + GRID, ids=config_id)
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("preset,geometry", PRESETS)
def test_reports_match_per_sample_loop(preset, geometry, n, cfg):
    same_report(build(GeometryTag(geometry, n), preset), cfg)


@pytest.mark.parametrize("n,cfg,kinds", [
    (2, SampleConfig(7, 300), {"chart_domain"}),
    (3, SampleConfig(5, 30, scale=3.0, jet_scale=3.0), {"not_graph", "degenerate_hessian"}),
])
def test_reports_with_every_skip_kind_match(n, cfg, kinds):
    rep = same_report(build(GeometryTag("projective", n), "projective_cubic"), cfg)
    assert {k for k, v in rep.skipped.items() if v} >= kinds


def test_reports_with_no_root_match():
    # the sampler draws on pick = 0, where pick - 1 is -1: no draw is sound
    rep = same_report(build(GeometryTag("projective", 3), pick() - 1.0), SampleConfig(7, 30))
    assert rep.skipped["no_root"] == rep.attempted


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("preset,geometry", PRESETS)
def test_blocks_give_the_unblocked_report(preset, geometry, n, monkeypatch):
    desc = build(GeometryTag(geometry, n), preset)
    cfgs = (SampleConfig(7, 40), SampleConfig(5, 30, scale=3.0, jet_scale=3.0))
    whole = [report_to_text(invariance_report(desc, cfg)) for cfg in cfgs]
    monkeypatch.setattr(verify, "BLOCK_SAMPLES", 7)
    assert [report_to_text(invariance_report(desc, cfg)) for cfg in cfgs] == whole


def assert_default_states(seed, count):
    rngs = generators(seed_states(seed, count))
    entropy = [(seed, i) for i in range(count)] + [(seed, i, 1) for i in range(count)]
    assert len(rngs) == len(entropy)
    for t, rng in zip(entropy, rngs):
        assert rng.bit_generator.state == np.random.default_rng(t).bit_generator.state


def test_seed_states_at_word_boundaries():
    # 2**64 + 5 coerces to the words [5, 0, 1]; with i and 1 its entropy is
    # longer than the four-word pool and goes through its extra mixing loop
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5):
        assert_default_states(seed, 5)
    assert seed_states(7, 0).shape == (0, 4)
    assert generators(seed_states(7, 0)) == []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**130 - 1), st.integers(0, 8))
def test_seed_states_match_default_rng(seed, count):
    assert_default_states(seed, count)


def random_jet(rng, tag, order, spread):
    n = tag.n
    return GraphJet(
        tag.chart, n, order, spread * rng.standard_normal(n), spread * rng.standard_normal(),
        spread * rng.standard_normal(n), SymMatrix(n, rng.standard_normal(n * (n + 1) // 2)),
        SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order == 3 else None,
    )


def vertical(j):
    """A rotation turning the jet's tangent plane vertical: its prolongation
    is not a graph."""
    nu = np.concatenate([[1.0], -j.grad]) / np.sqrt(1.0 + j.grad @ j.grad)
    e1 = np.zeros(j.n + 1)
    e1[1] = 1.0
    U, _, Vt = np.linalg.svd(_minimal_rotation(nu, e1))
    return U @ Vt


def outcome(fn, *args):
    try:
        return fn(*args)
    except JetError as exc:
        return type(exc)


def assert_same_jet(got: GraphJet, want: GraphJet):
    for name in ("base", "grad"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    assert_bitwise(got.u, want.u)
    for name in ("hess", "cubic"):
        if getattr(want, name) is not None:
            assert_bitwise(getattr(got, name).data, getattr(want, name).data)


def assert_same_value(got, want):
    """Bitwise equal floats, or the same JetError type."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert_bitwise(got, want)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_element_draw_matches_scalar_reference(geometry, n):
    tag = GeometryTag(geometry, n)
    for k in range(40):
        for scale in (0.0, 0.3, 0.5, 3.0):
            got = outcome(random_element, tag, (k, 3, 1), scale)
            want = outcome(ref.random_element, tag, (k, 3, 1), scale)
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
                continue
            assert_bitwise(got.mat, want.mat)
            if want.shift is not None:
                assert_bitwise(got.shift, want.shift)


def degenerate(rng, n):
    """A rank-one Hessian: on the degenerate locus."""
    v = rng.standard_normal(n)
    return SymMatrix.from_full(np.outer(v, v))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("geometry", ("affine", "projective"))
def test_third_order_batch_of_one_matches_scalar_reference(geometry, n):
    tag = GeometryTag(geometry, n)
    descs = [build(tag, PRESET_OF[geometry]), build(tag, pick() ** 2 - pick() * 0.5),
             build(tag, const(2.0))]
    rng = np.random.default_rng((n, 17))
    for k in range(150):
        j = random_jet(rng, tag, 3, 0.5)
        if k % 10 == 0:
            j = GraphJet(j.chart, n, 3, j.base, j.u, j.grad, degenerate(rng, n), j.cubic)
        det, errors = hessian_dets(np.linalg.eigh(j.hess.full()[None])[0])
        assert_same_value(type(errors[0]) if errors else float(det[0]), outcome(ref.hessian_det, j.hess))
        assert_bitwise(pick_numerator(j.hess, j.cubic), ref.pick_numerator(j.hess, j.cubic))
        for desc in descs:
            assert_same_value(outcome(residual, desc, j), outcome(ref.residual, desc, j))
            assert_same_value(outcome(residual_scale, desc, j), outcome(ref.residual_scale, desc, j))


@pytest.mark.parametrize("n", range(1, 9))
def test_pick_numerator_stack_rows_are_batches_of_one(n):
    # the staged contraction on a stack gathered from packed storage (a
    # strided array, as in the residual) gives each row's batch of one, and
    # the mirror's 2-D staging, bit for bit; every fifth Hessian is degenerate
    rng = np.random.default_rng((n, 29))
    hess = rng.standard_normal((40, n * (n + 1) // 2))
    hess[::5] = [degenerate(rng, n).data for _ in range(8)]
    cubic = rng.standard_normal((40, len(SymCubic(n).data)))
    q = pick_numerators(adjugates(*np.linalg.eigh(hess[:, _matrix_gather(n)])), cubic[:, _cubic_gather(n)])
    for i in range(40):
        h, c = SymMatrix(n, hess[i]), SymCubic(n, cubic[i])
        assert_bitwise(q[i], pick_numerator(h, c))
        assert_bitwise(q[i], ref.pick_numerator(h, c))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("preset", ("minimal_surface", "monge_ampere", "umbilical"))
def test_second_order_scale_matches_scalar_reference(preset, n):
    geometry = "conformal" if preset == "umbilical" else "euclidean"
    desc = build(GeometryTag(geometry, n), preset)
    rng = np.random.default_rng((n, 19))
    for _ in range(100):
        j = random_jet(rng, desc.geometry, 2, 3.0)
        assert_bitwise(residual_scale(desc, j), ref.residual_scale(desc, j))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("preset,geometry", PRESETS)
def test_samplers_match_scalar_reference(preset, geometry, n):
    desc = build(GeometryTag(geometry, n), preset)
    for k in range(40):
        got = sample_on_zero_set(desc, np.random.default_rng((k, 23)), 0.5)
        want = ref.sample_on_zero_set(desc, np.random.default_rng((k, 23)), 0.5)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_jet(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("preset,geometry,jet_scale", [
    ("minimal_surface", "euclidean", 1e308), ("umbilical", "conformal", 1e77),
    ("affine_cubic", "affine", 1e308), ("projective_cubic", "projective", 1e308),
])
def test_overflowing_draws_find_no_root(monkeypatch, preset, geometry, jet_scale, n):
    # at these jet scales some rows' 1-jets or umbilics overflow: those rows
    # find no root, and every other row draws what it draws alone
    desc = build(GeometryTag(geometry, n), preset)
    line_values, lines = verify._line_values, []

    def recorded(*args):
        lines.append(line_values(*args))
        return lines[-1]

    monkeypatch.setattr(verify, "_line_values", recorded)
    rows, jets = sample_rows(desc, generators(seed_states(7, 40)[:40]), jet_scale)
    singles = [sample_on_zero_set(desc, rng, jet_scale) for rng in generators(seed_states(7, 40)[:40])]
    if geometry == "euclidean":
        # h hess ~ hess / |grad|^2 underflows on every line that survives the
        # draw: an identically zero line has no root
        assert lines[0].size > 0 and not lines[0].any()
        assert rows.size == 0
    else:
        assert 0 < rows.size < 30
    assert rows.tolist() == [i for i, j in enumerate(singles) if j is not None]
    for k, i in enumerate(rows.tolist()):
        assert_same_jet(jets.jet(k), singles[i])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    n=st.sampled_from((2, 3)),
    order=st.sampled_from((2, 3)),
    count=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((0.3, 0.5, 3.0)),
    vertical_rows=st.sets(st.integers(0, 23), max_size=3),
)
def test_batch_equals_batches_of_one(geometry, n, order, count, seed, scale, vertical_rows):
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng(seed)
    jets = [random_jet(rng, tag, order, scale) for _ in range(count)]
    seeds = [(seed, i, 1) for i in range(count)]

    elements = random_elements(tag, [np.random.default_rng(s) for s in seeds], scale)
    singles = [random_element(tag, s, scale) for s in seeds]
    for i, g in enumerate(singles):
        assert_bitwise(elements.mat[i], g.mat)
        if g.shift is not None:
            assert_bitwise(elements.shift[i], g.shift)
    if geometry == "euclidean":
        # rows whose element turns the jet vertical exercise the not_graph skip
        for i in vertical_rows & set(range(count)):
            elements.mat[i] = vertical(jets[i])
            singles[i] = GroupElement("euclidean", n, elements.mat[i], elements.shift[i])

    moved, skips = prolong_batch(elements, JetBatch.of(jets))
    kept = [i for i in range(count) if i not in skips]
    assert len(moved) == len(kept)
    for i in range(count):
        want = outcome(prolong, singles[i], jets[i])
        if i in skips:
            assert type(skips[i]) is want
        else:
            assert_same_jet(moved.jet(kept.index(i)), want)

    desc = build(tag, PRESET_OF[geometry])
    if desc.order != order or not kept:
        return
    values, degenerate = residuals(desc, moved)
    live = [r for r in range(len(moved)) if r not in degenerate]
    for r in range(len(moved)):
        want = outcome(residual, desc, moved.jet(r))
        if r in degenerate:
            assert type(degenerate[r]) is want
        else:
            assert_bitwise(values[r], want)
    if live:
        scales = residual_scales(desc, moved.take(live))
        for k, r in enumerate(live):
            assert_bitwise(scales[k], residual_scale(desc, moved.jet(r)))



@pytest.mark.parametrize("n", (2, 3))
def test_failing_divisor_skips_its_sample_only(n):
    # at jet scale 1e5 most conformal divisors fail the division test: each
    # such sample is a chart_domain skip caused by it, alone as in the batch
    tag = GeometryTag("conformal", n)
    rows, jets = sample_rows(build(tag, "umbilical"), [np.random.default_rng((7, i)) for i in range(20)], 1e5)
    elements = random_elements(tag, [np.random.default_rng((7, int(i), 1)) for i in rows], 0.5)
    moved, skips = prolong_batch(elements, jets)
    assert len(moved) + len(skips) == len(jets) and skips
    assert any(isinstance(e.__cause__, DivisionBySingular) for e in skips.values())
    kept = [i for i in range(len(jets)) if i not in skips]
    for i in range(len(jets)):
        one = Elements(elements.kind, n, elements.mat[i : i + 1])
        got, alone = prolong_batch(one, jets.take([i]))
        if i in skips:
            assert type(skips[i]) is ChartDomain and type(alone[0]) is ChartDomain
            assert type(skips[i].__cause__) is type(alone[0].__cause__)
            with pytest.raises(ChartDomain):
                prolong(GroupElement(elements.kind, n, elements.mat[i]), jets.jet(i))
        else:
            assert not alone
            assert_same_jet(moved.jet(kept.index(i)), got.jet(0))


def test_take_with_top_entries_is_one_batch_over_the_rows():
    # take(rows, hess, cubic) is the batch of the rows with the top entries
    # replaced
    rng = np.random.default_rng(5)
    lower = JetBatch("euclidean", *(rng.standard_normal(shape) for shape in ((5, 3), 5, (5, 3))))
    rows, hess, cubic = [3, 0, 3, 4], rng.standard_normal((4, 6)), rng.standard_normal((4, 10))
    for top in ((hess,), (hess, cubic)):
        got = lower.take(rows, *top)
        rows_alone = lower.take(rows)
        want = JetBatch(lower.chart, rows_alone.base, rows_alone.u, rows_alone.grad, *top)
        assert got.order == want.order
        for field in ("base", "u", "grad", "hess", "cubic"):
            if getattr(want, field) is None:
                assert getattr(got, field) is None
            else:
                assert_bitwise(getattr(got, field), getattr(want, field))
