"""The batched zero-set sampler: its Illinois polish ends each row in a
sign change within brentq's tolerance, a zero end is the root, a nan met
while polishing or at a drawn root ends the row as no root, the
three-point line solve finds the roots the scan finds, and one batched draw
stage over N generators reproduces N batches of one and the per-index
reference sampler of ``jet_reference``, retries and no-root rows included.

Both sides run live in this process on the same inputs, so the comparison
holds whatever BLAS/LAPACK build the wheels carry.
"""

import math

import numpy as np
import pytest

import jet_reference as ref
from jet_reference import assert_bitwise, bits
from jetpde import verify
from jetpde.groups import GeometryTag
from jetpde.invariants import sym_outers
from jetpde.jetspace import GraphJet
from jetpde.pde import build, const, lam, line_degree, pick, residual, residuals, tau, tauring
from jetpde.symtensor import SymMatrix, cubic_indices
from jetpde.verify import (
    LINE,
    SOUNDNESS_TOL,
    _illinois,
    _line_root,
    generators,
    residual_scales,
    sample_on_zero_set,
    sample_rows,
    seed_states,
)


class Recorded:
    """The lockstep polish's f over a list of scalar functions, one per row,
    keeping every point each row was evaluated at, with its value."""

    def __init__(self, fs, a, b):
        self.fs = fs
        self.seen = [[(x, f(x)) for x in (ai, bi)] for f, ai, bi in zip(fs, a, b)]
        self.calls = 0

    def __call__(self, rows, x):
        self.calls += 1
        values = [self.fs[r](t) for r, t in zip(rows.tolist(), x.tolist())]
        for r, t, v in zip(rows.tolist(), x.tolist(), values):
            self.seen[r].append((t, v))
        return np.array(values)

    def polish(self, rows=None):
        """_illinois over the cells of ``rows`` (all by default), in one batch."""
        rows = range(len(self.fs)) if rows is None else rows
        a, b = (np.array([self.seen[r][e][0] for r in rows]) for e in (0, 1))
        fa, fb = (np.array([self.seen[r][e][1] for r in rows]) for e in (0, 1))
        return _illinois(a, b, fa, fb, lambda live, x: self(np.asarray(rows)[live], x))


def assert_ends_in_a_sign_change(rec: Recorded, roots, values):
    # a root has value 0, or some point evaluated for its row lies within
    # the tolerance of it and has a value of the other sign; it lies inside
    # its cell, and its value is the one f gives there
    for r, (x, fx) in enumerate(zip(roots.tolist(), values.tolist())):
        (a, _), (b, _) = rec.seen[r][:2]
        assert min(a, b) <= x <= max(a, b)
        assert bits(fx) == bits(dict(rec.seen[r])[x])
        tol = 1e-15 + 8.9e-16 * abs(x)
        assert fx == 0.0 or any(abs(t - x) <= tol and (v < 0.0) != (fx < 0.0) and v == v
                                for t, v in rec.seen[r]), (r, x)


def synthetic(rng, kind: int):
    """A polynomial, sine or exponential mix, at a random magnitude."""
    c = rng.standard_normal(6).tolist()
    s = 10.0 ** float(rng.integers(-160, 4))
    if kind == 0:
        return lambda x: s * (((((c[0] * x + c[1]) * x + c[2]) * x + c[3]) * x + c[4]) * x + c[5])
    if kind == 1:
        return lambda x: s * (math.sin(c[0] * x + c[1]) + c[2] * x + c[3] * x * x * x)
    return lambda x: s * (math.exp(0.5 * c[0] * x) - 1.5 + c[1] * x - c[2] * math.sin(3.0 * x))


def synthetic_brackets() -> Recorded:
    """Every cell of -3, -2.25, ..., 3 with a sign change, over 2700 synthetic functions."""
    rng = np.random.default_rng(2024)
    fs, a, b = [], [], []
    for k in range(2700):
        f = synthetic(rng, k % 3)
        ts = np.linspace(-3.0, 3.0, 9).tolist()
        for lo, hi in zip(ts, ts[1:]):
            if f(lo) * f(hi) < 0.0:
                fs.append(f)
                a.append(lo)
                b.append(hi)
    return Recorded(fs, a, b)


def test_polish_ends_in_a_sign_change_on_synthetic_brackets():
    rec = synthetic_brackets()
    assert len(rec.fs) >= 4000
    roots, values = rec.polish()
    assert not np.isnan(roots).any()
    assert_ends_in_a_sign_change(rec, roots, values)
    assert rec.calls <= 200
    # the mirror takes the same steps on Python floats
    for r, f in enumerate(rec.fs):
        (a, fa), (b, fb) = rec.seen[r][:2]
        assert bits(ref.illinois(f, a, b, fa, fb)) == bits(roots[r])


def test_polish_rows_match_batches_of_one():
    # a row's steps do not depend on the rows it is polished with
    rec = synthetic_brackets()
    roots, values = rec.polish()
    for r in range(0, len(rec.fs), 7):
        one = rec.polish([r])
        assert_bitwise(one[0], roots[r : r + 1])
        assert_bitwise(one[1], values[r : r + 1])


@pytest.mark.parametrize("a,b", [(-1.0, 0.5), (0.5, 2.0), (-0.0, 1.0)])
def test_zero_end_is_the_root(a, b):
    # the end whose value is zero is returned with no residual call
    f = lambda x: x * (x - 0.5)  # noqa: E731
    rec = Recorded([f], [a], [b])
    roots, values = rec.polish()
    end = a if f(a) == 0.0 else b
    assert rec.calls == 0 and bits(roots[0]) == bits(end) and values[0] == 0.0
    assert bits(ref.illinois(f, a, b, f(a), f(b))) == bits(end)


def test_nan_ends_the_polish():
    # the first row meets a nan inside its cell; the second polishes on
    nan_inside = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5  # noqa: E731
    rec = Recorded([nan_inside, lambda x: x - 0.5], [0.0, 0.0], [1.0, 1.0])
    roots, values = rec.polish()
    assert math.isnan(values[0])  # no root
    assert abs(roots[1] - 0.5) <= 2e-15 and values[1] == roots[1] - 0.5
    assert ref.illinois(nan_inside, 0.0, 1.0, -0.5, 0.5) is None


@pytest.mark.parametrize("fa,fb", [
    (-math.inf, 0.7), (-0.3, math.inf), (-math.inf, math.inf), (math.inf, -0.7),
])
def test_infinite_ends_polish_to_a_root(fa, fb):
    # an inf end value makes the secant step nan or an end: the round bisects
    f = lambda x: (x - 0.3) * (1.0 if fa < 0.0 else -1.0)  # noqa: E731
    rec = Recorded([f], [0.0], [1.0])
    rec.seen[0] = [(0.0, fa), (1.0, fb)]
    roots, values = rec.polish()
    assert abs(roots[0] - 0.3) <= 1e-15 + 8.9e-16 * 0.3
    assert_ends_in_a_sign_change(rec, roots, values)
    assert bits(ref.illinois(f, 0.0, 1.0, fa, fb)) == bits(roots[0])


def line_jet(desc, lower, entries, t):
    entries = entries.copy()
    entries[-1] = t
    n = desc.geometry.n
    return GraphJet(desc.chart, n, 2, *lower, SymMatrix(n, entries))


QUOTIENT = (tauring(2) - const(10.0)) / (const(1.0) + tauring(2) ** 2)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("geometry,expr", [
    ("euclidean", "minimal_surface"), ("euclidean", "monge_ampere"), ("conformal", QUOTIENT),
])
def test_polish_ends_in_a_sign_change_on_reference_draws(geometry, expr, n):
    # every bracketed row of the Euclidean sampler's draws: the first cell of
    # the scan whose end values have a negative product
    desc = build(GeometryTag(geometry, n), expr)
    fs, a, b = [], [], []
    for seed in range(60):
        rng = np.random.default_rng((seed, 3))
        lower = (0.5 * rng.standard_normal(n), 0.5 * rng.standard_normal(), 0.5 * rng.standard_normal(n))
        entries = rng.standard_normal(n * (n + 1) // 2)

        def f(t, lower=lower, entries=entries):
            return residual(desc, line_jet(desc, lower, entries, t))

        ts = LINE.tolist()
        vals = [f(t) for t in ts]
        for k in range(len(ts) - 1):
            if vals[k] == 0.0:
                break
            if vals[k] * vals[k + 1] < 0.0:
                fs.append(f)
                a.append(ts[k])
                b.append(ts[k + 1])
                break
    assert len(fs) >= 30
    rec = Recorded(fs, a, b)
    roots, values = rec.polish()
    assert not np.isnan(roots).any()
    assert_ends_in_a_sign_change(rec, roots, values)


# a scan-path expression: lam has no polynomial form along the line
SCANNED = lam(1) + lam(2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_inside_a_bracket_is_no_root(monkeypatch):
    # the residual is nan off the scan's grid, so every polish meets a nan
    # inside its bracketing cell; the rows come back as no root
    desc = build(GeometryTag("euclidean", 2), SCANNED)
    assert line_degree(desc.expr) is None
    real = verify.residuals
    polished = []

    def planted(desc, jets, spectrum=None):
        values, skipped = real(desc, jets, spectrum)
        off_grid = ~np.isin(jets.hess[:, -1], LINE)
        polished.append(int(off_grid.sum()))
        return np.where(off_grid, np.nan, values), skipped

    monkeypatch.setattr(verify, "residuals", planted)
    rngs = [np.random.default_rng((7, i)) for i in range(20)]
    rows, jets = sample_rows(desc, rngs, 0.5)
    assert sum(polished) > 0 and len(rows) == len(jets) == 0
    assert sample_on_zero_set(desc, np.random.default_rng((7, 0)), 0.5) is None
    rep = verify.invariance_report(desc, verify.SampleConfig(7, 20))
    assert rep.skipped["no_root"] == 20 and not rep.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("geometry,preset,kept", [
    ("euclidean", "minimal_surface", 0), ("affine", "affine_cubic", 4),
])
def test_nan_at_the_roots_is_no_root(monkeypatch, geometry, preset, kept):
    # the residual is nan at every drawn root, off the three points of the
    # line solve (and everywhere at third order, where the draw evaluates no
    # residual before its check): a nan is unsound, so every checked row
    # finds no root, as in the reference sampler; the sub-bundle draws of
    # pick() need no check and stay
    desc = build(GeometryTag(geometry, 2), preset)
    ends = LINE[[0, LINE.size // 2, -1]]
    real, real_ref = verify.residuals, ref.residual

    def planted(desc, jets, spectrum=None):
        values, skipped = real(desc, jets, spectrum)
        at_roots = np.full(len(jets), jets.order == 3) | ~np.isin(jets.hess[:, -1], ends)
        return np.where(at_roots, np.nan, values), skipped

    def planted_ref(desc, j):
        return math.nan if j.order == 3 or j.hess.data[-1] not in ends else real_ref(desc, j)

    monkeypatch.setattr(verify, "residuals", planted)
    monkeypatch.setattr(ref, "residual", planted_ref)
    rows, jets = sample_rows(desc, generators(seed_states(7, 20)[:20]), 0.5)
    assert rows.size == kept
    for i in range(20):
        want = ref.sample_on_zero_set(desc, np.random.default_rng((7, i)), 0.5)
        assert (want is None) == (i not in rows.tolist())
        if want is not None:
            assert_same_jet(jets.jet(rows.tolist().index(i)), want)
    assert verify.invariance_report(desc, verify.SampleConfig(7, 20)).skipped["no_root"] == 20 - kept


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_signs_do_not_underflow():
    # at jet scale 1e100 the residual is about 1e-200 along every line, so
    # the product of two values underflows to -0.0; their signs do not, and
    # the scan finds its brackets, as the reference sampler does
    desc = build(GeometryTag("euclidean", 2), SCANNED)
    rows, jets = sample_rows(desc, generators(seed_states(7, 40)[:40]), 1e100)
    assert rows.size > 0
    for i in range(40):
        want = ref.sample_on_zero_set(desc, np.random.default_rng((7, i)), 1e100)
        assert (want is None) == (i not in rows.tolist())
        if want is not None:
            assert_same_jet(jets.jet(rows.tolist().index(i)), want)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("preset", ["minimal_surface", "monge_ampere"])
def test_line_solve_finds_the_scans_roots(monkeypatch, preset, n):
    # the residual is affine along the line: the three-point solve and the
    # scan with its polish keep the same rows, at roots equal up to rounding
    desc = build(GeometryTag("euclidean", n), preset)
    rows, jets = sample_rows(desc, generators(seed_states(7, 200)[:200]), 0.5)
    monkeypatch.setattr(verify, "line_degree", lambda expr: None)
    scan_rows, scanned = sample_rows(desc, generators(seed_states(7, 200)[:200]), 0.5)
    assert rows.size > 150 and rows.tolist() == scan_rows.tolist()
    assert_bitwise(jets.hess[:, :-1], scanned.hess[:, :-1])
    np.testing.assert_allclose(jets.hess[:, -1], scanned.hess[:, -1], rtol=1e-12, atol=0.0)


def test_line_solve_finds_both_roots_of_a_cell(monkeypatch):
    # tau(1) (tau(1) - 1) has two roots on each line; where both fall in one
    # cell of the scan, its ends share a sign and the scan finds neither
    desc = build(GeometryTag("euclidean", 2), tau(1) * (tau(1) - 1.0))
    rows, jets = sample_rows(desc, generators(seed_states(7, 300)[:300]), 0.5)
    monkeypatch.setattr(verify, "line_degree", lambda expr: None)
    scan_rows, _ = sample_rows(desc, generators(seed_states(7, 300)[:300]), 0.5)
    monkeypatch.undo()
    assert rows.size == 300 and scan_rows.size == 269
    missed = sorted(set(rows.tolist()) - set(scan_rows.tolist()))
    for k in missed:
        one = jets.take([k])
        f_minus, f_zero, f_plus = verify._line_values(desc, one, one.hess, LINE[[0, LINE.size // 2, -1]])[0]
        low = _line_root(f_minus, f_zero, f_plus, 50.0, 50.0)
        high = -_line_root(f_plus, f_zero, f_minus, 50.0, 50.0)  # the smallest root of t -> f(-t)
        assert low == one.hess[0, -1] and low < high
        cell = np.searchsorted(LINE, high)
        assert LINE[cell - 1] < low < high < LINE[cell]
        for t in (low, high):
            hess = one.hess.copy()
            hess[0, -1] = t
            at = one.take([0], hess)
            assert abs(residuals(desc, at)[0][0]) <= SOUNDNESS_TOL * residual_scales(desc, at)[0]
    rep = verify.invariance_report(desc, verify.SampleConfig(7, 300))
    assert rep.evaluated == 300 and rep.passed


@pytest.mark.parametrize("values,want", [
    ((1.0, 0.0, -1.0), 0.0),  # linear: a == 0
    ((-3.0, -1.0, 1.0), 25.0),
    ((1.0, 1.0, 1.0), None),  # constant
    ((0.0, 0.0, 0.0), None),  # identically zero
    ((4.0, 0.0, 4.0), 0.0),  # double root
    ((1.0, -1.0, 1.0), -50.0 * math.sqrt(0.5)),
    ((math.nan, 0.0, 1.0), None),
    ((-1.0, 0.5, math.nan), None),
    ((1.0, math.inf, 1.0), None),
    ((-1.0, 0.0, -math.inf), None),
    ((5.0, 2.0, 1.0), None),  # the root lies outside the bracket
])
def test_line_root(values, want):
    got = _line_root(*values, 50.0, 50.0)
    assert got == (None if want is None else pytest.approx(want, rel=1e-15, abs=1e-15))


@pytest.mark.parametrize("power", [-1070, -1000, -530, 0, 530, 1000])
def test_line_root_is_scale_free(power):
    # the values are scaled by a power of two first, so b * b does not
    # underflow or overflow: lines 2^k apart give the same root, and
    # decimal scales the same root up to rounding
    want = _line_root(-1.0, 0.5, 1.0, 50.0, 50.0)
    assert _line_root(-(2.0**power), 2.0 ** (power - 1), 2.0**power, 50.0, 50.0) == want
    assert _line_root(-(2.0**power), 0.0, 2.0**power, 50.0, 50.0) == 0.0
    scale = 10.0 ** round(power * math.log10(2.0))
    assert _line_root(-scale, 0.5 * scale, scale, 50.0, 50.0) == pytest.approx(want, rel=1e-15)


class Counting:
    """A generator that records the size of each standard-normal draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def standard_normal(self, size=None, out=None):
        self.sizes.append(size if out is None else out.size)
        return self.rng.standard_normal(size, out=out)


def assert_same_jet(got: GraphJet, want: GraphJet):
    for name in ("base", "grad"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    assert_bitwise(got.u, want.u)
    for name in ("hess", "cubic"):
        if getattr(want, name) is not None:
            assert_bitwise(getattr(got, name).data, getattr(want, name).data)


# (geometry, expression, whether some draw finds no root at seed 7 or 11)
CASES = {
    "minimal_surface": ("euclidean", "minimal_surface", False),
    "monge_ampere": ("euclidean", "monge_ampere", True),
    "umbilical": ("conformal", "umbilical", False),
    "affine_cubic": ("affine", "affine_cubic", False),
    "projective_cubic": ("projective", "projective_cubic", False),
    "pick_minus_one": ("projective", pick() - 1.0, True),  # no draw is sound
    "tau1_quotient": ("euclidean", (tau(1) - 1.0) / (tau(1) ** 2 + 1.0), False),  # scanned and polished
}


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("case", CASES)
def test_batched_draws_match_batches_of_one_and_reference(case, n):
    geometry, expr, misses = CASES[case]
    desc = build(GeometryTag(geometry, n), expr)
    count, seed = 150, (7 if n == 2 else 11)
    rngs = [Counting((seed, i)) for i in range(count)]
    rows, jets = sample_rows(desc, rngs, 0.5)
    assert len(rows) == len(jets)
    kept = rows.tolist()
    for i in range(count):
        one = sample_on_zero_set(desc, np.random.default_rng((seed, i)), 0.5)
        want = ref.sample_on_zero_set(desc, np.random.default_rng((seed, i)), 0.5)
        assert (one is None) == (want is None) == (i not in kept)
        if want is not None:
            assert_same_jet(one, want)
            assert_same_jet(jets.jet(kept.index(i)), want)
    # the rounds that make the batch differ from one draw: each kind happens
    m, size = n * (n + 1) // 2, len(cubic_indices(n))
    det_retries = sum(r.sizes.count(m) for r in rngs)  # the first try is in the 1-jet's draw
    line_retries = sum(max(r.sizes.count(size) - 1, 0) for r in rngs)
    no_root = count - len(rows)
    if desc.order == 3:
        assert det_retries > 0
        assert line_retries > 0 or n == 2  # at n = 2 the first line always has a root
    assert (no_root > 0) == misses
    assert no_root == count or case != "pick_minus_one"


def test_scan_blocks_do_not_change_the_draws(monkeypatch):
    # the scan and the three-point solve evaluate their lines in blocks; a
    # row draws the same in any block
    draws = {}
    for block in (verify.BLOCK_SAMPLES, 7):
        monkeypatch.setattr(verify, "BLOCK_SAMPLES", block)
        for expr in (lam(1) * lam(2) * lam(3), "monge_ampere"):
            desc = build(GeometryTag("euclidean", 3), expr)
            draws.setdefault(desc.expr, []).append(
                sample_rows(desc, [np.random.default_rng((13, i)) for i in range(40)], 0.5))
    for (whole_rows, whole), (rows, jets) in draws.values():
        assert rows.size > 0
        assert_bitwise(rows, whole_rows)
        for name in ("base", "u", "grad", "hess"):
            assert_bitwise(getattr(jets, name), getattr(whole, name))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_sym_outers_rows_match_reference(n):
    rng = np.random.default_rng((n, 31))
    W = rng.standard_normal((20, n))
    G = rng.standard_normal((20, n * (n + 1) // 2))
    G[rng.random(G.shape) < 0.1] *= -0.0
    rows = sym_outers(W, G)
    for w, g, row in zip(W, G, rows):
        assert_bitwise(row, ref.sym_outer(w, SymMatrix(n, g)).data)


@pytest.mark.parametrize("case", CASES)
def test_empty_batch(case):
    geometry, expr, _ = CASES[case]
    rows, jets = sample_rows(build(GeometryTag(geometry, 2), expr), [], 0.5)
    assert rows.size == 0 and len(jets) == 0
