"""Sampling-based invariance verification and an exact-solution catalog.

``invariance_report`` draws jets lying on a PDE's zero set, hits them with
random group elements and records how far the transformed jets drift off
the zero set.  Residuals are normalized by a local homogeneity scale so
the tolerances are scale-free.  Sampling is counter-based per index, so a
report is a pure function of (descriptor, config) regardless of schedule.
The samples are drawn one index at a time; the group elements, the
prolongation, the residuals and the defects then run once on the whole
jet batch, bit for bit as one sample at a time.  The catalog's polynomial
germs are Taylor-engine arithmetic on the coordinate germs base[i] + x_i;
``scherk``, ``saddle`` and (by its default shear) ``sheared_quadric`` are
two-dimensional.  ``check_solution`` builds each germ at its point, then
extends them to one jet batch for the same evaluation stage (residual,
skips, scale, worst defect).  A power that overflows in a residual or a
scale is +-inf (:func:`~jetpde.taylor.pow_rows`), a value and not an
error; seed and count must be integers >= 0, the group scale and the jet
scale finite and >= 0.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers

import numpy as np
import scipy.optimize

from .errors import ChartDomain, DegenerateHessian, NotGraph, SchemaMismatch
from .groups import affine_element, prolong, prolong_batch, random_elements
from .invariants import eigenvalues, hessian_dets, pick_numerators, rho_of, sym_outer
from .jetspace import GraphJet, JetBatch, extend_rows, jet_extend, to_poly
from .pde import (
    PdeDescriptor,
    homogeneity_degree,
    pick,
    residuals,
    second_order_residuals,
    tauring,
)
from .symtensor import SymCubic, SymMatrix, _cubic_gather, _matrix_gather
from .taylor import TruncatedJet, norm_rows, pow_rows

# On-locus samples must satisfy |residual| <= this (normalized) before any
# transformation is applied; the 1-D solves are polished to this level.
SOUNDNESS_TOL = 1e-12

# The skip kind of each exception a sample's evaluation may raise.
SKIP_EXCEPTIONS = {
    NotGraph: "not_graph",
    ChartDomain: "chart_domain",
    DegenerateHessian: "degenerate_hessian",
}
SKIP_KINDS = ("no_root", *SKIP_EXCEPTIONS.values())

# Tries per draw: Hessians with |det| >= 0.3, then lines through a cubic.
DRAW_TRIES = 20
# The expressions whose zero set is the orbit's sub-bundle (pick: definite hess).
ORBIT_EXPRS = (tauring(2), pick())


@dataclasses.dataclass(frozen=True)
class SampleConfig:
    seed: int
    count: int
    scale: float = 0.5
    jet_scale: float = 0.5
    tol: float = 1e-7


@dataclasses.dataclass(frozen=True)
class Report:
    desc: str
    seed: int
    attempted: int
    evaluated: int
    skipped: dict
    max_defect: float
    max_ratio_defect: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "desc": self.desc,
            "seed": self.seed,
            "attempted": self.attempted,
            "evaluated": self.evaluated,
            "skipped": dict(sorted(self.skipped.items())),
            "max_defect": self.max_defect,
            "max_ratio_defect": self.max_ratio_defect,
            "pass": self.passed,
        }


def residual_scales(desc: PdeDescriptor, jets: JetBatch) -> np.ndarray:
    """The residual's homogeneity scale at each jet of the batch.

    Second order: (1 + |hess|)^degree.  Third order: each ``pick`` leaf is
    8 Q / det(hess)^3 with Q of degree 3(n-1) in hess and 2 in cubic, so
    the scale per pick is (1 + |hess|)^(3(n-1)) (1 + |cubic|)^2 / |det hess|^3;
    the defect then measures Q itself and stays well conditioned near
    det(hess) = 0, where the residual is not.  Raises DegenerateHessian
    when a third-order scale meets the degenerate locus.
    """
    degree = homogeneity_degree(desc.expr)
    n = jets.n
    H = jets.hess[:, _matrix_gather(n)]
    # the Frobenius norms SymMatrix.norm and SymCubic.norm take
    hess = 1.0 + norm_rows(H.reshape(len(jets), -1))
    if jets.order < 3:
        return pow_rows(hess, degree)
    if degree == 0:
        return np.ones(len(jets))
    det, degenerate = hessian_dets(H)
    if degenerate:
        raise next(iter(degenerate.values()))
    cubic = 1.0 + norm_rows(jets.cubic[:, _cubic_gather(n)].reshape(len(jets), -1))
    per_pick = pow_rows(hess, 3 * (n - 1)) * pow_rows(cubic, 2) / pow_rows(np.abs(det), 3)
    return pow_rows(per_pick, degree / 2)


def residual_scale(desc: PdeDescriptor, j: GraphJet) -> float:
    """The batch of one of :func:`residual_scales`."""
    return float(residual_scales(desc, JetBatch.of([j]))[0])


def _sound(desc: PdeDescriptor, j: GraphJet) -> GraphJet | None:
    """The drawn jet, or None when its residual exceeds SOUNDNESS_TOL times
    its scale: :func:`residual` and :func:`residual_scale` on one batch."""
    jets = JetBatch.of([j])
    values, skipped = residuals(desc, jets)
    if skipped:
        raise skipped[0]
    return None if abs(values[0]) > SOUNDNESS_TOL * residual_scales(desc, jets)[0] else j


def _smallest_root(a: float, b: float, c: float, bracket: float):
    """Smallest real root of a t^2 + b t + c (a != 0) in [-bracket, bracket],
    or None."""
    disc = b * b - 4.0 * a * c
    if a == 0.0 or disc < 0.0:
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = (q / a, c / q) if q != 0.0 else (0.0,)
    inside = [t for t in roots if -bracket <= t <= bracket]
    return min(inside) if inside else None


def _solve_on_line(f, ts: np.ndarray, vals: np.ndarray):
    """Leftmost root of f found on the grid ``ts``, given ``vals = f(ts)``.

    Scans the cells from the left: a grid point where the scan is exactly
    zero is returned as it is, and the first cell whose end values have
    opposite signs is polished by Brent's method on f.  None when no grid
    value is zero and no cell changes sign (a nan value brackets nothing).
    The signs are tested on Python floats, whose product overflows to inf
    without a warning.
    """
    vals = vals.tolist()
    for k in range(ts.size - 1):
        a, b = vals[k], vals[k + 1]
        if a == 0.0:
            return float(ts[k])
        if a * b < 0.0:
            return float(
                scipy.optimize.brentq(
                    f, ts[k], ts[k + 1], xtol=1e-15, rtol=8.9e-16, maxiter=200
                )
            )
    if vals[-1] == 0.0:
        return float(ts[-1])
    return None


def orbit_point(chart: str, lower: tuple, param) -> GraphJet:
    """The point over the lower jet (base, u, grad[, hess]) of the G-orbit's
    affine sub-bundle, from its model-space parameter: over a 1-jet and c,
    the umbilic hess = c rho (I + grad grad^T) (conformal); over a 2-jet and
    a covector w, cubic = sym_outer(w, hess) (affine, projective)."""
    base, u, grad, *hess = lower
    n = grad.size
    if hess:
        return GraphJet(chart, n, 3, base, u, grad, hess[0], sym_outer(param, hess[0]))
    rho = rho_of(grad)
    hinv = rho * (np.eye(n) + np.outer(grad, grad))
    return GraphJet(chart, n, 2, base, u, grad, SymMatrix.from_full(param * hinv))


def _sample_euclidean(desc: PdeDescriptor, rng, lower: tuple) -> GraphJet | None:
    base, u, grad = lower
    n = grad.size
    hess_entries = rng.standard_normal(n * (n + 1) // 2)

    gather = _matrix_gather(n)

    def with_last(t):
        entries = hess_entries.copy()
        entries[-1] = t
        return entries

    def residual_at(t) -> float:
        """residual(desc, jet with last Hessian entry t), without the jet."""
        return float(second_order_residuals(desc, grad, with_last(t)[gather][None])[0])

    # one stacked residual call scans the last Hessian entry over [-50, 50]
    ts = np.linspace(-50.0, 50.0, 65)
    line = np.repeat(hess_entries[None, :], ts.size, axis=0)
    line[:, -1] = ts
    vals = second_order_residuals(desc, grad, line[:, gather])
    root = _solve_on_line(residual_at, ts, vals)
    if root is None:
        return None
    return GraphJet(desc.chart, n, 2, base, u, grad, SymMatrix(n, with_last(root)))


def _sample_cubic(desc: PdeDescriptor, rng, lower: tuple) -> tuple[GraphJet | None, bool]:
    """A third-order draw, and whether it lies on the orbit's sub-bundle."""
    n = desc.geometry.n
    for _ in range(DRAW_TRIES):
        hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
        H = hess.full()
        if abs(np.linalg.det(H)) >= 0.3:
            break
    else:
        return None, False
    lams = np.linalg.eigvalsh(H)
    if lams[0] * lams[-1] > 0.0:
        # definite: the pick numerator Q is definite in the cubic, so the sub-bundle is its zero set
        return orbit_point(desc.chart, (*lower, hess), rng.standard_normal(n)), True
    # indefinite: Q = 0 along the last coefficient, then along fresh lines;
    # Q is quadratic in t, so its values at t = 0, 1, -1 give it exactly
    point = rng.standard_normal(len(SymCubic(n).data))
    point[-1] = 0.0
    direction = np.eye(point.size)[-1]
    for _ in range(DRAW_TRIES):
        line = point + np.array([[0.0], [1.0], [-1.0]]) * direction
        q0, q1, qm = pick_numerators(np.repeat(H[None], 3, axis=0), line[:, _cubic_gather(n)]).tolist()
        root = _smallest_root(0.5 * (q1 + qm) - q0, 0.5 * (q1 - qm), q0, bracket=50.0)
        if root is not None:
            return GraphJet(desc.chart, n, 3, *lower, hess, SymCubic(n, point + root * direction)), False
        direction = rng.standard_normal(point.size)
    return None, False


def sample_on_zero_set(desc: PdeDescriptor, rng, jet_scale: float) -> GraphJet | None:
    """A random jet solving the PDE, or None when the draw found no root.

    Each draw starts from one 1-jet (base, u, grad) of size ``jet_scale``.
    ``tauring(2)``, and third order over a definite Hessian, draw a point of
    the orbit's sub-bundle (:func:`orbit_point`), exact for ``ORBIT_EXPRS``;
    every other draw (a line solve) must pass the soundness check.
    """
    n = desc.geometry.n
    lower = (jet_scale * rng.standard_normal(n), jet_scale * rng.standard_normal(),
             jet_scale * rng.standard_normal(n))
    exact = desc.expr in ORBIT_EXPRS
    if desc.order == 3:
        j, on_orbit = _sample_cubic(desc, rng, lower)
    elif exact:  # tauring(2)
        c = rng.standard_normal() + np.sign(rng.standard_normal()) * 0.2
        j, on_orbit = orbit_point(desc.chart, lower, c), True
    else:
        j, on_orbit = _sample_euclidean(desc, rng, lower), False
    if j is None or (on_orbit and exact):
        return j
    return _sound(desc, j)


def _ratio_defects(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Deviation of two descending spectra from proportionality, per row of
    the (m, n) stacks.

    The factor may be negative (the transformed graph can flip its normal),
    in which case descending order pairs the spectra in reverse; both
    pairings are tried.
    """
    s = norm_rows(l1) * norm_rows(l2)
    small = s < 1e-12

    def cross(a, b):
        # fmax keeps the running value against a nan, as max(worst, nan) does
        worst = np.zeros(len(a))
        for i in range(a.shape[1]):
            for k in range(i + 1, a.shape[1]):
                worst = np.fmax(worst, np.abs(a[:, i] * b[:, k] - a[:, k] * b[:, i]))
        return worst

    ratio = np.minimum(cross(l1, l2), cross(l1, l2[:, ::-1])) / np.where(small, 1.0, s)
    return np.where(small, 0.0, ratio)


def _defect(value: float, scale: float) -> float:
    """Normalized residual; a non-finite one is an infinite defect, which
    ``max`` keeps (``max(0.0, nan)`` is 0.0)."""
    defect = abs(value) / scale
    return defect if math.isfinite(defect) else math.inf


def _passed(max_defect: float, tol: float, evaluated: int, attempted: int) -> bool:
    """A report passes when its worst defect is within tol and it evaluated
    something: skipping every attempted sample is no evidence."""
    return max_defect <= tol and (evaluated > 0 or attempted == 0)


def _report(desc: str, seed: int, attempted: int, skipped: dict, max_defect: float,
            evaluated: int, tol: float, max_ratio: float = 0.0) -> Report:
    """The report of either check, passing as :func:`_passed` says."""
    return Report(desc, seed, attempted, evaluated, skipped, max_defect, max_ratio,
                  _passed(max_defect, tol, evaluated, attempted))


def _evaluate(desc: PdeDescriptor, jets: JetBatch, skipped: dict) -> tuple[float, np.ndarray]:
    """The evaluation stage of both reports: the residual of every row of
    the batch, each row it skips counted under its kind in ``skipped``, and
    the largest defect over the other rows, the live ones (0.0 when none is
    live).  Returns that maximum and the live rows' indices.
    """
    values, degenerate = residuals(desc, jets)
    for exc in degenerate.values():
        skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
    live = np.delete(np.arange(len(jets)), list(degenerate))
    scales = residual_scales(desc, jets.take(live)).tolist() if len(live) else []
    return max([0.0, *map(_defect, values[live].tolist(), scales)]), live


def invariance_report(desc: PdeDescriptor, cfg: SampleConfig) -> Report:
    """Zero-set preservation under random group elements, as a report.

    The samples are drawn one index at a time; their elements, prolongation,
    residuals and defects are then computed for all of them at once, and a
    sample skipped by one step (prolongation first, then the residual)
    reaches no later step.  A JetError other than a skip raises, for
    instance DivisionByZero from a custom quotient expression whose
    denominator vanishes at a sample; a bad config raises SchemaMismatch
    before any draw.
    """
    for name, value in (("seed", cfg.seed), ("count", cfg.count)):
        if not (isinstance(value, numbers.Integral) and value >= 0):
            raise SchemaMismatch(f"{name} must be an integer >= 0, got {value!r}")
    for name, value in (("scale", cfg.scale), ("jet scale", cfg.jet_scale)):
        if not 0.0 <= value < math.inf:
            raise SchemaMismatch(f"{name} must be finite and >= 0, got {value}")
    tag = desc.geometry
    skipped = {k: 0 for k in SKIP_KINDS}
    drawn, seeds = [], []
    for idx in range(cfg.count):
        j = sample_on_zero_set(desc, np.random.default_rng((cfg.seed, idx)), cfg.jet_scale)
        if j is None:
            skipped["no_root"] += 1
        else:
            drawn.append(j)
            seeds.append((cfg.seed, idx, 1))
    max_defect = 0.0
    max_ratio = 0.0
    live = ()
    if drawn:
        jets = JetBatch.of(drawn)
        moved, skips = prolong_batch(random_elements(tag, seeds, cfg.scale), jets)
        for exc in skips.values():
            skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
        max_defect, live = _evaluate(desc, moved, skipped)
        if tag.name == "euclidean" and len(live):
            kept = np.delete(np.arange(len(jets)), list(skips))
            jets = jets.take(kept[live])
            moved = moved.take(live)
            before = eigenvalues(jets.grad, jets.hess[:, _matrix_gather(tag.n)])
            after = eigenvalues(moved.grad, moved.hess[:, _matrix_gather(tag.n)])
            for ratio in _ratio_defects(before, after).tolist():
                max_ratio = max(max_ratio, ratio)
    return _report(desc.desc_id, cfg.seed, cfg.count, skipped, max_defect, len(live), cfg.tol,
                   max_ratio)


# -- exact-solution catalog -----------------------------------------------------


def _coordinates(base, order: int) -> list[TruncatedJet]:
    """The germs base[i] + x_i of the coordinate functions at ``base``."""
    base = np.ravel(base).tolist()
    return [TruncatedJet.coordinate(i, len(base), order) + float(b) for i, b in enumerate(base)]


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array, which must have ``shape`` (n = shape[0])."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise SchemaMismatch(f"{name} must have shape {shape} at n = {shape[0]}, got {value.shape}")
    return value


def _log_cos_taylor(x0: float, order: int) -> list[float]:
    t = math.tan(x0)
    sec2 = 1.0 + t * t
    derivs = [math.log(math.cos(x0)), -t, -sec2, -2.0 * sec2 * t,
              -2.0 * sec2 * (sec2 + 2.0 * t * t)]
    return [derivs[k] / math.factorial(k) for k in range(order + 1)]


def plane(base, order: int, value: float = 0.0, slope=None) -> TruncatedJet:
    """Germ of u = value + slope . x."""
    xs = _coordinates(base, order)
    slope = np.zeros(len(xs)) if slope is None else _shaped("slope", slope, (len(xs),))
    return sum((s * x for s, x in zip(slope.tolist(), xs)), TruncatedJet.constant(value, len(xs), order))


def paraboloid(base, order: int) -> TruncatedJet:
    return quadric_germ(np.eye(np.size(base)), base, order)


def saddle(base, order: int) -> TruncatedJet:
    return quadric_germ(np.diag([1.0, -1.0]), base, order)


def quadric_germ(Q, base, order: int) -> TruncatedJet:
    """Germ of u = x^T Q x at the given base point; Q is n x n."""
    xs = _coordinates(base, order)
    Q = _shaped("Q", Q, (len(xs), len(xs))).tolist()
    return sum((q * x * y for row, x in zip(Q, xs) for q, y in zip(row, xs)), TruncatedJet(len(xs), order))


def cylinder_graph(base, order: int, coeffs=(0.0, 0.0, 0.0, 1.0)) -> TruncatedJet:
    """Germ of u = f(x^1) for the univariate polynomial f (ascending coeffs), by Horner's rule."""
    x = _coordinates(base, order)[0]
    return functools.reduce(lambda f, c: f * x + c, reversed(coeffs), 0.0 * x)


def sphere_cap(base, order: int, radius: float = 1.0, center_u: float = 0.0) -> TruncatedJet:
    """Germ of the lower hemisphere graph u = c - t w, t = r^2 - |x|^2, where
    w = 1/sqrt(t) takes three Newton steps w <- w (3 - t w^2) / 2 from
    1/sqrt(t(0)), each doubling the order to which w is exact (1, 3, 7 >
    MAX_ORDER).  No step divides, so near the rim no divisor test fails."""
    t = radius**2 - paraboloid(base, order)
    if t.const_term <= 1e-12:
        raise ChartDomain(f"|x| = {math.hypot(*np.ravel(base)):.4g} outside the cap of radius {radius}")
    w = TruncatedJet.constant(1.0 / math.sqrt(t.const_term), t.n_vars, order)
    for _ in range(3):
        w = w * (3.0 - t * w * w) * 0.5
    return center_u - t * w


def scherk(base, order: int) -> TruncatedJet:
    """Germ of ln cos x - ln cos y inside the open square |x|, |y| < pi/2."""
    base = np.asarray(base, dtype=float)
    if np.max(np.abs(base)) >= math.pi / 2:
        raise ChartDomain("point outside the fundamental square of the saddle tower")
    fx = _log_cos_taylor(float(base[0]), order)
    fy = _log_cos_taylor(float(base[1]), order)
    terms = {}
    for k in range(order + 1):
        terms[(k, 0)] = fx[k]
        terms[(0, k)] = terms.get((0, k), 0.0) - fy[k]
    return TruncatedJet.from_terms(terms, 2, order)


def sheared_quadric(base, order: int, Q=None, w=(0.3, -0.2)) -> TruncatedJet:
    """Germ at ``base`` of the image of {u = x^T Q x} under x -> x + u w.

    The germ is produced by the prolongation oracle: locate the preimage by
    fixed-point iteration, take the quadric's jet there and push it through
    the shear.
    """
    base = np.asarray(base, dtype=float)
    n = base.size
    Q = np.eye(n) if Q is None else _shaped("Q", Q, (n, n))
    w = _shaped("w", w, (n,))
    x = base.copy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(200):
                x_new = base - float(x @ Q @ x) * w
                if np.max(np.abs(x_new - x)) < 1e-15:
                    x = x_new
                    break
                x = x_new
            else:
                raise ChartDomain("shear preimage iteration did not converge")
    except FloatingPointError as exc:  # an overflowing iteration has diverged
        raise ChartDomain("shear preimage iteration diverged") from exc
    j = jet_extend(quadric_germ(Q, x, order), x, order, chart="affine")
    A = np.eye(n + 1)
    A[1:, 0] = w
    moved = prolong(affine_element(A, np.zeros(n + 1)), j)
    if not np.allclose(moved.base, base, atol=1e-10):
        raise ChartDomain("shear image base drifted from the requested point")
    return to_poly(moved)


def solution_catalog() -> dict:
    """Named germ constructors (base, order, **params) -> TruncatedJet."""
    return {
        "plane": plane,
        "paraboloid": paraboloid,
        "saddle": saddle,
        "cylinder_graph": cylinder_graph,
        "sphere_cap": sphere_cap,
        "scherk": scherk,
        "sheared_quadric": sheared_quadric,
    }


def check_solution(desc: PdeDescriptor, germ_name: str, points, tol: float = 1e-7,
                   **params) -> Report:
    """Max normalized residual of the named exact solution at the points;
    the report passes when it is at most ``tol`` and some point was
    evaluated (or none was asked for).  Each point's germ is built on its
    own (a constructor may skip the point); the germs, which must be over
    the descriptor's n variables, are then extended to jets as one batch
    and go through the evaluation stage of :func:`invariance_report`.  A
    JetError other than a skip raises, for instance DivisionByZero from a
    custom quotient expression whose denominator vanishes at a point."""
    catalog = solution_catalog()
    if germ_name not in catalog:
        raise SchemaMismatch(f"unknown catalog surface {germ_name!r}")
    make = catalog[germ_name]
    points = [np.asarray(p, dtype=float) for p in points]
    skipped = {k: 0 for k in SKIP_KINDS}
    bases, germs = [], []
    for p in points:
        try:
            germs.append(make(p, desc.order, **params))
            bases.append(p)
        except tuple(SKIP_EXCEPTIONS) as exc:
            skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
    max_defect, live = 0.0, ()
    if germs:
        n = desc.geometry.n
        if any(g.n_vars != n or p.size != n for g, p in zip(germs, bases)):
            raise SchemaMismatch(f"surface {germ_name!r} needs points and germs over n = {n} variables")
        jets = extend_rows(np.array([g.coeffs for g in germs]), np.array(bases), desc.order, desc.chart)
        max_defect, live = _evaluate(desc, jets, skipped)
    return _report(f"{desc.desc_id}:{germ_name}", 0, len(points), skipped, max_defect, len(live), tol)


def report_to_text(r: Report) -> str:
    return json.dumps(r.to_json(), sort_keys=True, indent=2)
