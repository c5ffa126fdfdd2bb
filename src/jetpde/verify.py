"""Sampling-based invariance verification and an exact-solution catalog.

``invariance_report`` draws jets lying on a PDE's zero set, hits them with
random group elements and records how far the transformed jets drift off
the zero set.  Residuals are normalized by a local homogeneity scale so
the tolerances are scale-free.  Sampling is counter-based per index, so a
report is a pure function of (descriptor, config) regardless of schedule:
sample i's generators are ``default_rng((seed, i))`` and
``default_rng((seed, i, 1))``, and :func:`seed_states` hashes the seeds of
a whole report in one pass.  One draw stage (:func:`sample_rows`) draws
every sample, each from its own generator, with its retries in masked
rounds.  Along a line in the affine fibre of J^k -> J^(k-1) a residual is
often a polynomial of degree <= 2 (:func:`~jetpde.pde.line_degree`); there
three values give its roots in closed form (:func:`_line_root`), and only
the other second-order expressions scan their line, each row's first
bracket polished in lockstep (:func:`_illinois`).  The group elements, the
prolongation, the residuals and the defects then run on blocks of the jet
batch, bit for bit as one sample at a time.  The catalog's polynomial
germs are Taylor-engine arithmetic on the coordinate germs base[i] + x_i;
``scherk``, ``saddle`` and (by its default shear) ``sheared_quadric`` are
two-dimensional.  ``check_solution`` builds each germ at its point, then
extends them to one jet batch for the same evaluation stage (residual,
skips, scale, worst defect).  A power that overflows in a residual or a
scale is +-inf (:func:`~jetpde.taylor.pow_rows`), a value and not an
error; seed and count must be integers >= 0, the group scale, the jet
scale and the tolerance finite and >= 0.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import math
import numbers
import operator
import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ChartDomain, DegenerateHessian, NotGraph, SchemaMismatch
from .groups import affine_element, prolong, prolong_batch, random_elements
from .invariants import adjugates, eigenvalues, hessian_dets, pick_numerators, sym_outers
from .jetspace import GraphJet, JetBatch, extend_rows, jet_extend, to_poly
from .pde import PdeDescriptor, homogeneity_degree, line_degree, pick, residuals, tauring
from .symtensor import _cubic_gather, _matrix_gather, cubic_indices
from .taylor import TruncatedJet, norm_rows, pow_rows, sumsq_rows


def _register_unloaded(name: str) -> None:
    """Enter module ``name`` in ``sys.modules`` unexecuted, unless an entry
    is there already; it executes on its first attribute access."""
    if name in sys.modules:
        return
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)


# bench/tracing.py wraps brentq through sys.modules["scipy.optimize"]; no
# jetpde code calls it (see _illinois), so the module loads only when read.
_register_unloaded("scipy.optimize")

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
# The points at which a second-order draw scans its last Hessian entry; its
# ends and middle give a residual of degree <= 2 along the entry.
LINE = np.linspace(-50.0, 50.0, 65)
# The most samples one line draw's residual call, or one pass of a report's
# element, prolongation and evaluation stages, holds at once.
BLOCK_SAMPLES = 1024
# A report attempts fewer samples than this: seed_states hashes each sample
# index as one 32-bit word.
MAX_COUNT = 2**32
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


def residual_scales(desc: PdeDescriptor, jets: JetBatch, lams=None) -> np.ndarray:
    """The residual's homogeneity scale at each jet of the batch.

    Second order: (1 + |hess|)^degree.  Third order: each ``pick`` leaf is
    8 Q / det(hess)^3 with Q of degree 3(n-1) in hess and 2 in cubic, so
    the scale per pick is (1 + |hess|)^(3(n-1)) (1 + |cubic|)^2 / |det hess|^3;
    the defect then measures Q itself and stays well conditioned near
    det(hess) = 0, where the residual is not.  det is the product of the
    Hessian's ``np.linalg.eigh`` eigenvalues, ``lams`` (m, n) when the
    caller has them (the spectrum :func:`~jetpde.pde.residuals` read).
    Raises DegenerateHessian when a third-order scale meets the
    degenerate locus.
    """
    degree = homogeneity_degree(desc.expr)
    n = jets.n
    H = jets.hess[:, _matrix_gather(n)]
    # the Frobenius norms SymMatrix.norm and SymCubic.norm take
    hess = 1.0 + norm_rows(H.reshape(len(jets), n * n))
    if jets.order < 3:
        return pow_rows(hess, degree)
    if degree == 0:
        return np.ones(len(jets))
    det, degenerate = hessian_dets(np.linalg.eigh(H)[0] if lams is None else lams)
    if degenerate:
        raise next(iter(degenerate.values()))
    cubic = 1.0 + norm_rows(jets.cubic[:, _cubic_gather(n)].reshape(len(jets), n**3))
    with np.errstate(divide="ignore", invalid="ignore"):  # an underflowing det^3 makes inf, a value
        per_pick = pow_rows(hess, 3 * (n - 1)) * pow_rows(cubic, 2) / pow_rows(np.abs(det), 3)
    return pow_rows(per_pick, degree / 2)


def residual_scale(desc: PdeDescriptor, j: GraphJet) -> float:
    """The batch of one of :func:`residual_scales`."""
    return float(residual_scales(desc, JetBatch.one(j))[0])


def _line_root(f_minus: float, f_zero: float, f_plus: float, half_width: float, bracket: float):
    """Smallest root in [-bracket, bracket] of the polynomial of degree <= 2
    that takes the values f_minus, f_zero, f_plus at t = -half_width, 0,
    half_width, or None: when no root lies there, a value is not finite or
    the line is constant (identically zero included).  With s = t /
    half_width the polynomial is a s^2 + b s + c; a == 0 with b != 0 is
    its linear root.  The values are first scaled by the exact power of two
    that brings the largest to [0.5, 1), which moves no root, so b * b
    cannot underflow (or overflow) when all three are tiny (or huge)."""
    values = (f_minus, f_zero, f_plus)
    if not all(map(math.isfinite, values)):
        return None
    shift = -math.frexp(max(map(abs, values)))[1]
    f_minus, f_zero, f_plus = (math.ldexp(v, shift) for v in values)
    a, b, c = 0.5 * (f_plus + f_minus) - f_zero, 0.5 * (f_plus - f_minus), f_zero
    disc = b * b - 4.0 * a * c
    if disc < 0.0 or a == b == 0.0:
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = (0.0,) if q == 0.0 else (c / q,) if a == 0.0 else (q / a, c / q)
    inside = [half_width * s for s in roots if -bracket <= half_width * s <= bracket]
    return min(inside) if inside else None


def _illinois(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray, f):
    """Roots in the cells [a, b] whose end values fa, fb share no sign, by
    Illinois false position (Dowell and Jarratt, BIT 11, 1971), all rows in
    lockstep: ``f(rows, x)`` is f at x on the live rows, one call a round.  A
    zero end is the root.  A round steps to the secant root x, or to the
    midpoint where x is not strictly inside; x replaces b, and a takes b's
    place if f(x) does not share b's sign, else f(a) halves.  A row ends at
    f(x) == 0 or |x - a| <= 1e-15 + 8.9e-16 |x| (brentq's tolerance) at the
    end of [a, x] of smaller |f|; its value is nan after a nan or 200 rounds."""
    root, value = np.where(fa == 0.0, a, b), np.where(fa == 0.0, fa, fb)
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    a, b, fa, fb, ga = (v[live] for v in (a, b, fa, fb, fa))  # ga is f(a) itself, where fa is halved
    for _ in range(200):
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan step bisects
            x = b - fb * (b - a) / (fb - fa)
        x = np.where((np.minimum(a, b) < x) & (x < np.maximum(a, b)), x, 0.5 * (a + b))  # nan is not inside
        fx = f(live, x)
        kept = (fx < 0.0) == (fb < 0.0)
        a, fa, ga = np.where(kept, a, b), np.where(kept, 0.5 * fa, fb), np.where(kept, ga, fb)
        b, fb = x, fx
        done = np.isnan(fx) | (fx == 0.0) | (np.abs(x - a) <= 1e-15 + 8.9e-16 * np.abs(x))
        if done.any():
            best = np.abs(ga) < np.abs(fx)  # never at a nan f(x), which stays the value
            root[live[done]], value[live[done]] = np.where(best, a, x)[done], np.where(best, ga, fx)[done]
            live, a, b, fa, fb, ga = (v[~done] for v in (live, a, b, fa, fb, ga))
    value[live] = np.nan
    return root, value


# -- counter-based streams --------------------------------------------------------

# NumPy's SeedSequence hash (after M. E. O'Neill, "Developing a seed_seq
# Alternative", 2015): a pool of four 32-bit words, its hash constants and
# multipliers.
POOL_SIZE = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(init: int, mult: int, steps) -> list[tuple[np.ndarray, np.ndarray]]:
    """The constants (h_i, h_(i+1)), h_i = init mult^i (mod 2^32), of the
    hashmix calls of each step, as uint32 columns with one row per word the
    step hashes: ``step[r]`` is row r's index i, or None for a row that the
    step leaves as it is (zeros)."""
    h = [init]
    for _ in range(max(i for step in steps for i in step if i is not None) + 1):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return [tuple(np.array([[0 if i is None else h[i + j]] for i in step], dtype=np.uint32) for j in (0, 1))
            for step in steps]


@functools.lru_cache
def _pool_steps(extra: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pool's hash steps: the first hash of each pool word, then per
    source word its mixing into the other three (for a fixed source they
    are independent), then per entropy word beyond the pool its mixing
    into all four."""
    mixing = [[POOL_SIZE + 3 * src + dst - (dst > src) if dst != src else None for dst in range(POOL_SIZE)]
              for src in range(POOL_SIZE)]
    beyond = [range(POOL_SIZE * src, POOL_SIZE * (src + 1)) for src in range(POOL_SIZE, POOL_SIZE + extra)]
    return _hash_steps(INIT_A, MULT_A, [range(POOL_SIZE), *mixing, *beyond])


# generate_state's step: the pool, cycled, hashed to 8 words (four uint64)
_STATE_STEP = _hash_steps(INIT_B, MULT_B, [range(2 * POOL_SIZE)])[0]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix with the constants of its successive calls
    (uint32 arithmetic wraps mod 2^32)."""
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = MIX_MULT_L * x - MIX_MULT_R * y
    return value ^ (value >> np.uint32(16))


def seed_states(seed: int, count: int) -> np.ndarray:
    """``SeedSequence(t).generate_state(4, np.uint64)`` for t = (seed, i),
    then for t = (seed, i, 1), i < count, as the rows of one C-contiguous
    (2 count, 4) uint64 array, hashed for all rows at once: the PCG64
    seeds of ``np.random.default_rng(t)``.

    SeedSequence coerces t to the seed's little-endian 32-bit words, then
    i's and 1's; each i < MAX_COUNT = 2^32 is one word (a report refuses a
    larger count).  Entropy shorter than the pool mixes in zeros; words
    beyond it are mixed in by the pool's extra loop.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    head = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    size = len(head) + 2
    words = np.zeros((max(POOL_SIZE, size), 2 * count), dtype=np.uint32)
    words[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    words[len(head)] = np.tile(np.arange(count, dtype=np.uint32), 2)
    words[len(head) + 1, count:] = 1
    lens = np.repeat([size - 1, size], count)
    steps = _pool_steps(words.shape[0] - POOL_SIZE)
    pool = _hashmix(words[:POOL_SIZE], *steps[0])
    for src, step in enumerate(steps[1 : POOL_SIZE + 1]):
        mixed = _mix(pool, _hashmix(pool[src], *step))
        mixed[src] = pool[src]  # the source word is not mixed into itself
        pool = mixed
    for src, step in enumerate(steps[POOL_SIZE + 1 :], start=POOL_SIZE):
        pool = np.where(lens > src, _mix(pool, _hashmix(words[src], *step)), pool)
    state = _hashmix(np.tile(pool, (2, 1)), *_STATE_STEP)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")  # PCG64 reads each row's raw buffer


class _SeedState(ISeedSequence):
    """One row of :func:`seed_states`, the state a PCG64 reads as it is built."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(states: np.ndarray) -> list:
    """One ``np.random.Generator`` per row of :func:`seed_states`, in the
    state ``np.random.default_rng`` gives it."""
    return [np.random.Generator(np.random.PCG64(_SeedState(row))) for row in states]


_lower_triangle = functools.lru_cache(np.tril_indices)  # (i, j), i >= j, of each packed SymMatrix entry
_pairs = functools.lru_cache(np.triu_indices)  # (i, k), i < k, the entry pairs _ratio_defects compares


def orbit_points(lower: JetBatch, params: np.ndarray) -> JetBatch:
    """The points of the G-orbit's affine sub-bundle over the lower jets,
    from their model-space parameters: over 1-jets and c (N,), the umbilic
    hess = c rho (I + grad grad^T) (conformal); over 2-jets and covectors w
    (N, n), cubic = sym_outer(w, hess) (affine, projective)."""
    top = lower.hess
    if lower.order == 1:  # packed; an overflow is inf
        i, j = _lower_triangle(lower.n)
        with np.errstate(over="ignore", invalid="ignore"):
            rho = (1.0 + sumsq_rows(lower.grad))[:, None]
            top = params[:, None] * (rho * ((i == j) + lower.grad[:, i] * lower.grad[:, j]))
    return lower.take(slice(None), top, None if lower.order == 1 else sym_outers(params, top))


def _line_values(desc: PdeDescriptor, lower: JetBatch, entries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The residual of each row with its last Hessian entry at each of
    ``points``, as a (rows, points) array: one residual call per
    BLOCK_SAMPLES rows; a row's values are the ones it has alone."""

    def block(rows) -> np.ndarray:
        line = np.repeat(entries[rows], points.size, axis=0)
        line.reshape(len(rows), points.size, entries.shape[1])[:, :, -1] = points
        values = residuals(desc, lower.take(np.repeat(rows, points.size), line))[0]
        return values.reshape(len(rows), points.size)

    return np.concatenate([block(np.arange(len(entries))[i : i + BLOCK_SAMPLES])
                           for i in range(0, max(len(entries), 1), BLOCK_SAMPLES)])


def _closed_form_draws(desc: PdeDescriptor, lower: JetBatch, entries: np.ndarray):
    """Roots of a residual of degree <= 2 (:func:`~jetpde.pde.line_degree`)
    along the last Hessian entry of each row: its values at the ends and the
    middle of LINE give the polynomial, and :func:`_line_root` its smallest
    root on LINE's span, so one residual call on three rows per row draws
    them all.  Returns the rows with a root, their jets and None for their
    residuals, which the soundness check computes."""
    half = float(LINE[-1])
    values = _line_values(desc, lower, entries, LINE[[0, LINE.size // 2, -1]])
    roots = [_line_root(*v, half, half) for v in values.tolist()]
    rows = [r for r, t in enumerate(roots) if t is not None]
    hess = entries[rows]
    hess[:, -1] = [roots[r] for r in rows]
    return rows, lower.take(rows, hess), None


def _line_draws(desc: PdeDescriptor, lower: JetBatch, entries: np.ndarray):
    """Roots of the residual along the last Hessian entry of each row, for
    the expressions that are no polynomial of degree <= 2 along it (``lam``,
    ``div``, degree >= 3).  A scan of every row at LINE
    (:func:`_line_values`) finds the first cell with a zero end or end values
    of opposite signs (a nan has no sign), and :func:`_illinois` polishes
    them all.  Returns the rows with a root, their jets and residuals."""
    vals = _line_values(desc, lower, entries, LINE)
    signs = np.sign(vals)  # their product never underflows, as the values' does below ~1e-154
    zero = vals == 0.0
    events = np.concatenate([zero[:, :-1] | (signs[:, :-1] * signs[:, 1:] < 0.0), zero[:, -1:]], axis=1)
    rows = np.flatnonzero(events.any(axis=1))
    k = np.minimum(events[rows].argmax(axis=1), LINE.size - 2)  # a zero at the end closes the last cell

    def jets(live, x):  # the polished rows' jets with their last Hessian entries at x
        hess = entries[rows[live]]
        hess[:, -1] = x
        return lower.take(rows[live], hess)

    roots, values = _illinois(LINE[k], LINE[k + 1], vals[rows, k], vals[rows, k + 1],
                              lambda live, x: residuals(desc, jets(live, x))[0])
    found = ~np.isnan(values)
    return rows[found].tolist(), jets(found, roots[found]), values[found]


def _cubic_draws(rngs, lower: JetBatch, first: np.ndarray):
    """Third-order draws: a Hessian with |det| >= 0.3 (``first`` holds the
    first tries), then over a definite one a sub-bundle cubic
    (:func:`orbit_points`; there Q is definite in the cubic, so the
    sub-bundle is its zero set), over an
    indefinite one a root of Q along the last coefficient of a drawn cubic,
    then along fresh lines (Q is quadratic in t, so :func:`_line_root`
    solves it from t = -1, 0, 1).
    A round of tries makes one ``det`` or ``pick_numerators`` call; one
    spectrum of the Hessians gives definiteness and each line row's
    adjugate for all its rounds.  Returns
    the rows drawn, their jets and whether each lies on the sub-bundle."""
    n, gather, size = lower.n, _matrix_gather(lower.n), len(cubic_indices(lower.n))
    hess, H, todo = first.copy(), first[:, gather], list(range(len(rngs)))
    for r in range(DRAW_TRIES):
        if r:
            hess[todo] = [rngs[i].standard_normal(hess.shape[1]) for i in todo]
            H[todo] = hess[todo][:, gather]
        todo = [i for i, d in zip(todo, np.linalg.det(H[todo]).tolist()) if not abs(d) >= 0.3]
        if not todo:
            break
    lams, V = np.linalg.eigh(H)
    definite = (lams[:, 0] * lams[:, -1] > 0.0).tolist()
    failed = set(todo)
    drawn = [i for i in range(len(rngs)) if i not in failed]
    orbit, lines = [i for i in drawn if definite[i]], [i for i in drawn if not definite[i]]
    cubic = np.zeros((len(rngs), size))
    if orbit:
        W = np.array([rngs[i].standard_normal(n) for i in orbit])
        cubic[orbit] = orbit_points(lower.take(orbit, hess[orbit]), W).cubic
    point = np.array([rngs[i].standard_normal(size) for i in lines]).reshape(-1, size)
    point[:, -1] = 0.0
    direction = np.zeros(point.shape)
    direction[:, -1] = 1.0
    A, live = adjugates(lams[lines], V[lines]), list(range(len(lines)))
    for _ in range(DRAW_TRIES if lines else 0):
        ends = point[live, None] + np.array([[0.0], [1.0], [-1.0]]) * direction[live, None]
        q = pick_numerators(np.repeat(A[live], 3, axis=0), ends.reshape(-1, size)[:, _cubic_gather(n)])
        retry = []
        for k, (q0, q1, qm) in zip(live, q.reshape(-1, 3).tolist()):
            root = _line_root(qm, q0, q1, 1.0, 50.0)
            if root is None:
                direction[k] = rngs[lines[k]].standard_normal(size)
                retry.append(k)
            else:
                cubic[lines[k]] = point[k] + root * direction[k]
        live = retry
        if not live:
            break
    lost = {lines[k] for k in live}
    rows = [i for i in drawn if i not in lost]
    return rows, lower.take(rows, hess[rows], cubic[rows]), [definite[i] for i in rows]


def sample_rows(desc: PdeDescriptor, rngs, jet_scale: float) -> tuple[np.ndarray, JetBatch]:
    """One draw on the zero set per generator, as a batch: the indices of
    the draws that found a root, and their jets.  Each row draws from its
    generator what it would draw alone, in the same order: a 1-jet (base,
    u, grad) of size ``jet_scale``, then a point of the orbit's sub-bundle
    (:func:`orbit_points`) or a root on a line (:func:`_closed_form_draws`
    where the residual has degree <= 2 along it, else :func:`_line_draws`;
    :func:`_cubic_draws`), retrying in masked rounds.  A row that is not a
    sub-bundle point of ``ORBIT_EXPRS`` is kept only when |residual| <=
    SOUNDNESS_TOL * scale, so a nan residual is unsound; one
    :func:`_scaled` call checks them.  A row whose 1-jet or
    umbilic overflows is dropped before the solves, and so finds no root.
    """
    n, count = desc.geometry.n, len(rngs)
    exact = desc.expr in ORBIT_EXPRS
    # the 1-jet, then the first Hessian try or the umbilic parameter's two normals
    width = 2 * n + 1 + (2 if exact and desc.order == 2 else n * (n + 1) // 2)
    z = np.empty((count, width))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=z[i])
    with np.errstate(over="ignore"):
        one = jet_scale * z[:, : 2 * n + 1]
    lower, top, values = JetBatch(desc.chart, one[:, :n], one[:, n], one[:, n + 1 :]), z[:, 2 * n + 1 :], None
    if exact and desc.order == 2:  # tauring(2): the umbilic over each 1-jet
        lower = orbit_points(lower, top[:, 0] + np.sign(top[:, 1]) * 0.2)
    finite = np.isfinite(one).all(axis=1) & (lower.order == 1 or np.isfinite(lower.hess).all(axis=1))
    kept = np.flatnonzero(finite)
    if kept.size < count:
        lower, top, rngs = lower.take(kept), top[kept], [rngs[i] for i in kept]
    if desc.order == 3:
        rows, jets, definite = _cubic_draws(rngs, lower, top)
        checked = [k for k, d in enumerate(definite) if not (d and exact)]
    elif exact:
        rows, checked, jets = list(range(len(lower))), [], lower
    else:
        degree = line_degree(desc.expr)
        draws = _closed_form_draws if degree is not None and degree <= 2 else _line_draws
        rows, jets, values = draws(desc, lower, top)
        checked = list(range(len(rows)))
    if checked:
        sub = jets if len(checked) == len(rows) else jets.take(checked)
        values, degenerate, _, scales = _scaled(desc, sub, values)
        if degenerate:
            raise degenerate[min(degenerate)]
        bad = (~(np.abs(values) <= SOUNDNESS_TOL * scales)).tolist()  # nan is unsound
        unsound = {k for k, b in zip(checked, bad) if b}
        keep = [k for k in range(len(rows)) if k not in unsound]
        rows, jets = [rows[k] for k in keep], jets if len(keep) == len(rows) else jets.take(keep)
    return kept[np.array(rows, dtype=int)], jets


def sample_on_zero_set(desc: PdeDescriptor, rng, jet_scale: float) -> GraphJet | None:
    """A random jet solving the PDE, or None when the draw found no root (a
    line polish that meets a nan residual finds none, nor does a root whose
    residual is nan): the batch of one of :func:`sample_rows`.  The jet
    scale must be finite and >= 0."""
    _check_nonnegative("jet scale", jet_scale)
    rows, jets = sample_rows(desc, [rng], jet_scale)
    return jets.jet(0) if rows.size else None


def _ratio_defects(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Deviation of two descending spectra from proportionality, per row of
    the (m, n) stacks.

    The factor may be negative (the transformed graph can flip its normal),
    in which case descending order pairs the spectra in reverse; both
    pairings are tried.
    """
    s = norm_rows(l1) * norm_rows(l2)
    small = s < 1e-12
    i, k = _pairs(l1.shape[1], 1)
    pairings = np.stack((l2, l2[:, ::-1]))
    cross = np.abs(l1[:, i] * pairings[..., k] - l1[:, k] * pairings[..., i])
    worst = np.fmax.reduce(cross, axis=2, initial=0.0)  # fmax passes over a nan term
    return np.where(small, 0.0, np.minimum(*worst) / np.where(small, 1.0, s))


def _check_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise SchemaMismatch(f"{name} must be finite and >= 0, got {value}")


def _passed(max_defect: float, tol: float, evaluated: int, attempted: int) -> bool:
    """A report passes when its worst defect is within tol and it evaluated
    something: skipping every attempted sample is no evidence."""
    return max_defect <= tol and (evaluated > 0 or attempted == 0)


def _report(desc: str, seed: int, attempted: int, skipped: dict, max_defect: float,
            evaluated: int, tol: float, max_ratio: float = 0.0) -> Report:
    """The report of either check, passing as :func:`_passed` says."""
    return Report(desc, seed, attempted, evaluated, skipped, max_defect, max_ratio,
                  _passed(max_defect, tol, evaluated, attempted))


def _scaled(desc: PdeDescriptor, jets: JetBatch, values=None):
    """The residuals of the batch's rows (``values`` when the caller has
    them), {row: DegenerateHessian} for the rows they skip, the indices of
    the other rows, the live ones, and the live rows' residual scales.  At
    third order the residuals and the scales read one Hessian spectrum."""
    spectrum = np.linalg.eigh(jets.hess[:, _matrix_gather(jets.n)]) if jets.order == 3 else None
    degenerate: dict = {}
    if values is None:
        values, degenerate = residuals(desc, jets, spectrum)
    live, lams = np.arange(len(jets)), None if spectrum is None else spectrum[0]
    if degenerate:
        live = np.delete(live, list(degenerate))
        jets, lams = jets.take(live), None if lams is None else lams[live]
    return values, degenerate, live, residual_scales(desc, jets, lams)


def _evaluate(desc: PdeDescriptor, jets: JetBatch, skipped: dict) -> tuple[float, np.ndarray]:
    """The evaluation stage of both reports: the residual of every row of
    the batch, each row it skips counted under its kind in ``skipped``, and
    the largest defect over the other rows, the live ones (0.0 when none is
    live).  Returns that maximum and the live rows' indices.
    """
    values, degenerate, live, scales = _scaled(desc, jets)
    for exc in degenerate.values():
        skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a non-finite defect is inf
        defects = np.abs(values[live]) / scales
    return float(np.where(np.isfinite(defects), defects, np.inf).max(initial=0.0)), live


def invariance_report(desc: PdeDescriptor, cfg: SampleConfig) -> Report:
    """Zero-set preservation under random group elements, as a report.

    Sample i draws its jet from ``default_rng((seed, i))`` and its group
    element from ``default_rng((seed, i, 1))``, the generators of all
    samples seeded by one :func:`seed_states` pass.  The samples are drawn
    as one batch (:func:`sample_rows`); their elements, prolongation,
    residuals and defects are then computed in blocks of at most
    BLOCK_SAMPLES samples, the skip counts and maxima added up over the
    blocks, and a sample skipped by one step (prolongation first, then the
    residual) reaches no later step.  A JetError other than a skip
    raises, for instance DivisionByZero from a custom quotient expression
    whose denominator vanishes at a sample; a bad config raises
    SchemaMismatch before any draw.
    """
    for name, value in (("seed", cfg.seed), ("count", cfg.count)):
        if not (isinstance(value, numbers.Integral) and value >= 0):
            raise SchemaMismatch(f"{name} must be an integer >= 0, got {value!r}")
    if cfg.count >= MAX_COUNT:
        raise SchemaMismatch(f"count must be below 2^32, got {cfg.count}")
    for name, value in (("scale", cfg.scale), ("jet scale", cfg.jet_scale), ("tol", cfg.tol)):
        _check_nonnegative(name, value)
    tag, count = desc.geometry, cfg.count
    skipped = {k: 0 for k in SKIP_KINDS}
    states = seed_states(cfg.seed, count)
    drawn, jets = sample_rows(desc, generators(states[:count]), cfg.jet_scale)
    skipped["no_root"] = count - drawn.size
    max_defect = max_ratio = 0.0
    evaluated = 0
    for start in range(0, drawn.size, BLOCK_SAMPLES):
        block = slice(start, start + BLOCK_SAMPLES)
        elements = random_elements(tag, generators(states[count + drawn[block]]), cfg.scale)
        sub = jets.take(block)
        moved, skips = prolong_batch(elements, sub)
        for exc in skips.values():
            skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
        defect, live = _evaluate(desc, moved, skipped)
        max_defect, evaluated = max(max_defect, defect), evaluated + len(live)
        if tag.name == "euclidean" and len(live):
            before, after = sub.take(np.delete(np.arange(len(sub)), list(skips))[live]), moved.take(live)
            ratios = _ratio_defects(eigenvalues(before.grad, before.hess[:, _matrix_gather(tag.n)]),
                                    eigenvalues(after.grad, after.hess[:, _matrix_gather(tag.n)]))
            max_ratio = float(np.fmax.reduce(ratios, initial=max_ratio))  # a nan ratio is passed over
    return _report(desc.desc_id, cfg.seed, count, skipped, max_defect, evaluated, cfg.tol, max_ratio)


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
    MAX_ORDER).  No step divides, so near the rim no divisor test fails.
    Far outside the cap |x|^2 overflows to inf, which the domain test reads."""
    t = radius**2 - paraboloid(base, order)
    if t.const_term <= 1e-12:
        raise ChartDomain(f"|x| = {math.hypot(*np.ravel(base)):.4g} outside the cap of radius {radius}")
    w = TruncatedJet.constant(1.0 / math.sqrt(t.const_term), t.n_vars, order)
    for _ in range(3):
        w = w * (3.0 - t * w * w) * 0.5
    return center_u - t * w


def scherk(base, order: int) -> TruncatedJet:
    """Germ of ln cos x - ln cos y inside the open square |x|, |y| < pi/2."""
    base = _shaped("base", base, (2,))
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


def check_solution(desc: PdeDescriptor, germ_name: str, points, tol: float = SampleConfig.tol,
                   **params) -> Report:
    """Max normalized residual of the named exact solution at the points;
    the report passes when it is at most ``tol`` and some point was
    evaluated (or none was asked for).  Each point's germ is built on its
    own (a constructor may skip the point, and so does an overflow in its
    germ or jet); the germs, which must be over the descriptor's n
    variables, are then extended to jets as one batch and go through the
    evaluation stage of :func:`invariance_report`.  A
    JetError other than a skip raises, for instance DivisionByZero from a
    custom quotient expression whose denominator vanishes at a point; a
    tol that is not finite and >= 0 raises SchemaMismatch."""
    _check_nonnegative("tol", tol)
    catalog = solution_catalog()
    if germ_name not in catalog:
        raise SchemaMismatch(f"unknown catalog surface {germ_name!r}")
    make = catalog[germ_name]
    points = [np.asarray(p, dtype=float) for p in points]
    skipped = {k: 0 for k in SKIP_KINDS}
    bases, germs = [], []
    for p in points:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # read by extend_rows below
                germs.append(make(p, desc.order, **params))
            bases.append(p)
        except tuple(SKIP_EXCEPTIONS) as exc:
            skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
    max_defect, live = 0.0, ()
    if germs:
        n = desc.geometry.n
        if any(g.n_vars != n or p.size != n for g, p in zip(germs, bases)):
            raise SchemaMismatch(f"surface {germ_name!r} needs points and germs over n = {n} variables")
        jets, _ = extend_rows(np.array([g.coeffs for g in germs]), np.array(bases), desc.order, desc.chart)
        skipped["chart_domain"] += len(germs) - len(jets)
        max_defect, live = _evaluate(desc, jets, skipped)
    return _report(f"{desc.desc_id}:{germ_name}", 0, len(points), skipped, max_defect, len(live), tol)


def report_to_text(r: Report) -> str:
    return json.dumps(r.to_json(), sort_keys=True, indent=2)
