"""The three benchmark workloads: their inputs, ops and output checks.

Every op is one call into jetpde made by a single closed-loop caller. Ops
come in fixed cycles so that every run, whatever its seed or speed, runs
the same mix; the seed only changes the inputs. A run makes new inputs for
its first ``distinct_cycles`` cycles and then replays those cycles, so the
set of distinct ops, and which of them fail, depends on the seed alone.
Inputs are made here from the workload seed; the library sees descriptors,
jets, elements and per-report seeds, never the workload seed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from jetpde import cli, groups, pde, verify
from jetpde.errors import ChartDomain, DegenerateHessian, JetError, NotGraph

# Bound here, before a traced run installs its wrappers, so that making
# inputs records no spans.
from jetpde.groups import random_element as lib_random_element
from jetpde.jetspace import GraphJet
from jetpde.symtensor import SymCubic, SymMatrix

WORKLOADS = ("verify-2nd", "verify-3rd", "jet-calls")

# (preset, geometry, n) of the reports each verify workload cycles through.
VERIFY_COMBOS = {
    "verify-2nd": (
        ("minimal_surface", "euclidean", 2),
        ("minimal_surface", "euclidean", 3),
        ("monge_ampere", "euclidean", 2),
        ("monge_ampere", "euclidean", 3),
        ("umbilical", "conformal", 2),
        ("umbilical", "conformal", 3),
    ),
    "verify-3rd": (
        ("affine_cubic", "affine", 2),
        ("projective_cubic", "projective", 2),
    ),
}
# Samples per report, cycled through for every combo: many small reports,
# of every size from 5 to 19, so that report latencies form a dense ladder
# and no percentile sits in the gap between two sizes or presets.
REPORT_SAMPLES = tuple(range(5, 20))
# Cycles with new inputs per run; later cycles replay them. Each count is
# about two thirds of a 25 s run on a slow shared host, so every run
# completes all of them.
DISTINCT_CYCLES = {"verify-2nd": 2, "verify-3rd": 5, "jet-calls": 60}
# Samples per report in the byte-identity check.
CHECK_SAMPLES = 12

PRESETS = (
    ("minimal_surface", "euclidean"),
    ("monge_ampere", "euclidean"),
    ("umbilical", "conformal"),
    ("affine_cubic", "affine"),
    ("projective_cubic", "projective"),
)
GEOMETRIES = ("euclidean", "affine", "projective", "conformal")
PROLONG_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
DIMS = (2, 3)

# Generator scale of random group elements and spread of random jets,
# the defaults of ``jetpde verify``.
ELEMENT_SCALE = 0.5
JET_SCALE = 0.5
# Acceptance-test tolerances and element scale of the two-way checks.
ACCEPTANCE_ELEMENT_SCALE = 0.3
ROUND_TRIP_TOL = 1e-9
CROSS_ROUTE_TOL = 1e-7
NORMAL_FORM_TOL = 1e-9
# jet-calls cycles whose prolong and sample ops are also checked two ways;
# the check costs about as much as the op, so it runs on a fixed subset.
TWO_WAY_CYCLES = 10

# Raised by an op for a reason the library documents as a skip.
SKIPS = (NotGraph, ChartDomain, DegenerateHessian)


class Op:
    """One call: ``kind`` names it, ``fn()(*inputs())`` makes it,
    ``check(out)`` returns None or a failure reason, ``samples`` counts
    sampler attempts.

    ``fn`` returns the library function at call time, so that a traced run
    calls the wrapper installed after the op was built. ``args`` is a tuple,
    or a callable that makes the tuple afresh, so that a replayed op whose
    inputs carry state (a random generator) starts from the same state."""

    __slots__ = ("kind", "fn", "args", "check", "samples")

    def __init__(self, kind, fn, args, check, samples=0):
        self.kind, self.fn, self.args, self.check, self.samples = kind, fn, args, check, samples

    def inputs(self) -> tuple:
        return self.args() if callable(self.args) else self.args


def tag(geometry: str, n: int):
    return groups.GeometryTag(geometry, n)


# -- inputs ----------------------------------------------------------------


def random_jet(rng, geometry: str, n: int, order: int) -> GraphJet:
    hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
    cubic = SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order == 3 else None
    return GraphJet(
        tag(geometry, n).chart, n, order,
        JET_SCALE * rng.standard_normal(n), JET_SCALE * rng.standard_normal(),
        JET_SCALE * rng.standard_normal(n), hess, cubic,
    )


# -- output checks ------------------------------------------------------------


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _jet_ok(j, chart: str, n: int, order: int):
    if not isinstance(j, GraphJet) or (j.chart, j.n, j.order) != (chart, n, order):
        return "wrong jet shape"
    parts = [j.base, [j.u], j.grad] + [t.data for t in (j.hess, j.cubic) if t is not None]
    return None if _finite(*parts) else "non-finite jet"


def report_problem(text: str, exit_code: int, samples: int):
    """None if the CLI report is consistent, else why not."""
    rep = json.loads(text)
    if rep["attempted"] != samples:
        return "attempted != --samples"
    if rep["evaluated"] + sum(rep["skipped"].values()) != rep["attempted"]:
        return "evaluated + skipped != attempted"
    if not _finite(rep["max_defect"], rep["max_ratio_defect"]):
        return "non-finite defect"
    if (exit_code == 0) != rep["pass"]:
        return "exit code disagrees with pass"
    return None


def jets_close(a: GraphJet, b: GraphJet, tol: float) -> bool:
    """Per-coefficient agreement |x - y| <= tol (1 + |x| + |y|)."""
    pairs = [(a.base, b.base), ([a.u], [b.u]), (a.grad, b.grad)]
    pairs += [(x.data, y.data) for x, y in ((a.hess, b.hess), (a.cubic, b.cubic)) if x is not None]
    for x, y in pairs:
        x, y = np.asarray(x, float), np.asarray(y, float)
        if np.any(np.abs(x - y) > tol * (1.0 + np.abs(x) + np.abs(y))):
            return False
    return True


# -- workloads -----------------------------------------------------------------


class VerifyWorkload:
    """``jetpde.cli.main(["verify", ...])`` in-process, one report per op."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed = seed
        self.distinct_cycles = DISTINCT_CYCLES[name]
        self.rng = np.random.default_rng(seed)
        self.combos = VERIFY_COMBOS[name]
        self.paths = {}
        for preset, geometry, n in self.combos:
            desc = pde.build(tag(geometry, n), preset)
            path = workdir / f"{preset}-n{n}.json"
            path.write_text(json.dumps(pde.descriptor_to_json(desc), sort_keys=True))
            self.paths[(preset, n)] = str(path)

    @staticmethod
    def _argv(path: str, samples: int, seed: int) -> list[str]:
        return ["verify", path, "--samples", str(samples), "--seed", str(seed)]

    def _report(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def warm_up(self) -> None:
        """One report on the first preset; draws nothing from the cycles' inputs."""
        preset, _, n = self.combos[0]
        self._report(self._argv(self.paths[(preset, n)], REPORT_SAMPLES[0], self.seed))

    def cycle(self) -> list[Op]:
        ops = []
        for samples in REPORT_SAMPLES:
            for preset, _, n in self.combos:
                argv = self._argv(self.paths[(preset, n)], samples, int(self.rng.integers(2**31)))

                def check(out, samples=samples):
                    code, text = out
                    return report_problem(text, code, samples) or (f"exit {code}" if code else None)

                ops.append(Op(f"verify:{preset}:n{n}:s{samples}", lambda: self._report, (argv,), check, samples))
        return ops

    def checks(self, seed: int) -> list[str]:
        """One report per preset, made twice at one seed: byte-identical."""
        problems = []
        for preset, _, n in self.combos:
            argv = self._argv(self.paths[(preset, n)], CHECK_SAMPLES, seed)
            (c1, t1), (c2, t2) = self._report(argv), self._report(argv)
            if (c1, t1) != (c2, t2):
                problems.append(f"{preset} n={n}: reports at seed {seed} differ")
            elif report_problem(t1, c1, CHECK_SAMPLES):
                problems.append(f"{preset} n={n}: {report_problem(t1, c1, CHECK_SAMPLES)}")
        return problems


class JetCallsWorkload:
    """Single library calls on single jets, with no report around them."""

    def __init__(self, seed: int):
        self.seed = seed
        self.distinct_cycles = DISTINCT_CYCLES["jet-calls"]
        self.cycles = 0
        self.descs = {
            (preset, n): pde.build(tag(geometry, n), preset) for preset, geometry in PRESETS for n in DIMS
        }

    def cycle(self) -> list[Op]:
        rng = np.random.default_rng((self.seed, self.cycles))
        two_way = self.cycles < TWO_WAY_CYCLES
        ops = []
        for geometry in GEOMETRIES:
            for n, order in PROLONG_SHAPES:
                g = lib_random_element(tag(geometry, n), (self.seed, self.cycles, len(ops)), ELEMENT_SCALE)
                j = random_jet(rng, geometry, n, order)
                ops.append(Op(
                    f"prolong:{geometry}:n{n}k{order}", lambda: groups.prolong, (g, j),
                    lambda out, g=g, j=j: _jet_ok(out, j.chart, j.n, j.order)
                    or (_round_trip_problem(g, j, out) if two_way else None),
                ))
        for (preset, n), desc in self.descs.items():
            j = random_jet(rng, desc.geometry.name, n, desc.order)
            ops.append(Op(
                f"residual:{preset}:n{n}", lambda: pde.residual, (desc, j),
                lambda out: None if _finite(out) else "non-finite residual",
            ))
        for geometry, order in (("euclidean", 2), ("affine", 3), ("projective", 3)):
            for n in DIMS:
                j = random_jet(rng, geometry, n, order)
                ops.append(Op(
                    f"normalize:{geometry}:n{n}", lambda: groups.normalize_to_origin,
                    (tag(geometry, n), j), _normal_form_problem,
                ))
        for (preset, n), desc in self.descs.items():
            sub_seed = int(rng.integers(2**63))
            ops.append(Op(
                f"sample:{preset}:n{n}", lambda: verify.sample_on_zero_set,
                lambda desc=desc, sub_seed=sub_seed: (desc, np.random.default_rng(sub_seed), JET_SCALE),
                lambda out, desc=desc: _sample_problem(desc, out, two_way), samples=1,
            ))
        self.cycles += 1
        return ops

    def warm_up(self) -> None:
        """One prolong call on inputs of its own; the cycles are not advanced."""
        key = (self.seed, 2**32 + 1)
        g = lib_random_element(tag("euclidean", 2), key, ELEMENT_SCALE)
        groups.prolong(g, random_jet(np.random.default_rng(key), "euclidean", 2, 2))

    def checks(self, seed: int) -> list[str]:
        """The acceptance tests' two-way checks, in their domain (n = 2).

        Outside that domain the same checks run on the prolong and sample
        ops of the first TWO_WAY_CYCLES cycles, where a miss counts as a
        failed op.
        """
        problems = []
        rng = np.random.default_rng((seed, 2**32))
        for preset in ("minimal_surface", "monge_ampere"):
            desc = self.descs[(preset, 2)]
            for _ in range(4):
                j = verify.sample_on_zero_set(desc, rng, JET_SCALE)
                reason = _sample_problem(desc, j)
                if reason:
                    problems.append(f"{preset} n=2: {reason}")
        checked = 0
        for k, geometry in enumerate(GEOMETRIES):
            for order in (2, 3):
                for i in range(2):
                    key = (seed, 2**32, k, order, i)
                    g = lib_random_element(tag(geometry, 2), key, ACCEPTANCE_ELEMENT_SCALE)
                    j = random_jet(rng, geometry, 2, order)
                    try:
                        there = groups.prolong(g, j)
                    except SKIPS:
                        continue
                    checked += 1
                    reason = _round_trip_problem(g, j, there)
                    if reason:
                        problems.append(f"{geometry} n2k{order}: {reason}")
        if checked < len(GEOMETRIES) * 2:
            problems.append(f"only {checked} prolong round trips could be checked")
        return problems


def _round_trip_problem(g, j: GraphJet, there: GraphJet):
    """Why prolong(g^-1, prolong(g, j)) is not j, or None."""
    try:
        back = groups.prolong(groups.inverse_element(g), there)
    except SKIPS:
        return None
    except JetError as exc:
        return f"round trip raised {type(exc).__name__}"
    return None if jets_close(back, j, ROUND_TRIP_TOL) else "round trip misses tolerance"


def _sample_problem(desc, j, two_way: bool = True):
    """None for a skip or a sound sample; with ``two_way``, Euclidean
    samples are also checked against the normalization route."""
    if j is None:
        return None
    reason = _jet_ok(j, desc.chart, desc.geometry.n, desc.order)
    if reason or not two_way or desc.geometry.name != "euclidean":
        return reason
    alt = pde.residual_via_normalization(desc, j)
    if not abs(alt) <= CROSS_ROUTE_TOL * verify.residual_scale(desc, j):
        return "normalization route is off the zero set"
    return None


def _normal_form_problem(out):
    """Why the normalized jet does not sit at the origin with zero gradient."""
    j = out.jet
    size = 1.0 + float(np.max(np.abs(j.hess.data)))
    if not _finite(j.base, [j.u], j.grad) or max(
        float(np.max(np.abs(j.base))), abs(j.u), float(np.max(np.abs(j.grad)))
    ) > NORMAL_FORM_TOL * size:
        return "jet not carried to the origin"
    return None


def make(name: str, seed: int, workdir: Path):
    if name == "jet-calls":
        return JetCallsWorkload(seed)
    return VerifyWorkload(name, seed, workdir)

