"""Span recorder for traced benchmark runs, and the layer boundaries it wraps.

Tracing is installed from outside the library: each boundary function is
replaced by a recording wrapper in every ``jetpde`` module that bound it by
name (``from .taylor import compose`` makes ``groups.compose`` its own
reference), plus ``scipy.optimize.brentq`` and ``TruncatedJet.__mul__``.
Spans are kept in flat arrays in memory and aggregated, and written out,
only after the traced ops have finished.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (label, module, attribute). Every label is one per-layer boundary.
BOUNDARIES = (
    ("cli.main", "jetpde.cli", "main"),
    ("verify.invariance_report", "jetpde.verify", "invariance_report"),
    ("verify.sample_on_zero_set", "jetpde.verify", "sample_on_zero_set"),
    ("verify.brentq", "scipy.optimize", "brentq"),
    ("groups.random_element", "jetpde.groups", "random_element"),
    ("groups.prolong", "jetpde.groups", "prolong"),
    ("groups.normalize_to_origin", "jetpde.groups", "normalize_to_origin"),
    ("pde.residual", "jetpde.pde", "residual"),
    ("invariants.eigenvalues", "jetpde.invariants", "eigenvalues"),
    ("invariants.tracefree_cubic", "jetpde.invariants", "tracefree_cubic"),
    ("invariants.pick_norm", "jetpde.invariants", "pick_norm"),
    ("invariants.F_aff3", "jetpde.invariants", "F_aff3"),
    ("jetspace.jet_extend", "jetpde.jetspace", "jet_extend"),
    ("jetspace.to_poly", "jetpde.jetspace", "to_poly"),
    ("taylor.compose", "jetpde.taylor", "compose"),
    ("taylor.invert_map", "jetpde.taylor", "invert_map"),
    ("taylor.divide", "jetpde.taylor", "divide"),
    ("taylor.mul", "jetpde.taylor", "TruncatedJet.__mul__"),
)
LABELS = tuple(b[0] for b in BOUNDARIES)

SAMPLER = "verify.sample_on_zero_set"
PROLONG = "groups.prolong"
# Residual evaluations a sampler makes: residuals proper, and the direct
# third-order polynomial its hyperbolic branch scans instead.
RESIDUAL_EVALS = ("pde.residual", "invariants.F_aff3")
PROLONG_KEYS = ("n2k2", "n2k3", "n3k2", "n3k3")


class SpanRecorder:
    """Spans (name, parent, op id, start, end, jets built) in flat arrays.

    ``op`` is the id of the benchmark op that caused the span, so spans of
    one op share it. ``jets`` holds the running count of ``TruncatedJet``
    constructions at span start and end, so each boundary also yields the
    number of jets built beneath it.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = -1
        self.name = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.jets_start = array("q")
        self.jets_end = array("q")
        self.prolong_key: dict[int, str] = {}
        self.sampler_useful = 0
        self.jets_built = 0
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        nid = LABELS.index(label)
        rec = self
        stack = self._stack
        clock = time.perf_counter_ns
        name, parent, op_id = self.name, self.parent, self.op_id
        start, end, jets_start, jets_end = self.start, self.end, self.jets_start, self.jets_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(rec.op)
            end.append(0)
            jets_end.append(0)
            jets_start.append(rec.jets_built)
            if label == PROLONG:
                j = args[1]
                rec.prolong_key[sid] = f"n{j.n}k{j.order}"
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                jets_end[sid] = rec.jets_built
                stack.pop()
            if label == SAMPLER and out is not None:
                rec.sampler_useful += 1
            return out

        return traced

    def count_jets(self, init):
        rec = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            rec.jets_built += 1
            init(obj, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every boundary by its wrapper wherever jetpde bound it."""
        from jetpde.taylor import TruncatedJet

        modules = [m for k, m in sys.modules.items() if k == "jetpde" or k.startswith("jetpde.")]
        originals = []
        for label, modname, attr in BOUNDARIES:
            if attr.startswith("TruncatedJet."):
                orig = TruncatedJet.__dict__[attr.split(".", 1)[1]]
                wrapped = self.wrap(label, orig)
                for key in ("__mul__", "__rmul__"):
                    if TruncatedJet.__dict__[key] is orig:
                        setattr(TruncatedJet, key, wrapped)
                continue
            owner = sys.modules[modname]
            orig = getattr(owner, attr)
            wrapped = self.wrap(label, orig)
            setattr(owner, attr, wrapped)
            originals.append(orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        TruncatedJet.__init__ = self.count_jets(TruncatedJet.__init__)
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is orig for orig in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} escaped tracing")

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op_id, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "jets_start": np.frombuffer(self.jets_start, dtype=np.int64),
            "jets_end": np.frombuffer(self.jets_end, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, labels=np.array(LABELS), run_id=np.array(self.run_id), **self.arrays())

    def aggregate(self) -> dict:
        """Per-layer calls, total and self time, and the derived ratios."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e6
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        out = {}
        for nid, label in enumerate(LABELS):
            sel = name == nid
            out[f"{label}.calls"] = int(np.count_nonzero(sel))
            out[f"{label}.total_ms"] = float(dur[sel].sum())
            out[f"{label}.self_ms"] = float(self_ms[sel].sum())

        samplers = np.flatnonzero(name == LABELS.index(SAMPLER))
        evals = np.isin(name, [LABELS.index(r) for r in RESIDUAL_EVALS])
        inside = _inside(a["start_ns"][evals], a["start_ns"][samplers], a["end_ns"][samplers])
        n_samples = samplers.size
        out["verify.residual_evals_per_sample"] = int(inside.sum()) / n_samples if n_samples else 0.0
        out["verify.sample.useful_share"] = self.sampler_useful / n_samples if n_samples else 0.0

        prolongs = np.flatnonzero(name == LABELS.index(PROLONG))
        jets = (a["jets_end"] - a["jets_start"])[prolongs]
        out["taylor.jets_per_prolong"] = float(jets.mean()) if prolongs.size else 0.0
        for key in PROLONG_KEYS:
            sel = [sid for sid in prolongs if self.prolong_key.get(int(sid)) == key]
            out[f"groups.prolong.ms_per_call.{key}"] = float(dur[sel].mean()) if sel else 0.0
        out["trace.spans"] = int(name.size)
        return out


def _inside(points, starts, ends) -> np.ndarray:
    """Which points fall inside one of the disjoint intervals [starts, ends]."""
    if starts.size == 0:
        return np.zeros(points.size, dtype=bool)
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    idx = np.searchsorted(starts, points, side="right") - 1
    ok = idx >= 0
    return ok & (points <= ends[np.maximum(idx, 0)])
