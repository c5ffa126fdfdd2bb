"""Fuzzed command lines: every ``build``, ``eval``, ``normalize`` and
``verify`` run, with and without ``--surface``, on records and options
with one to three fields set to extreme or ill-typed values, ends in an
exit code 0-4 with at most one stderr line and raises no RuntimeWarning.

Runs are in-process through ``cli.main``, derandomized and bounded, so the
test is deterministic and takes a few seconds.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from jetpde.cli import main
from jetpde.geometries import GEOMETRIES, GEOMETRY
from jetpde.groups import GeometryTag
from jetpde.jetspace import GraphJet, jet_to_json
from jetpde.pde import PRESETS, build, descriptor_to_json, expr_to_json, lam, pick, sigma, tau, tauring
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.verify import solution_catalog

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# what a mutated field is set to
VALUES = (0, 1, -1, 9, 1e308, -1e308, 1e-320, -0.0, 2**70, float("inf"), float("-inf"), float("nan"),
          2.5, True, "x", None, [], [1.0, 2.0])
FLOATS = ("0", "1", "-1", "9", "1e308", "-1e308", "1e-320", "-0.0", "inf", "nan", "2.5", "x")
# sample and point counts: small ones, or ones a report refuses before it
# allocates anything
COUNTS = ("0", "1", "3", str(2**32), str(2**70), "-1", "2.5")
# what an edited option is set to
OPTIONS = {"-n": ("1", "2", "3", "9", "0", "x"), "--seed": ("0", "7", str(2**70), "-1"),
           "--samples": COUNTS, "--points": COUNTS, "--tol": FLOATS, "--scale": FLOATS,
           "--jet-scale": FLOATS, "--point-scale": FLOATS, "--geometry": GEOMETRIES,
           "--surface": (*sorted(solution_catalog()), "x")}
EXPRS = {"euclidean": (tau(1), sigma(2), lam(1) - lam(2) * 2.0, tau(1) / sigma(1)),
         "conformal": (tauring(2), tauring(3) * 2.0),
         "affine": (pick(), pick() * pick() - 1.0),
         "projective": (pick(), pick() * pick() - 1.0)}


def valid_jet(geometry: str, n: int, order: int) -> dict:
    rng = np.random.default_rng((n, order))
    return jet_to_json(GraphJet(
        GEOMETRY[geometry].chart, n, order, rng.standard_normal(n), 0.3, rng.standard_normal(n),
        SymMatrix(n, rng.standard_normal(n * (n + 1) // 2)) if order >= 2 else None,
        SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order >= 3 else None,
    ))


def paths(record, prefix=()):
    """The path of every field of a JSON record, nested ones included."""
    items = record.items() if isinstance(record, dict) else enumerate(record) if isinstance(record, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutated(record):
    """The record with none to three of its fields set to VALUES."""
    where = list(paths(record))
    return st.lists(st.tuples(st.sampled_from(where), st.sampled_from(VALUES)), max_size=3).map(
        lambda edits: _apply(record, edits))


def _apply(record, edits):
    record = json.loads(json.dumps(record))
    for path, value in edits:
        node = record
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):  # an earlier edit replaced the parent
            pass
    return record


def edited(options: dict):
    """The options, none to two of them set to values of OPTIONS."""
    edit = st.sampled_from(sorted(options)).flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(OPTIONS[k])))
    return st.lists(edit, max_size=2).map(lambda edits: [a for k, v in {**options, **dict(edits)}.items()
                                                         for a in (k, v)])


@st.composite
def command_lines(draw):
    """(argv with {name} placeholders, {name: JSON record})."""
    command = draw(st.sampled_from(("build", "eval", "normalize", "verify", "surface")))
    geometry = draw(st.sampled_from([g for g in GEOMETRIES if command != "normalize" or GEOMETRY[g].normal_form]))
    n = draw(st.sampled_from((1, 2, 3)))
    if command == "build":
        expr = draw(mutated(expr_to_json(draw(st.sampled_from(EXPRS[geometry])))))
        options = draw(edited({"--geometry": geometry, "-n": str(n)}))
        return ["build", *options, "--expr", "{expr}", "--out", "{out}"], {"expr": expr}
    preset = next(name for name, (g, _) in PRESETS.items() if g == geometry)
    desc = descriptor_to_json(build(GeometryTag(geometry, n), preset))
    jet = draw(mutated(valid_jet(geometry, n, desc["order"])))
    if command == "normalize":
        options = draw(edited({"--geometry": geometry, "-n": str(n)}))
        return ["normalize", *options, "{jet}", "--out", "{out}"], {"jet": jet}
    records = {"desc": draw(mutated(desc))}
    if command == "eval":
        return ["eval", "{desc}", "{jet}"], {**records, "jet": jet}
    options = {"--seed": "7", "--tol": "1e-7"}
    if command == "surface":
        surface = draw(st.sampled_from(sorted(solution_catalog())))
        options.update({"--surface": surface, "--points": "3", "--point-scale": "0.5"})
    else:
        options.update({"--samples": "3", "--scale": "0.5", "--jet-scale": "0.5"})
    return ["verify", "{desc}", *draw(edited(options)), "--out", "{out}"], records


def run(argv, records):
    """Exit code, stderr and RuntimeWarnings of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"out": Path(tmp) / "out.json"}
        for name, record in records.items():
            files[name] = Path(tmp) / f"{name}.json"
            files[name].write_text(json.dumps(record))
        argv = [a.format(**files) if a.startswith("{") else a for a in argv]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(command_lines())
# inputs that ended in a traceback or a warning before they were mended
@example((["build", "--geometry", "euclidean", "-n", "2", "--expr", "{expr}", "--out", "{out}"],
          {"expr": {"op": "sigma", "index": float("inf")}}))
@example((["verify", "{desc}", "--samples", str(2**70)],
          {"desc": descriptor_to_json(build(GeometryTag("euclidean", 2), "minimal_surface"))}))
@example((["verify", "{desc}", "--surface", "paraboloid", "--point-scale", "1e308", "--points", "5"],
          {"desc": descriptor_to_json(build(GeometryTag("euclidean", 2), "minimal_surface"))}))
@example((["verify", "{desc}", "--surface", "scherk", "--points", "3"],
          {"desc": descriptor_to_json(build(GeometryTag("euclidean", 1), "minimal_surface"))}))
def test_every_command_line_ends_in_an_exit_code(case):
    code, err, caught = run(*case)
    assert code in range(5)
    assert len(err.splitlines()) <= 1
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("fields", [
    {"grad": [1e-320, 0.1]},
    {"grad": [1e-320, -1e-320]},
    {"u": 1e-320, "grad": [1e-320, 0.1]},
    {"grad": [1e-320, 0.1], "hess_lower": [1e-320, 0.2, 1.0]},
    {"base": [1e-320, -0.0], "grad": [-0.0, 1e-320], "cubic_lex": [1e-320, 0.0, 0.1, 9.0]},
])
def test_projective_normalize_with_subnormal_entries_is_quiet(fields):
    # once reported to warn ("overflow encountered in multiply"); they do not
    jet = {**valid_jet("projective", 2, 3), **fields}
    code, err, caught = run(["normalize", "--geometry", "projective", "{jet}"], {"jet": jet})
    assert code in (0, 4)
    assert len(err.splitlines()) <= 1
    assert not caught
