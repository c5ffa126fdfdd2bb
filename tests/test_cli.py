"""End-to-end tests of the command-line interface."""

import json
import os
import threading
import traceback

import numpy as np
import pytest

from jetpde import cli, taylor
from jetpde.cli import main
from jetpde.groups import GeometryTag
from jetpde.jetspace import GraphJet, jet_to_json
from jetpde.pde import build, const, descriptor_to_json, expr_to_json, pick, sigma, tau
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.verify import solution_catalog


def run(argv):
    return main(argv)


def write_jet(path, j):
    path.write_text(json.dumps(jet_to_json(j)))


@pytest.fixture
def ms_desc(tmp_path):
    out = tmp_path / "ms.json"
    assert run(["build", "--geometry", "euclidean", "--preset", "minimal-surface",
                "--out", str(out)]) == 0
    return out


class TestBuild:
    def test_latex_output(self, tmp_path):
        out = tmp_path / "d.json"
        tex = tmp_path / "d.tex"
        code = run(["build", "--geometry", "euclidean", "--preset", "minimal-surface",
                    "--out", str(out), "--latex", str(tex)])
        assert code == 0
        assert tex.read_text().strip() == "(1+u_y^2)u_{xx} - 2u_xu_yu_{xy} + (1+u_x^2)u_{yy}"
        blob = json.loads(out.read_text())
        assert blob["geometry"] == "euclidean" and blob["order"] == 2

    def test_affine_cubic_expanded(self, tmp_path):
        out = tmp_path / "d.json"
        mono = tmp_path / "m.json"
        code = run(["build", "--geometry", "affine", "--preset", "affine-cubic",
                    "--out", str(out), "--expanded", str(mono)])
        assert code == 0
        blob = json.loads(mono.read_text())
        assert len(blob["monomials"]) == 13

    def test_unknown_preset(self):
        assert run(["build", "--geometry", "euclidean", "--preset", "nope"]) == 2

    def test_wrong_geometry_for_preset(self, tmp_path):
        code = run(["build", "--geometry", "conformal", "--preset", "minimal-surface",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("existing", [None, "previous contents\n"])
    def test_writes_nothing_unless_every_output_can_be_written(self, tmp_path, capsys, existing):
        out = tmp_path / "ok.json"
        if existing is not None:
            out.write_text(existing)
        code = run(["build", "--geometry", "euclidean", "--preset", "minimal-surface",
                    "--out", str(out), "--latex", str(tmp_path / "missing" / "x.tex")])
        assert code == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert (out.read_text() if out.exists() else None) == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == (["ok.json"] if existing else [])

    def test_writes_through_a_symlinked_out(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("previous contents\n")
        target.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code = run(["build", "--geometry", "euclidean", "--preset", "minimal-surface",
                    "--out", str(link)])
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["geometry"] == "euclidean"
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_writes_a_pipe_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        code = run(["build", "--geometry", "euclidean", "--preset", "minimal-surface",
                    "--out", str(pipe)])
        reader.join(timeout=10)
        assert code == 0
        assert got and json.loads(got[0])["geometry"] == "euclidean"
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_idempotent_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["build", "--geometry", "euclidean", "--preset", "monge-ampere"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_plane_jet(self, tmp_path, ms_desc, capsys):
        j = GraphJet("euclidean", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix(2))
        jp = tmp_path / "jet.json"
        write_jet(jp, j)
        assert run(["eval", str(ms_desc), str(jp)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_degenerate_hessian_exit_4(self, tmp_path):
        desc = tmp_path / "ac.json"
        assert run(["build", "--geometry", "affine", "--preset", "affine-cubic",
                    "--out", str(desc)]) == 0
        j = GraphJet("affine", 2, 3, [0, 0], 0.0, [0, 0],
                     SymMatrix.diag([1.0, 0.0]), SymCubic(2, [1, 0, 0, 0]))
        jp = tmp_path / "jet.json"
        write_jet(jp, j)
        assert run(["eval", str(desc), str(jp)]) == 4

    def test_chart_mismatch_exit_2(self, tmp_path, ms_desc):
        j = GraphJet("affine", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix(2))
        jp = tmp_path / "jet.json"
        write_jet(jp, j)
        assert run(["eval", str(ms_desc), str(jp)]) == 2

    def test_inadmissible_descriptor_exit_2(self, tmp_path, capsys):
        # a pick leaf in a Euclidean descriptor is a bad record, not a traceback
        blob = descriptor_to_json(build(GeometryTag("euclidean", 2), "minimal_surface"))
        blob["expr"] = expr_to_json(pick())
        desc, jp = tmp_path / "d.json", tmp_path / "jet.json"
        desc.write_text(json.dumps(blob))
        write_jet(jp, GraphJet("euclidean", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix(2)))
        assert run(["eval", str(desc), str(jp)]) == 2
        assert run(["verify", str(desc), "--samples", "3"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 2

    def test_missing_file_exit_3(self, ms_desc):
        assert run(["eval", str(ms_desc), "/nonexistent/jet.json"]) == 3


class TestVerify:
    def test_invariance_pass(self, tmp_path, ms_desc):
        rep = tmp_path / "rep.json"
        code = run(["verify", str(ms_desc), "--samples", "40", "--seed", "7",
                    "--scale", "0.5", "--tol", "1e-7", "--out", str(rep)])
        assert code == 0
        blob = json.loads(rep.read_text())
        assert blob["pass"] is True and blob["attempted"] == 40

    def test_vacuous_pass(self, tmp_path, ms_desc):
        rep = tmp_path / "rep.json"
        code = run(["verify", str(ms_desc), "--samples", "0", "--out", str(rep)])
        assert code == 0
        assert json.loads(rep.read_text())["attempted"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_sample_skipped_fails(self, tmp_path):
        # the residual is nan on every jet: 20 samples, none evaluated
        big = (const(1e200) * tau(1)) ** 2
        desc, rep = tmp_path / "nan.json", tmp_path / "rep.json"
        desc.write_text(json.dumps(descriptor_to_json(build(GeometryTag("euclidean", 2), big - big))))
        code = run(["verify", str(desc), "--seed", "1", "--samples", "20", "--out", str(rep)])
        blob = json.loads(rep.read_text())
        assert blob["evaluated"] == 0 and blob["skipped"]["no_root"] == 20
        assert blob["pass"] is False
        assert code == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("surface", sorted(solution_catalog()))
    def test_surface_far_outside_its_domain_is_skipped(self, tmp_path, ms_desc, capsys, surface):
        # the germs overflow at these points: an infinite value that the
        # domain tests read, never a warning, and each point is counted
        rep = tmp_path / "rep.json"
        code = run(["verify", str(ms_desc), "--surface", surface, "--point-scale", "1e308",
                    "--points", "5", "--out", str(rep)])
        assert capsys.readouterr().err == ""
        assert code in (0, 1)
        blob = json.loads(rep.read_text())
        assert sum(blob["skipped"].values()) + blob["evaluated"] == 5
        if surface in ("paraboloid", "saddle", "cylinder_graph", "sphere_cap"):
            assert code == 1 and blob["skipped"]["chart_domain"] == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n,outside", [(2, 18), (3, 19)])
    def test_failing_divisor_skips_its_sample(self, tmp_path, capsys, n, outside):
        # at this jet scale most samples' conformal divisors fail the division
        # test: each is a chart_domain skip, and the report goes on
        desc, rep = tmp_path / "um.json", tmp_path / "rep.json"
        desc.write_text(json.dumps(descriptor_to_json(build(GeometryTag("conformal", n), "umbilical"))))
        code = run(["verify", str(desc), "--jet-scale", "1e5", "--seed", "7", "--samples", "20",
                    "--out", str(rep)])
        assert capsys.readouterr().err == ""
        assert code == 1
        blob = json.loads(rep.read_text())
        assert blob["skipped"]["chart_domain"] == outside
        assert blob["evaluated"] == 20 - outside

    def test_surface_check(self, tmp_path, ms_desc):
        rep = tmp_path / "rep.json"
        code = run(["verify", str(ms_desc), "--surface", "scherk", "--points", "50",
                    "--seed", "3", "--point-scale", "1.0", "--tol", "1e-10",
                    "--out", str(rep)])
        assert code == 0
        assert json.loads(rep.read_text())["max_defect"] <= 1e-10

    def test_byte_identical_reports(self, tmp_path, ms_desc):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", str(ms_desc), "--samples", "25", "--seed", "5"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_projective_cubic_default_seed(self, tmp_path):
        # seed 7 once failed with max_defect 1.79e-5: the residual's
        # det(hess)^-3 factor was left out of the defect's scale
        desc, rep = tmp_path / "pc.json", tmp_path / "rep.json"
        assert run(["build", "--geometry", "projective", "--preset", "projective-cubic",
                    "--out", str(desc)]) == 0
        code = run(["verify", str(desc), "--seed", "7", "--samples", "300",
                    "--out", str(rep)])
        assert code == 0
        assert json.loads(rep.read_text())["max_defect"] <= 1e-7

    def test_default_seed_ignores_environment(self, tmp_path, ms_desc, monkeypatch):
        # the default seed is 0 whatever the environment holds
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("INVPDE_SEED", "abc")
        assert run(["verify", str(ms_desc), "--samples", "10", "--out", str(a)]) == 0
        monkeypatch.delenv("INVPDE_SEED")
        assert run(["verify", str(ms_desc), "--samples", "10", "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_writes_through_a_symlinked_out(self, tmp_path, ms_desc):
        target = tmp_path / "target.json"
        target.write_text("previous contents\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run(["verify", str(ms_desc), "--samples", "5", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["attempted"] == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "ms.json", "target.json"]

    @pytest.mark.parametrize("surface", [None, "plane"])
    def test_reports_staged_like_every_output(self, tmp_path, ms_desc, monkeypatch, surface):
        # verify writes its report through the one writer that stages files
        writes = []
        monkeypatch.setattr(cli, "_write_all", writes.append)
        rep = tmp_path / "rep.json"
        argv = ["verify", str(ms_desc), "--samples", "5", "--points", "5", "--out", str(rep)]
        assert run(argv + (["--surface", surface] if surface else [])) == 0
        assert [[path for path, _ in w] for w in writes] == [[str(rep)]]
        assert not rep.exists()

    def test_failed_verification_exit_1(self, tmp_path, ms_desc):
        rep = tmp_path / "rep.json"
        code = run(["verify", str(ms_desc), "--samples", "20", "--seed", "5",
                    "--tol", "1e-30", "--out", str(rep)])
        assert code == 1
        assert json.loads(rep.read_text())["pass"] is False


class TestNormalize:
    def test_euclidean(self, tmp_path, capsys):
        j = GraphJet("euclidean", 2, 2, [1.0, 2.0], 3.0, [0.4, -0.1],
                     SymMatrix.diag([1.0, 2.0]))
        jp = tmp_path / "jet.json"
        write_jet(jp, j)
        assert run(["normalize", "--geometry", "euclidean", str(jp)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert np.allclose(blob["jet"]["base"], 0.0, atol=1e-12)
        assert np.allclose(blob["jet"]["grad"], 0.0, atol=1e-12)

    def test_affine_signature(self, tmp_path, capsys):
        j = GraphJet("affine", 2, 3, [0.5, -0.5], 1.0, [0.2, 0.3],
                     SymMatrix.diag([1.0, -3.0]), SymCubic(2, [1, 2, 3, 4]))
        jp = tmp_path / "jet.json"
        write_jet(jp, j)
        assert run(["normalize", "--geometry", "affine", str(jp)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["signature"] == 1
        hess = blob["jet"]["hess_lower"]
        assert np.allclose(hess, [2.0, 0.0, -2.0], atol=1e-9)

    def test_output_staged_like_every_output(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(cli, "_write_all", writes.append)
        jp, out = tmp_path / "jet.json", tmp_path / "nf.json"
        write_jet(jp, GraphJet("euclidean", 2, 2, [1.0, 2.0], 3.0, [0.4, -0.1],
                               SymMatrix.diag([1.0, 2.0])))
        assert run(["normalize", "--geometry", "euclidean", str(jp), "--out", str(out)]) == 0
        assert [[path for path, _ in w] for w in writes] == [[str(out)]]
        assert json.loads(writes[0][0][1])["jet"]["u"] is not None

    def test_degenerate_exit_4(self, tmp_path):
        j = GraphJet("affine", 2, 3, [0, 0], 0.0, [0, 0],
                     SymMatrix.diag([1.0, 0.0]), SymCubic(2))
        jp = tmp_path / "jet.json"
        write_jet(jp, j)
        assert run(["normalize", "--geometry", "affine", str(jp)]) == 4


@pytest.fixture
def inputs(tmp_path):
    """Input files for the error cases, keyed by their argv placeholder."""
    files = {
        "ms": descriptor_to_json(build(GeometryTag("euclidean", 2), "minimal_surface")),
        "ms3": descriptor_to_json(build(GeometryTag("euclidean", 3), "minimal_surface")),
        "ms1": descriptor_to_json(build(GeometryTag("euclidean", 1), "minimal_surface")),
        # tau_1 / (sigma_1 - sigma_1): every residual divides by zero
        "div0": descriptor_to_json(build(GeometryTag("euclidean", 2), tau(1) / (sigma(1) - sigma(1)))),
        "expr": expr_to_json(tau(1)),
        "inf_const": expr_to_json(const(float("inf")) + tau(1)),  # written as Infinity
        "aff": descriptor_to_json(build(GeometryTag("affine", 2), "affine_cubic")),
        "proj": descriptor_to_json(build(GeometryTag("projective", 2), "projective_cubic")),
        "um": descriptor_to_json(build(GeometryTag("conformal", 2), "umbilical")),
        # a record past the Taylor engine's MAX_VARS = 8 variables
        "ms9": {**descriptor_to_json(build(GeometryTag("euclidean", 2), "minimal_surface")), "n": 9},
        "pick100": descriptor_to_json(build(GeometryTag("affine", 2), pick() ** 100)),
        "tau200": descriptor_to_json(build(GeometryTag("euclidean", 2), tau(1) ** 200)),
        "jet": jet_to_json(GraphJet("euclidean", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix(2))),
        "aff3": descriptor_to_json(build(GeometryTag("affine", 3), "affine_cubic")),
        "proj3": descriptor_to_json(build(GeometryTag("projective", 3), "projective_cubic")),
        # a gradient whose unit normal overflows
        "steep_jet": jet_to_json(GraphJet("euclidean", 2, 2, [0.1, 0.2], 0.3, [-0.65, 1e308],
                                          SymMatrix(2, [-1e308, 0.2, -0.5]))),
        # a gradient whose unit normal underflows, beside a huge Hessian
        "steep_jet_200": jet_to_json(GraphJet("euclidean", 2, 2, [0.1, 0.2], 0.3, [-0.65, 1e200],
                                              SymMatrix(2, [-1e300, 0.2, -0.5]))),
        # expression indices that are no integers
        "index_inf": {"op": "sigma", "index": float("inf")},
        "index_frac": {"op": "tau", "index": 2.5},
    }
    # integer fields that are no integers
    for key, name, value in (("n", "inf", float("inf")), ("order", "inf", float("inf")),
                             ("n", "frac", 2.5), ("n", "bool", True)):
        files[f"jet_{key}_{name}"] = {**files["jet"], key: value}
        files[f"ms_{key}_{name}"] = {**files["ms"], key: value}
    paths = {}
    for key, blob in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(blob))
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text('{"op": "tau", "index": ')
    paths["nan_jet"] = tmp_path / "nan_jet.json"
    paths["nan_jet"].write_text(paths["jet"].read_text().replace("0.0]", "NaN]", 1))
    for depth in (600, 2000):  # nested past the JSON decoder's recursion limit
        paths[f"deep{depth}"] = tmp_path / f"deep{depth}.json"
        paths[f"deep{depth}"].write_text('{"op": "add", "args": [' * depth + json.dumps(TAU1)
                                         + ', {"op": "const", "value": 1.0}]}' * depth)
    for key in ("out", "tex", "mono"):
        paths[key] = tmp_path / f"{key}.out"
    return paths


@pytest.mark.parametrize("argv,code", [
    (["build", "--geometry", "euclidean", "-n", "0", "--preset", "minimal-surface"], 2),
    (["build", "--geometry", "euclidean", "--expr", "{bad}"], 2),
    (["build", "--geometry", "euclidean", "-n", "3", "--expr", "{expr}", "--out", "{out}",
      "--latex", "{tex}"], 2),
    (["build", "--geometry", "euclidean", "-n", "3", "--preset", "minimal-surface",
      "--out", "{out}", "--expanded", "{mono}"], 2),
    (["eval", "{ms}", "{nan_jet}"], 2),
    (["eval", "{bad}", "{jet}"], 2),
    (["eval", "{div0}", "{jet}"], 4),
    (["verify", "{div0}", "--samples", "3"], 4),
    (["verify", "{div0}", "--surface", "plane", "--points", "3"], 4),
    (["verify", "{ms}", "--surface", "nope"], 2),
    (["normalize", "--geometry", "euclidean", "-n", "0", "{jet}"], 2),
    (["verify", "{ms}", "--samples", "-5"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "-3"], 2),
    (["build", "--geometry", "euclidean", "--expr", "/nonexistent/expr.json", "--out", "{out}"], 3),
    (["verify", "/nonexistent/ms.json", "--out", "{out}"], 3),
    (["normalize", "--geometry", "euclidean", "/nonexistent/jet.json", "--out", "{out}"], 3),
    (["build", "--geometry", "euclidean", "--preset", "minimal-surface",
      "--out", "/nonexistent/d.json", "--latex", "{tex}", "--expanded", "{mono}"], 3),
    (["verify", "{ms}", "--samples", "3", "--out", "/nonexistent/rep.json"], 3),
    (["verify", "{div0}", "--samples", "1"], 4),
    (["verify", "{div0}", "--samples", "20"], 4),
    (["verify", "{ms}", "--samples", "3", "--scale", "1e300"], 2),
    (["verify", "{ms}", "--samples", "3", "--scale", "nan"], 2),
    (["verify", "{aff}", "--samples", "3", "--scale", "1e10"], 2),
    (["verify", "{proj}", "--samples", "3", "--scale", "1e10"], 2),
    (["verify", "{um}", "--samples", "20", "--seed", "7", "--scale", "300"], 2),
    (["verify", "{ms}", "--samples", "abc"], 2),
    (["verify", "{ms}", "--samples", "3", "--scale", "-inf"], 2),
    (["verify", "{ms}", "--samples", "3", "--jet-scale", "-1"], 2),
    (["verify", "{ms}", "--samples", "3", "--jet-scale", "nan"], 2),
    (["verify", "{ms}", "--samples", "3", "--jet-scale", "inf"], 2),
    (["verify", "{ms}", "--samples", "3", "--seed", "-1"], 2),
    (["verify", "{ms}", "--samples", "0", "--scale", "nan"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--seed", "-2"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--point-scale", "inf"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--point-scale", "-1"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--point-scale", "nan"], 2),
    (["verify", "{ms3}", "--surface", "saddle", "--points", "5"], 2),
    (["verify", "{ms3}", "--surface", "sheared_quadric", "--points", "5"], 2),
    (["verify", "{ms3}", "--surface", "scherk", "--points", "5"], 2),
    (["build", "--geometry", "euclidean", "--expr", "{deep600}", "--out", "{out}"], 2),
    (["build", "--geometry", "euclidean", "--expr", "{deep2000}", "--out", "{out}"], 2),
    (["build", "--geometry", "euclidean", "--expr", "{inf_const}", "--out", "{out}", "--latex", "{tex}"], 2),
    (["verify", "{ms}", "--samples", "3", "--tol", "nan"], 2),
    (["verify", "{ms}", "--samples", "3", "--tol", "-1"], 2),
    (["verify", "{ms}", "--samples", "3", "--tol", "inf"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--tol", "nan"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--tol", "-1"], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", "3", "--tol", "inf"], 2),
    (["build", "--geometry", "euclidean", "-n", "9", "--preset", "minimal-surface", "--out", "{out}"], 2),
    (["verify", "{ms9}", "--samples", "3"], 2),
    (["eval", "{ms}", "{jet_order_inf}"], 2),
    (["eval", "{ms}", "{jet_n_inf}"], 2),
    (["eval", "{ms}", "{jet_n_frac}"], 2),
    (["normalize", "--geometry", "euclidean", "{jet_n_inf}"], 2),
    (["eval", "{ms_n_inf}", "{jet}"], 2),
    (["eval", "{ms_order_inf}", "{jet}"], 2),
    (["eval", "{ms_n_frac}", "{jet}"], 2),
    (["verify", "{ms_n_bool}", "--samples", "3"], 2),
    (["normalize", "--geometry", "euclidean", "{steep_jet}"], 4),
    (["normalize", "--geometry", "euclidean", "-n", "2", "{steep_jet_200}"], 4),
    (["build", "--geometry", "euclidean", "-n", "2", "--expr", "{index_inf}", "--out", "{out}"], 2),
    (["build", "--geometry", "euclidean", "-n", "2", "--expr", "{index_frac}", "--out", "{out}"], 2),
    (["verify", "{ms}", "--samples", str(2**32)], 2),
    (["verify", "{ms}", "--samples", str(2**70)], 2),
    (["verify", "{ms}", "--surface", "plane", "--points", str(2**70)], 2),
    (["verify", "{ms1}", "--surface", "scherk", "--points", "3"], 2),
])
def test_errors_end_in_exit_code(inputs, capsys, argv, code):
    argv = [a.format(**inputs) if a.startswith("{") else a for a in argv]
    try:
        got = main(argv)
    except Exception:  # what the interpreter would print for an escape
        traceback.print_exc()
        got = None
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert got == code
    assert len(err.strip().splitlines()) == 1
    assert not any(inputs[k].exists() for k in ("out", "tex", "mono"))


def test_dimension_past_the_taylor_engine_allocates_no_table(inputs, capsys):
    # n = 9 is rejected where the geometry is named, before any Taylor table
    tables = (taylor.multi_indices, taylor.n_coeffs, taylor._mul_table, taylor.linear_positions)
    before = [t.cache_info().currsize for t in tables]
    assert main(["build", "--geometry", "projective", "-n", "9", "--preset", "projective-cubic"]) == 2
    assert main(["verify", str(inputs["ms9"]), "--samples", "3"]) == 2
    assert [t.cache_info().currsize for t in tables] == before
    assert capsys.readouterr().err.count("exceeds the Taylor engine's limit of 8 variables") == 2


TAU1 = {"op": "tau", "index": 1}


@pytest.mark.parametrize("ast", [
    {"op": "add", "args": [TAU1]},
    {"op": "pow", "index": 2, "args": []},
    {"op": "pow", "index": 2, "args": [TAU1, TAU1]},
    {"op": "tau", "index": 1, "args": [TAU1]},
], ids=["add-of-one", "pow-of-none", "pow-of-two", "leaf-with-args"])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_wrong_arity_is_a_usage_error(tmp_path, capsys, ast, command):
    # each node takes a fixed number of arguments: none is dropped, and a
    # missing one is no traceback later on
    expr, desc, tex = tmp_path / "expr.json", tmp_path / "desc.json", tmp_path / "out.tex"
    expr.write_text(json.dumps(ast))
    desc.write_text(json.dumps({"geometry": "euclidean", "n": 2, "order": 2, "chart": "euclidean",
                                "expr": ast}))
    argv = {"build": ["build", "--geometry", "euclidean", "--expr", str(expr), "--latex", str(tex)],
            "verify": ["verify", str(desc), "--samples", "3"]}[command]
    try:
        got = main(argv)
    except Exception:  # what the interpreter would print for an escape
        traceback.print_exc()
        got = None
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert got == 2
    assert len(err.strip().splitlines()) == 1 and "argument" in err
    assert not tex.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "{ms}", "--samples", "20", "--jet-scale", "1e100"],
    ["verify", "{pick100}", "--samples", "5"],
    ["verify", "{tau200}", "--samples", "5"],
    ["verify", "{aff}", "--samples", "20", "--jet-scale", "1e200"],
    ["verify", "{aff}", "--samples", "20", "--seed", "7", "--jet-scale", "1e308"],
    ["verify", "{aff3}", "--samples", "20", "--seed", "7", "--jet-scale", "1e308"],
    ["verify", "{proj}", "--samples", "20", "--seed", "7", "--jet-scale", "1e308"],
    ["verify", "{proj3}", "--samples", "20", "--seed", "7", "--jet-scale", "1e308"],
    ["verify", "{aff3}", "--samples", "20", "--seed", "7", "--jet-scale", "1e120"],
])
def test_overflow_ends_as_a_value(inputs, capsys, argv):
    # an overflowing power, product or determinant is an infinite value
    # that the report reads, never a traceback or a warning
    argv = [a.format(**inputs) if a.startswith("{") else a for a in argv]
    try:
        got = main(argv)
    except Exception:  # what the interpreter would print for an escape
        traceback.print_exc()
        got = None
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == ""
    assert got in (0, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("jet_scale", ["1e80", "1e120", "1e200", "1e308"])
def test_overflowing_umbilics_find_no_root(tmp_path, capsys, jet_scale, n):
    # every drawn umbilic (or 1-jet) overflows at these scales: each is a
    # no_root skip, so the report fails, with no schema error or warning
    desc, rep = tmp_path / "um.json", tmp_path / "rep.json"
    desc.write_text(json.dumps(descriptor_to_json(build(GeometryTag("conformal", n), "umbilical"))))
    try:
        got = main(["verify", str(desc), "--jet-scale", jet_scale, "--seed", "7", "--samples", "20",
                    "--out", str(rep)])
    except Exception:  # what the interpreter would print for an escape
        traceback.print_exc()
        got = None
    assert capsys.readouterr().err == ""
    assert got == 1
    blob = json.loads(rep.read_text())
    assert blob["skipped"]["no_root"] == 20 and blob["evaluated"] == 0


PRESET_GEOMETRY = {"minimal_surface": "euclidean", "monge_ampere": "euclidean", "umbilical": "conformal",
                   "affine_cubic": "affine", "projective_cubic": "projective"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("preset", sorted(PRESET_GEOMETRY))
@pytest.mark.parametrize("jet_scale", ["1e3", "1e10", "1e40", "1e80", "1e120", "1e200", "1e308"])
def test_extreme_jet_scale_sweep(tmp_path, capsys, jet_scale, preset, n):
    # the whole extreme-scale sweep: every preset at every scale ends in a
    # report, never a traceback or a warning, with each sample counted once
    desc, rep = tmp_path / "d.json", tmp_path / "rep.json"
    desc.write_text(json.dumps(descriptor_to_json(build(GeometryTag(PRESET_GEOMETRY[preset], n), preset))))
    try:
        got = main(["verify", str(desc), "--jet-scale", jet_scale, "--seed", "7", "--samples", "20",
                    "--out", str(rep)])
    except Exception:  # what the interpreter would print for an escape
        traceback.print_exc()
        got = None
    assert capsys.readouterr().err == ""
    assert got in (0, 1)
    blob = json.loads(rep.read_text())
    assert blob["attempted"] == 20
    assert blob["evaluated"] + sum(blob["skipped"].values()) == 20


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("preset", ["minimal_surface", "monge_ampere"])
@pytest.mark.parametrize("jet_scale", ["1e10", "1e40", "1e80", "1e120", "1e154", "1e200", "1e300"])
def test_euclidean_reports_at_extreme_jet_scales(tmp_path, capsys, jet_scale, preset, n):
    # the chart metric's root has a closed form: huge gradients give a
    # report, never a traceback or a warning.  From 1e200 up h hess
    # underflows to 0 on every drawn line, which then has no root: the
    # report fails, it does not pass on residuals that are exactly 0
    desc, rep = tmp_path / "d.json", tmp_path / "rep.json"
    desc.write_text(json.dumps(descriptor_to_json(build(GeometryTag("euclidean", n), preset))))
    try:
        got = main(["verify", str(desc), "--jet-scale", jet_scale, "--seed", "7", "--samples", "20",
                    "--out", str(rep)])
    except Exception:  # what the interpreter would print for an escape
        traceback.print_exc()
        got = None
    assert capsys.readouterr().err == ""
    assert got in (0, 1)
    if float(jet_scale) >= 1e200:
        assert got == 1 and json.loads(rep.read_text())["skipped"]["no_root"] == 20
