"""What ``import jetpde`` and each CLI command load of scipy.

Every case runs in a fresh interpreter: the test process itself already
holds scipy, through ``tests/jet_reference.py``.  No jetpde module imports
scipy: the element draws take their exponentials from
``jetpde.groups.expm``, so no command loads ``scipy.linalg``.  Only
``scipy.optimize`` is entered in ``sys.modules``, unexecuted, so that
``bench/tracing.py`` can wrap ``brentq`` through it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = Path(__file__).resolve().parent.parent / "bench"


# Printed last by a script that reports which scipy modules it loaded.
LOADED = """
import json, sys
print(json.dumps({
    "linalg": "scipy.linalg" in sys.modules,
    "optimize": sorted(k for k in sys.modules if k.startswith("scipy.optimize")),
}))
"""


def fresh(code: str, cwd: Path, loaded: bool = False) -> dict:
    """The JSON object a fresh interpreter running ``code`` (then, if
    ``loaded``, the LOADED report) prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = textwrap.dedent(code) + (LOADED if loaded else "")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_neither_linalg_nor_optimize(tmp_path):
    out = fresh("import jetpde.cli", tmp_path, loaded=True)
    assert not out["linalg"]
    assert out["optimize"] == ["scipy.optimize"]


# Every command but an invariance verify (the one that draws group
# elements), on the files run_command writes.
COMMANDS = {
    "build": ["build", "--geometry", "euclidean", "--preset", "monge-ampere", "--out", "other.json"],
    "eval": ["eval", "ms.json", "jet.json"],
    "normalize": ["normalize", "--geometry", "euclidean", "jet.json"],
    "verify --surface": ["verify", "ms.json", "--surface", "scherk", "--points", "5"],
}


def run_command(argv, cwd: Path) -> dict:
    return fresh(f"""
        import contextlib, io, json
        from jetpde.cli import main
        from jetpde.jetspace import GraphJet, jet_to_json
        from jetpde.symtensor import SymMatrix

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "--geometry", "euclidean", "--preset", "minimal-surface",
                         "--out", "ms.json"]) == 0
            j = GraphJet("euclidean", 2, 2, [1.0, 2.0], 3.0, [0.4, -0.1], SymMatrix.diag([1.0, 2.0]))
            with open("jet.json", "w") as f:
                json.dump(jet_to_json(j), f)
            code = main({argv!r})
        assert code in (0, 1), code
    """, cwd, loaded=True)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_without_elements_leave_linalg_unloaded(command, tmp_path):
    out = run_command(COMMANDS[command], tmp_path)
    assert not out["linalg"]
    assert out["optimize"] == ["scipy.optimize"]


def test_invariance_verify_leaves_linalg_unloaded(tmp_path):
    out = run_command(["verify", "ms.json", "--samples", "5", "--seed", "7"], tmp_path)
    assert not out["linalg"]
    assert out["optimize"] == ["scipy.optimize"]


def test_unloaded_optimize_reads_as_scipy(tmp_path):
    out = fresh("""
        import json, sys
        import jetpde.cli

        entry = sys.modules["scipy.optimize"]
        before = "scipy.optimize._zeros_py" in sys.modules
        brentq = entry.brentq
        import scipy.optimize
        from scipy.optimize._zeros_py import brentq as scipys
        print(json.dumps({
            "before": before,
            "same_entry": sys.modules["scipy.optimize"] is entry and scipy.optimize is entry,
            "scipys": brentq is scipys,
            "root": brentq(lambda x: x * x - 2.0, 0.0, 2.0),
        }))
    """, tmp_path)
    assert not out["before"]
    assert out["same_entry"] and out["scipys"]
    assert abs(out["root"] - 2.0**0.5) < 1e-12


def test_optimize_imported_first_is_left_as_it_is(tmp_path):
    out = fresh("""
        import json, sys, types
        import scipy.optimize
        first = sys.modules["scipy.optimize"]
        import jetpde.cli
        print(json.dumps({
            "same": sys.modules["scipy.optimize"] is first and type(first) is types.ModuleType,
        }))
    """, tmp_path)
    assert out["same"]


def test_tracer_wraps_brentq(tmp_path):
    out = fresh(f"""
        import json, sys
        sys.path.insert(0, {str(BENCH)!r})
        import jetpde.cli
        import tracing

        original = sys.modules["scipy.optimize"].brentq
        tracing.SpanRecorder("cold-start").install()
        wrapped = sys.modules["scipy.optimize"].brentq
        print(json.dumps({{"wrapped": wrapped is not original and wrapped.__wrapped__ is original}}))
    """, tmp_path)
    assert out["wrapped"]
