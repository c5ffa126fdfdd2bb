"""Batch command-line front end.

Subcommands: ``build`` (descriptor + optional LaTeX), ``eval`` (residual at
a jet), ``verify`` (invariance or solution report), ``normalize`` (carry a
jet to the origin).  Exit codes: 0 pass, 1 verification fail, 2 usage or
schema error, 3 I/O error, 4 domain error.  All numeric output uses 17
significant digits; identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shutil
import sys

import numpy as np

from .errors import JetError, SchemaMismatch, check_nonnegative
from .geometries import GEOMETRIES, GEOMETRY
from .groups import GeometryTag, element_to_json, normalize_to_origin
from .jetspace import jet_from_json, jet_to_json
from .pde import (
    PRESETS,
    build,
    descriptor_from_json,
    descriptor_to_json,
    emit,
    expand_polynomial,
    expanded_to_json,
    expr_from_json,
    residual,
)
from .verify import MAX_COUNT, SampleConfig, check_solution, invariance_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4

PRESET_FLAGS = {name.replace("_", "-"): name for name in PRESETS}


class UsageError(JetError):
    """The command line asks for something that cannot be made (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, and its subparsers', are usage errors."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_all(outputs) -> None:
    """Write each (path, text) of ``outputs``, None meaning stdout, and no
    file unless every file can be written.

    A regular file's text goes to a new file beside the file its path
    resolves to (through symlinks), with that file's mode; the new files
    are renamed into place only once all of them are complete, and are
    removed on failure.  Targets that cannot be staged so (devices, pipes,
    and files in a directory that takes no new file) must be writable, and
    are written after the renames, as stdout is.
    """
    staged, direct = [], []
    try:
        for k, (path, text) in enumerate(outputs):
            if path is None:
                direct.append((path, text))
                continue
            real = os.path.realpath(path)
            if os.path.isdir(real):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            exists = os.path.exists(real)
            if exists and not os.access(real, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            if exists and not (os.path.isfile(real) and os.access(os.path.dirname(real), os.W_OK)):
                direct.append((path, text))
                continue
            tmp = f"{real}.{os.getpid()}.{k}.tmp"
            with open(tmp, "x") as fh:
                staged.append((tmp, real))
                fh.write(text)
            if exists:
                shutil.copymode(real, tmp)
        for tmp, real in staged:
            os.replace(tmp, real)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
    for path, text in direct:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # undecodable bytes, malformed or too deeply nested JSON
            raise SchemaMismatch(f"{path}: not valid JSON: {exc}") from exc


def cmd_build(args) -> int:
    if args.preset is not None:
        expr = PRESET_FLAGS[args.preset]
    else:
        expr = expr_from_json(_load_json(args.expr))
    # Every output is made before any is written.
    try:
        desc = build(GeometryTag(args.geometry, args.n), expr)
        outputs = [(args.out, _json_text(descriptor_to_json(desc)))]
        if args.latex is not None:
            outputs.append((args.latex, emit(desc, "latex") + "\n"))
        if args.expanded is not None:
            outputs.append((args.expanded, _json_text(expanded_to_json(expand_polynomial(desc)))))
    except JetError as exc:
        raise UsageError(str(exc)) from exc
    _write_all(outputs)
    return EXIT_OK


def cmd_eval(args) -> int:
    desc = descriptor_from_json(_load_json(args.descriptor))
    jet = jet_from_json(_load_json(args.jet))
    value = residual(desc, jet)
    print(_fmt(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    desc = descriptor_from_json(_load_json(args.descriptor))
    if args.surface is None:
        cfg = SampleConfig(args.seed, args.samples, args.scale, args.jet_scale, args.tol)
        rep = invariance_report(desc, cfg)
    else:
        for flag, value in (("--points", args.points), ("--seed", args.seed),
                            ("--point-scale", args.point_scale)):
            check_nonnegative(flag, value)
        if args.points >= MAX_COUNT:
            raise UsageError(f"--points must be below 2^32, got {args.points}")
        rng = np.random.default_rng(args.seed)
        pts = args.point_scale * rng.uniform(-1.0, 1.0, size=(args.points, desc.geometry.n))
        rep = check_solution(desc, args.surface, pts, tol=args.tol)
    _write_all([(args.out, _json_text(rep.to_json()))])
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_normalize(args) -> int:
    tag = GeometryTag(args.geometry, args.n)
    jet = jet_from_json(_load_json(args.jet))
    res = normalize_to_origin(tag, jet)
    out = {
        "element": element_to_json(res.element),
        "jet": jet_to_json(res.jet),
    }
    if res.signature is not None:
        out["signature"] = res.signature.d
    _write_all([(args.out, _json_text(out))])
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: nothing mutates it."""
    p = _Parser(prog="jetpde", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit a PDE descriptor")
    b.add_argument("--geometry", required=True, choices=GEOMETRIES)
    b.add_argument("-n", type=int, default=2, help="independent variables (1 to 8)")
    group = b.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESET_FLAGS))
    group.add_argument("--expr", help="path to an expression AST (json)")
    b.add_argument("--out", help="descriptor path (default: stdout)")
    b.add_argument("--latex", help="also write the expanded LaTeX here")
    b.add_argument("--expanded", help="also write the expanded monomials here")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="evaluate a residual at a jet")
    e.add_argument("descriptor")
    e.add_argument("jet")
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="sampling-based invariance report")
    v.add_argument("descriptor")
    v.add_argument("--samples", type=int, default=300)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--scale", type=float, default=SampleConfig.scale)
    v.add_argument("--jet-scale", type=float, default=SampleConfig.jet_scale,
                   help="size of the drawn 1-jets (finite, >= 0)")
    v.add_argument("--tol", type=float, default=SampleConfig.tol)
    v.add_argument("--surface", help="check a catalog solution instead")
    v.add_argument("--points", type=int, default=200)
    v.add_argument("--point-scale", type=float, default=0.5, help="size of the drawn points (finite, >= 0)")
    v.add_argument("--out", help="report path (default: stdout)")
    v.set_defaults(func=cmd_verify)

    nz = sub.add_parser("normalize", help="carry a jet to the origin")
    nz.add_argument("--geometry", required=True,
                    choices=tuple(g for g in GEOMETRIES if GEOMETRY[g].normal_form))
    nz.add_argument("-n", type=int, default=2)
    nz.add_argument("jet")
    nz.add_argument("--out", help="output path (default: stdout)")
    nz.set_defaults(func=cmd_normalize)
    return p


def main(argv=None) -> int:
    """Run one subcommand; every error ends in its exit code and one
    stderr line."""
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"I/O: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SchemaMismatch, UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except JetError as exc:
        print(f"domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
