"""Batch command-line front end.

Subcommands: ``build`` (descriptor + optional LaTeX), ``eval`` (residual at
a jet), ``verify`` (invariance or solution report), ``normalize`` (carry a
jet to the origin).  Exit codes: 0 pass, 1 verification fail, 2 usage or
schema error, 3 I/O error, 4 domain error.  All numeric output uses 17
significant digits; identical flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import JetError, SchemaMismatch
from .groups import GeometryTag, element_to_json, normalize_to_origin
from .jetspace import jet_from_json, jet_to_json
from .pde import (
    build,
    descriptor_from_json,
    descriptor_to_json,
    emit,
    expand_polynomial,
    expanded_to_json,
    expr_from_json,
    residual,
)
from .verify import SampleConfig, check_solution, invariance_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4

PRESET_FLAGS = {
    "minimal-surface": "minimal_surface",
    "monge-ampere": "monge_ampere",
    "umbilical": "umbilical",
    "affine-cubic": "affine_cubic",
    "projective-cubic": "projective_cubic",
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise SchemaMismatch(f"{path}: not valid JSON: {exc}") from exc


def cmd_build(args) -> int:
    if args.preset is not None:
        if args.preset not in PRESET_FLAGS:
            print(f"unknown preset {args.preset!r}", file=sys.stderr)
            return EXIT_USAGE
        expr = PRESET_FLAGS[args.preset]
    else:
        try:
            expr = expr_from_json(_load_json(args.expr))
        except OSError as exc:
            print(f"cannot read expression: {exc}", file=sys.stderr)
            return EXIT_IO
        except SchemaMismatch as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
    # Every output is made before any is written.
    try:
        desc = build(GeometryTag(args.geometry, args.n), expr)
        latex = emit(desc, "latex") if args.latex is not None else None
        expanded = expand_polynomial(desc) if args.expanded is not None else None
    except JetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        _dump_json(descriptor_to_json(desc), args.out)
        if latex is not None:
            with open(args.latex, "w") as fh:
                fh.write(latex + "\n")
        if expanded is not None:
            _dump_json(expanded_to_json(expanded), args.expanded)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        desc = descriptor_from_json(_load_json(args.descriptor))
        jet = jet_from_json(_load_json(args.jet))
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        value = residual(desc, jet)
    except SchemaMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except JetError as exc:
        print(f"domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(_fmt(value))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        desc = descriptor_from_json(_load_json(args.descriptor))
    except OSError as exc:
        print(f"cannot read descriptor: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.surface is not None:
            rng = np.random.default_rng(args.seed)
            pts = args.point_scale * rng.uniform(-1.0, 1.0, size=(args.points, desc.geometry.n))
            rep = check_solution(desc, args.surface, pts, tol=args.tol)
        else:
            cfg = SampleConfig(
                seed=args.seed, count=args.samples, scale=args.scale,
                jet_scale=args.jet_scale, tol=args.tol,
            )
            rep = invariance_report(desc, cfg)
    except SchemaMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except JetError as exc:
        print(f"domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _dump_json(rep.to_json(), args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_normalize(args) -> int:
    try:
        tag = GeometryTag(args.geometry, args.n)
        jet = jet_from_json(_load_json(args.jet))
    except OSError as exc:
        print(f"cannot read jet: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        res = normalize_to_origin(tag, jet)
    except SchemaMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except JetError as exc:
        print(f"domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    out = {
        "element": element_to_json(res.element),
        "jet": jet_to_json(res.jet),
    }
    if res.signature is not None:
        out["signature"] = res.signature.d
    try:
        _dump_json(out, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    default_seed = int(os.environ.get("INVPDE_SEED", "0"))
    p = argparse.ArgumentParser(prog="jetpde", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit a PDE descriptor")
    b.add_argument("--geometry", required=True,
                   choices=("euclidean", "affine", "projective", "conformal"))
    b.add_argument("-n", type=int, default=2, help="independent variables")
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
    v.add_argument("--seed", type=int, default=default_seed)
    v.add_argument("--scale", type=float, default=0.5)
    v.add_argument("--jet-scale", type=float, default=0.5)
    v.add_argument("--tol", type=float, default=1e-7)
    v.add_argument("--surface", help="check a catalog solution instead")
    v.add_argument("--points", type=int, default=200)
    v.add_argument("--point-scale", type=float, default=0.5)
    v.add_argument("--out", help="report path (default: stdout)")
    v.set_defaults(func=cmd_verify)

    nz = sub.add_parser("normalize", help="carry a jet to the origin")
    nz.add_argument("--geometry", required=True,
                    choices=("euclidean", "affine", "projective"))
    nz.add_argument("-n", type=int, default=2)
    nz.add_argument("jet")
    nz.add_argument("--out", help="output path (default: stdout)")
    nz.set_defaults(func=cmd_normalize)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
