"""Invariant expressions, PDE descriptors, residual evaluation and emission.

A :class:`PdeDescriptor` pairs a geometry with an invariant expression; its
residual at a graph jet vanishes exactly when the jet solves the PDE the
expression defines.  Euclidean and conformal residuals evaluate the
expression on the second-order invariants directly.  Affine and projective
residuals evaluate the ``pick`` leaf in closed form from the Hessian H and
the cubic C alone: the squared norm of the H-trace-free part of C against
H, ``8 Q / det(H)^3`` with Q the polynomial of
:func:`~jetpde.invariants.pick_numerator`; det and the adjugate in Q come
from one ``eigh`` spectrum of the Hessians, which a caller that holds it
passes in.  ``residual_via_normalization``
keeps the moving-frame route (normalize the jet to the origin, then read
the invariants off the normal form) as an independent check.
:func:`residuals` evaluates a whole jet batch at once, one value per
sample; :func:`residual` is its batch of one.  Residual values transform
by a nonzero factor under the group, so only zero sets and eigenvalue
ratios are meaningful across points.

An :class:`Expr` node takes the number of arguments ``NODES`` gives it;
``INDEXED`` names the ops whose record carries an index.  Evaluation, the
degree, the expansion and the JSON record are each a leaf rule and a node
rule over one fold, :func:`_fold`, which takes the arguments first.

``expand_polynomial`` writes the n = 2 equations as exact polynomials.
The affine ``pick`` leaf expands to the 13-term table
:data:`~jetpde.invariants.F_AFF3_MONOMIALS`, the one copy of it, which
:func:`~jetpde.invariants.F_aff3` also evaluates.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from fractions import Fraction

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidExpr,
    NotPolynomial,
    SchemaMismatch,
    integer_field,
)
from .exactpoly import Poly
from .groups import GeometryTag, normalize_to_origin
from .invariants import (
    F_AFF3_MONOMIALS,
    adjugates,
    elementary_symmetric,
    eigenvalues,
    hessian_dets,
    pick_norm,
    pick_numerators,
    shape_matrix,
    tau_d,
    tracefree_cubic,
    tracefree_shape,
)
from .jetspace import GraphJet, JetBatch
from .symtensor import _cubic_gather, _matrix_gather
from .taylor import pow_rows

DIV_EPS = 1e-300

LEAVES = ("const", "lam", "sigma", "tau", "tauring", "pick")
NODES = {"add": 2, "sub": 2, "mul": 2, "div": 2, "pow": 1}  # each node's number of arguments
INDEXED = ("lam", "sigma", "tau", "tauring", "pow")  # const's record carries a value


def _binary(op: str):
    """The operator method making an ``op`` node of self and the operand."""
    return lambda self, other: Expr(op, args=(self, _coerce(other)))


@dataclasses.dataclass(frozen=True)
class Expr:
    """Invariant-expression tree node."""

    op: str
    value: float = 0.0
    index: int = 0
    args: tuple["Expr", ...] = ()

    __add__, __sub__, __mul__, __truediv__ = map(_binary, ("add", "sub", "mul", "div"))

    def __pow__(self, k: int):
        return Expr("pow", index=int(k), args=(self,))


def _coerce(v) -> Expr:
    return v if isinstance(v, Expr) else const(float(v))


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def lam(i: int) -> Expr:
    return Expr("lam", index=int(i))


def sigma(i: int) -> Expr:
    return Expr("sigma", index=int(i))


def tau(d: int) -> Expr:
    return Expr("tau", index=int(d))


def tauring(d: int) -> Expr:
    return Expr("tauring", index=int(d))


def pick() -> Expr:
    return Expr("pick")


@dataclasses.dataclass(frozen=True)
class PdeDescriptor:
    """A geometry and the invariant expression of its PDE; the jet order and
    the chart are the geometry's."""

    geometry: GeometryTag
    expr: Expr

    @property
    def order(self) -> int:
        return self.geometry.facts.order

    @property
    def chart(self) -> str:
        return self.geometry.chart

    @property
    def desc_id(self) -> str:
        for name in PRESETS:
            if self.expr == PRESETS[name][1](self.geometry.n) and self.geometry.name == PRESETS[name][0]:
                return name
        return "custom"


PRESETS = {
    "minimal_surface": ("euclidean", lambda n: tau(1)),
    "monge_ampere": ("euclidean", lambda n: sigma(n)),
    "umbilical": ("conformal", lambda n: tauring(2)),
    "affine_cubic": ("affine", lambda n: pick()),
    "projective_cubic": ("projective", lambda n: pick()),
}


def _validate(geometry: GeometryTag, e: Expr, depth: int = 0):
    if depth > 64:
        raise InvalidExpr("expression too deep")
    arity = 0 if e.op in LEAVES else NODES.get(e.op)
    if arity is None:
        raise InvalidExpr(f"unknown node {e.op!r}")
    if len(e.args) != arity:
        raise InvalidExpr(f"{e.op!r} takes {arity} argument{'' if arity == 1 else 's'}, got {len(e.args)}")
    if e.op in LEAVES:
        if e.op not in geometry.facts.leaves:
            raise InvalidExpr(f"leaf {e.op!r} not allowed for {geometry.name} geometry")
        if e.op in ("lam", "sigma") and not 1 <= e.index <= geometry.n:
            raise InvalidExpr(f"{e.op}({e.index}) outside 1..{geometry.n}")
        if e.op == "tau" and e.index < 1:
            raise InvalidExpr("tau needs d >= 1")
        if e.op == "tauring" and e.index < 2:
            raise InvalidExpr("tauring needs d >= 2")
        return
    if e.op == "pow" and e.index < 0:
        raise InvalidExpr("negative powers go through div")
    for a in e.args:
        _validate(geometry, a, depth + 1)


def build(geometry: GeometryTag, expr: Expr | str) -> PdeDescriptor:
    """Descriptor of the invariant PDE with the given zero-set expression."""
    if isinstance(expr, str):
        try:
            geo_name, make = PRESETS[expr]
        except KeyError as exc:
            raise InvalidExpr(f"unknown preset {expr!r}") from exc
        if geo_name != geometry.name:
            raise InvalidExpr(f"preset {expr!r} belongs to the {geo_name} geometry")
        expr = make(geometry.n)
    _validate(geometry, expr)
    return PdeDescriptor(geometry, expr)


def _fold(e: Expr, leaf, node):
    """``leaf(e)`` at a leaf, ``node(e, values)`` at a node, the values of
    its arguments taken first, left to right."""
    if e.op in LEAVES:
        return leaf(e)
    if e.op not in NODES:
        raise InvalidExpr(f"unknown node {e.op!r}")
    return node(e, [_fold(a, leaf, node) for a in e.args])


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _eval_node(e: Expr, vals):
    if e.op == "div" and np.any(abs(vals[1]) < DIV_EPS):
        raise DivisionByZero("quotient node hit a vanishing denominator")
    if e.op == "pow":  # libm's pow, +-inf where the float power overflows
        out = pow_rows(vals[0], e.index)
        return out if isinstance(vals[0], np.ndarray) else float(out)
    return _ARITHMETIC[e.op](*vals)


def _eval_tree(e: Expr, leaf_value):
    """Value of the expression from its leaf values: floats, or arrays of
    one shape, on which every node acts row by row with the same float64
    operation."""
    return _fold(e, lambda e: e.value if e.op == "const" else leaf_value(e), _eval_node)


def residuals(desc: PdeDescriptor, jets: JetBatch, spectrum=None) -> tuple[np.ndarray, dict]:
    """Scalars whose vanishing says the jets solve the PDE, one per row, and
    {row: DegenerateHessian} for the rows skipped on the degenerate locus.

    The leaves are the stacked invariants of the rows, each leaf computed
    once, so each row is bitwise the value a batch of one gives.  The
    ``pick`` leaf reads det and adjugate off one spectrum of the rows' full
    Hessians, ``np.linalg.eigh``'s (eigenvalues, eigenvectors): ``spectrum``
    when the caller has it, else its own.  A skipped
    row's value is nan, so no later node can raise for it.  numpy warnings
    are off: as for Python floats, an overflow or an inf - inf is a value,
    which a report counts as an infinite defect.
    """
    if jets.chart != desc.chart:
        raise SchemaMismatch(f"jet chart {jets.chart!r}, descriptor wants {desc.chart!r}")
    if jets.order != desc.order:
        raise SchemaMismatch(f"jet order {jets.order}, descriptor wants {desc.order}")
    if jets.n != desc.geometry.n:
        raise SchemaMismatch("jet and descriptor dimension differ")
    H = jets.hess[:, _matrix_gather(jets.n)]
    skipped: dict = {}

    def pick_leaf() -> np.ndarray:
        # the normalized jet has hess = 2 eps, so the pick norm against eps
        # is 8 pick_norm(hess, C0) = 8 Q / det^3
        lams, V = np.linalg.eigh(H) if spectrum is None else spectrum
        det, degenerate = hessian_dets(lams)
        skipped.update(degenerate)
        out = 8.0 * pick_numerators(adjugates(lams, V), jets.cubic[:, _cubic_gather(jets.n)]) / pow_rows(det, 3)
        out[list(degenerate)] = np.nan  # computed like the others: no row reads another
        return out

    makers = {"lam": lambda: eigenvalues(jets.grad, H), "tau": lambda: shape_matrix(jets.grad, H),
              "tauring": lambda: tracefree_shape(jets.grad, H), "pick": pick_leaf}
    cache: dict = {}

    def leaf_value(e: Expr) -> np.ndarray:
        if e.op not in desc.geometry.facts.leaves:
            raise InvalidExpr(f"leaf {e.op!r} unexpected here")
        key = "lam" if e.op == "sigma" else e.op
        if key not in cache:
            cache[key] = makers[key]()
        if e.op in ("tau", "tauring"):
            return tau_d(cache[key], e.index)
        if e.op == "sigma":
            return elementary_symmetric(cache[key], e.index)
        return cache[key][:, e.index - 1] if e.op == "lam" else cache[key]

    with np.errstate(all="ignore"):
        out = _eval_tree(desc.expr, leaf_value)
    return (out if isinstance(out, np.ndarray) else np.full(len(jets), out)), skipped


def residual(desc: PdeDescriptor, j: GraphJet) -> float:
    """Scalar whose vanishing says the jet solves the PDE: the batch of one
    of :func:`residuals`, raising its skip."""
    values, skipped = residuals(desc, JetBatch.one(j))
    if skipped:
        raise skipped[0]
    return float(values[0])


def residual_via_normalization(desc: PdeDescriptor, j: GraphJet) -> float:
    """Independent moving-frame route: normalize the jet to the origin, then
    read the expression off the normal form.

    Euclidean: :func:`residual` at the normal form, where grad = 0 and h = I.
    Affine/projective: the pick norm of the trace-free normalized cubic
    against eps = diag(1_d, -1_{n-d}).
    """
    if not desc.geometry.facts.normal_form:
        raise SchemaMismatch(f"normalization route is not defined for {desc.geometry.name} descriptors")
    if j.chart != desc.chart or j.order != desc.order:
        raise SchemaMismatch("jet does not match descriptor")
    res = normalize_to_origin(desc.geometry, j)
    if res.signature is not None:
        eps = res.signature.metric()
        value = pick_norm(eps, tracefree_cubic(eps, res.jet.cubic))
        return _eval_tree(desc.expr, lambda e: value)  # pick is the only leaf
    return residual(desc, res.jet)


_LEAF_DEGREES = {"const": 0, "lam": 1, "pick": 2}  # sigma, tau and tauring: their index
_NODE_DEGREES = {"add": max, "sub": max, "mul": operator.add, "div": lambda a, b: max(a - b, 0)}


def homogeneity_degree(e: Expr) -> int:
    """Degree of the residual in the top-order jet data (for scale-free
    defect normalization)."""
    return _fold(e, lambda e: _LEAF_DEGREES.get(e.op, e.index),
                 lambda e, d: d[0] * e.index if e.op == "pow" else _NODE_DEGREES[e.op](*d))


_LINE_LEAF_DEGREES = {"const": 0, "lam": None, "sigma": 1, "pick": 2}  # tau and tauring: their index
_LINE_NODE_DEGREES = {"add": max, "sub": max, "mul": operator.add}


def line_degree(e: Expr) -> int | None:
    """Degree of the residual as a polynomial along the samplers' lines, or
    None where it is no polynomial (``lam``, ``div``).  Along the last
    Hessian entry S = h hess moves by a rank-one term, so each minor of S,
    and each ``sigma``, is affine, and ``tau``/``tauring`` of index d have
    degree d; along the last cubic coefficient ``pick`` is quadratic."""

    def node(e: Expr, d):
        if None in d or e.op == "div":
            return None
        return d[0] * e.index if e.op == "pow" else _LINE_NODE_DEGREES[e.op](*d)

    return _fold(e, lambda e: _LINE_LEAF_DEGREES.get(e.op, e.index), node)


# -- exact polynomial expansion -------------------------------------------------

EUCLID_VARS = ("u_x", "u_y", "u_xx", "u_xy", "u_yy")
AFFINE_VARS = ("u_xx", "u_xy", "u_yy", "u_xxx", "u_xxy", "u_xyy", "u_yyy")


@dataclasses.dataclass(frozen=True)
class ExpandedPolynomial:
    vars: tuple[str, ...]
    monomials: dict
    rho_power: int

    def evaluate(self, values) -> float:
        return Poly(len(self.vars), self.monomials).evaluate(values)


def _rho_poly() -> Poly:
    ux, uy = Poly.var(5, 0), Poly.var(5, 1)
    return Poly.const(5, 1) + ux * ux + uy * uy


def _numerator_matrix() -> list[list[Poly]]:
    """(rho I - grad grad^T) @ hess as exact polynomials (= rho^2 S)."""
    ux, uy = Poly.var(5, 0), Poly.var(5, 1)
    uxx, uxy, uyy = Poly.var(5, 2), Poly.var(5, 3), Poly.var(5, 4)
    rho = _rho_poly()
    m = [[rho - ux * ux, -(ux * uy)], [-(ux * uy), rho - uy * uy]]
    h = [[uxx, uxy], [uxy, uyy]]
    return [
        [m[i][0] * h[0][jv] + m[i][1] * h[1][jv] for jv in range(2)]
        for i in range(2)
    ]


def _euclidean_leaf(e: Expr) -> tuple[Poly, int]:
    """tau_d and sigma_i (n = 2) over EUCLID_VARS as (numerator, rho power)."""
    if e.op == "tau":
        M = _numerator_matrix()
        P = [[Poly.const(5, 1), Poly.const(5, 0)], [Poly.const(5, 0), Poly.const(5, 1)]]
        for _ in range(e.index):
            P = [
                [P[i][0] * M[0][jv] + P[i][1] * M[1][jv] for jv in range(2)]
                for i in range(2)
            ]
        return P[0][0] + P[1][1], 2 * e.index
    if e.op == "sigma":  # Newton's identities: sigma_1 = tau_1, sigma_2 = (tau_1^2 - tau_2) / 2
        return _expand(tau(1) if e.index == 1 else (tau(1) ** 2 - tau(2)) * 0.5, _euclidean_leaf, 5)
    raise NotPolynomial(f"leaf {e.op!r} has no polynomial expansion here")


def _expand(e: Expr, leaf, nvars: int) -> tuple[Poly, int]:
    """Value of the expression as (numerator, rho power), the leaves
    expanded by ``leaf``."""

    def leaf_part(e: Expr) -> tuple[Poly, int]:
        if e.op != "const":
            return leaf(e)
        if not np.isfinite(e.value):
            raise NotPolynomial(f"constant {e.value} has no polynomial expansion")
        return Poly.const(nvars, Fraction(e.value).limit_denominator(10**12)), 0

    def node_part(e: Expr, parts) -> tuple[Poly, int]:
        if e.op == "div":
            raise NotPolynomial("quotient expressions have no polynomial expansion")
        if e.op == "pow":
            return parts[0][0] ** e.index, parts[0][1] * e.index
        (p1, m1), (p2, m2) = parts
        if e.op == "mul":
            return p1 * p2, m1 + m2
        m = max(m1, m2)
        p1 = p1 * _rho_poly() ** (m - m1) if m > m1 else p1
        p2 = p2 * _rho_poly() ** (m - m2) if m > m2 else p2
        return (p1 + p2, m) if e.op == "add" else (p1 - p2, m)

    return _fold(e, leaf_part, node_part)


def expand_polynomial(desc: PdeDescriptor) -> ExpandedPolynomial:
    """Exact polynomial form of the PDE with rho-denominators cleared.

    Euclidean (n = 2): returns P with P = rho**rho_power * residual.
    Affine (n = 2): a pick leaf expands to the 13-term third-order
    polynomial F_aff3 whose zero set the pick residual defines (the
    residual is 2 F_aff3 / det(hess)**3; only zero sets match).
    """
    name = desc.geometry.name
    if name not in ("euclidean", "affine"):
        raise NotPolynomial(f"no polynomial expansion for {name} residuals")
    if desc.geometry.n != 2:
        raise NotPolynomial(f"{name} expansion implemented for n = 2 only")
    if name == "affine":
        # pick, the only affine leaf, is the 13-term table over AFFINE_VARS
        poly, _ = _expand(desc.expr, lambda e: (Poly(7, F_AFF3_MONOMIALS), 0), 7)
        return ExpandedPolynomial(AFFINE_VARS, dict(poly.terms), 0)
    poly, power = _expand(desc.expr, _euclidean_leaf, 5)
    rho = _rho_poly()
    while power > 0:
        q = poly.divide_exact(rho)
        if q is None:
            break
        poly, power = q, power - 1
    return ExpandedPolynomial(EUCLID_VARS, dict(poly.terms), power)


# -- serialization --------------------------------------------------------------


def _record(e: Expr, args=None) -> dict:
    out = {"op": e.op, "value": e.value} if e.op == "const" else {"op": e.op}
    if e.op in INDEXED:
        out["index"] = e.index
    return out if args is None else {**out, "args": args}


def expr_to_json(e: Expr) -> dict:
    return _fold(e, _record, _record)


def expr_from_json(d: dict) -> Expr:
    """The expression of a record; every node keeps the ``args`` it carries,
    so that :func:`build` rejects a wrong number of them.  A record nested
    past the interpreter's recursion limit is a schema mismatch too."""
    try:
        op = d["op"]
        if op not in LEAVES and op not in NODES:
            raise SchemaMismatch(f"unknown op {op!r}")
        args = tuple(expr_from_json(a) for a in d.get("args", ()))
        return Expr(op, value=float(d["value"]) if op == "const" else 0.0,
                    index=integer_field(d, "index") if op in INDEXED else 0, args=args)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"bad expression record: {exc}") from exc


def descriptor_to_json(desc: PdeDescriptor) -> dict:
    return {
        "geometry": desc.geometry.name,
        "n": desc.geometry.n,
        "order": desc.order,
        "expr": expr_to_json(desc.expr),
        "chart": desc.chart,
    }


def descriptor_from_json(d: dict) -> PdeDescriptor:
    try:
        tag = GeometryTag(d["geometry"], integer_field(d, "n"))
        desc = build(tag, expr_from_json(d["expr"]))
        if desc.order != integer_field(d, "order") or desc.chart != d["chart"]:
            raise SchemaMismatch("order/chart inconsistent with geometry")
        return desc
    except (KeyError, TypeError, ValueError, InvalidExpr) as exc:
        raise SchemaMismatch(f"bad descriptor record: {exc}") from exc


def expanded_to_json(p: ExpandedPolynomial) -> dict:
    return {
        "vars": list(p.vars),
        "monomials": [
            {"exps": list(e), "coef": float(c)}
            for e, c in sorted(p.monomials.items(), reverse=True)
        ],
        "rho_power": p.rho_power,
    }


def emit(desc: PdeDescriptor, fmt: str) -> str:
    """Serialized descriptor (json) or expanded-polynomial LaTeX (latex)."""
    if fmt == "json":
        return json.dumps(descriptor_to_json(desc), sort_keys=True, indent=2)
    if fmt == "latex":
        return latex_polynomial(expand_polynomial(desc))
    raise SchemaMismatch(f"unknown emit format {fmt!r}")


def _latex_var(name: str, power: int) -> str:
    sub = name[2:]
    core = f"u_{sub}" if len(sub) == 1 else f"u_{{{sub}}}"
    return core if power == 1 else f"{core}^{power}"


def _latex_monomial(vars_, exps) -> str:
    return "".join(_latex_var(v, a) for v, a in zip(vars_, exps) if a)


def latex_polynomial(p: ExpandedPolynomial) -> str:
    """Grouped LaTeX: monomials sharing top-order factors are collected,
    with the lower-order factor parenthesized (e.g. ``(1+u_y^2)u_{xx}``)."""
    lower_count = sum(1 for v in p.vars if len(v) == 3)  # u_x, u_y
    groups: dict[tuple, dict] = {}
    for exps, c in p.monomials.items():
        top = exps[lower_count:]
        low = exps[:lower_count]
        groups.setdefault(top, {})[low] = c

    ordered = sorted(groups, key=lambda t: tuple(-a for a in t))
    pieces = []
    for top in ordered:
        low_terms = groups[top]
        top_str = _latex_monomial(p.vars[lower_count:], top)
        zero_low = (0,) * lower_count
        if len(low_terms) == 1:
            ((low, c),) = low_terms.items()
            body = _latex_monomial(p.vars[:lower_count], low)
            mag = abs(c)
            coef = "" if mag == 1 and (body or top_str) else f"{mag}"
            piece = f"{coef}{body}{top_str}"
            sign = "-" if c < 0 else "+"
        else:
            inner = []
            for low in sorted(low_terms, key=lambda t: (sum(t), t)):
                c = low_terms[low]
                body = _latex_monomial(p.vars[:lower_count], low) or "1"
                mag = abs(c)
                term = body if mag == 1 and low != zero_low else (
                    f"{mag}" if low == zero_low and body == "1" else f"{mag}{body}"
                )
                inner.append(("-" if c < 0 else "+") + term)
            joined = "".join(inner).lstrip("+")
            piece = f"({joined}){top_str}"
            sign = "+"
        pieces.append((sign, piece))

    out = ""
    for i, (sign, piece) in enumerate(pieces):
        if i == 0:
            out = piece if sign == "+" else f"-{piece}"
        else:
            out += f" {sign} {piece}"
    return out or "0"
