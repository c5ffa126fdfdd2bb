"""The fixed facts of the four geometries, one record each.

A geometry's chart, element shape, JSON key, PDE order, admissible leaves
and normal form are read from :data:`GEOMETRY` wherever they are needed;
the algorithms that differ between the groups stay with their modules.
"""

from __future__ import annotations

from typing import NamedTuple


class Geometry(NamedTuple):
    chart: str  # the chart of M the group acts on
    extra: int  # an element is an (n + extra) x (n + extra) matrix
    shifted: bool  # a shift b in R^{n+1} comes with the matrix
    json_key: str  # the matrix's key in an element record
    order: int  # the jet order k of its PDEs
    leaves: tuple[str, ...]  # the invariant leaves its expressions may use
    normal_form: bool  # whether jets normalize to the origin

    def size(self, n: int) -> int:
        return n + self.extra


GEOMETRY = {
    "euclidean": Geometry("euclidean", 1, True, "A", 2, ("const", "lam", "sigma", "tau"), True),
    "affine": Geometry("affine", 1, True, "A", 3, ("const", "pick"), True),
    "projective": Geometry("projective_affine_chart", 2, False, "P", 3, ("const", "pick"), True),
    "conformal": Geometry("sphere_stereographic", 3, False, "C", 2, ("const", "tauring"), False),
}

GEOMETRIES = tuple(GEOMETRY)
CHARTS = tuple(g.chart for g in GEOMETRY.values())
