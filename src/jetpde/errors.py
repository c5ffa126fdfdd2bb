"""Exception taxonomy shared by all jetpde modules, and the integer check
of their JSON readers."""

import numbers


class JetError(Exception):
    """Base class for all jetpde errors."""


class DimensionMismatch(JetError):
    """Operands live over different numbers of variables."""


class OrderUnderflow(JetError):
    """An operation requires a higher truncation order than is stored."""


class SingularJacobian(JetError):
    """Linear part of a map is (numerically) non-invertible."""


class DivisionBySingular(JetError):
    """Division by a series whose constant term vanishes."""


class DegreeMismatch(JetError):
    """Fiber vector degree does not match the jet order."""


class ChartDomain(JetError):
    """A point (or its image) leaves the domain of the active chart."""


class NotGraph(JetError):
    """Transformed hypersurface is not locally a graph over the chart."""


class DegenerateHessian(JetError):
    """Second-order data lies on the locus det(u_ij) = 0."""


class WrongDimension(JetError):
    """Operation is only defined for a specific number of variables."""


class SingularMetric(JetError):
    """Reference metric is (numerically) non-invertible."""


class InvalidExpr(JetError):
    """Invariant expression is not admissible for the chosen geometry."""


class NotPolynomial(JetError):
    """Expression has no exact polynomial expansion in jet coordinates."""


class DivisionByZero(JetError):
    """A quotient node was evaluated at a vanishing denominator."""


class SchemaMismatch(JetError):
    """Serialized object or argument does not match the expected schema."""


def integer_field(d: dict, key: str) -> int:
    """``d[key]``, which must be an integer: a float (2.0 and Infinity too)
    or a bool is a SchemaMismatch."""
    if isinstance(d[key], bool) or not isinstance(d[key], numbers.Integral):
        raise SchemaMismatch(f"{key} must be an integer, got {d[key]!r}")
    return int(d[key])
