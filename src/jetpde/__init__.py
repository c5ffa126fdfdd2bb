"""Group-invariant PDEs on hypersurfaces.

Jets of graphs, prolonged point-transformation actions of the Euclidean,
conformal, affine and projective groups, the scalar differential
invariants they admit, and a builder turning invariant expressions into
evaluable PDE residuals with a sampling-based invariance harness.
"""

from .errors import (
    ChartDomain,
    DegenerateHessian,
    DegreeMismatch,
    DimensionMismatch,
    DivisionBySingular,
    DivisionByZero,
    InvalidExpr,
    JetError,
    NotGraph,
    NotPolynomial,
    OrderUnderflow,
    SchemaMismatch,
    SingularJacobian,
    SingularMetric,
    WrongDimension,
)
from .groups import (
    GeometryTag,
    GroupElement,
    Normalization,
    act_point,
    affine_element,
    compose_elements,
    conformal_element,
    euclidean_element,
    identity_element,
    inverse_element,
    normalize_to_origin,
    prolong,
    projective_element,
    random_element,
)
from .invariants import (
    F_aff3,
    Signature,
    chart_metric_h,
    conformal_discriminant,
    cubic_trace,
    eigenvalues,
    elementary_symmetric,
    pick_norm,
    pick_numerator,
    shape_matrix,
    sym_outer,
    tau_d,
    tracefree_cubic,
    tracefree_shape,
)
from .jetspace import (
    FiberVector,
    GraphJet,
    jet_extend,
    jet_from_json,
    jet_to_json,
    project,
    shift_fiber,
    to_poly,
)
from .pde import (
    Expr,
    PdeDescriptor,
    build,
    const,
    descriptor_from_json,
    descriptor_to_json,
    emit,
    expand_polynomial,
    lam,
    pick,
    residual,
    residual_via_normalization,
    sigma,
    tau,
    tauring,
)
from .symtensor import SymCubic, SymMatrix
from .taylor import TruncatedJet, add, compose, differentiate, divide, invert_map, mul
from .verify import (
    Report,
    SampleConfig,
    check_solution,
    invariance_report,
    sample_on_zero_set,
    solution_catalog,
)

__version__ = "0.1.0"
