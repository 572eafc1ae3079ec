"""Variable-order integral fractional Laplacian: discretization and solvers.

Second-order finite differences for the hypersingular-integral fractional
Laplacian with spatially varying order in 1D/2D/3D, a quasi-linear fast apply
through a Chebyshev low-rank split into constant-order Toeplitz operators,
BiCGSTAB-based elliptic and parabolic solvers, and reference oracles built on
the confluent hypergeometric function.
"""

from .errors import (
    ConfigError,
    EmptyDomain,
    GridMismatch,
    InvalidBox,
    InvalidDim,
    InvalidRange,
    NotNested,
    OrderOutOfRange,
    OutOfRange,
    PlanMissing,
    PoleInB,
    QuadratureNonConvergent,
    QuadratureTooCoarse,
    RangeExceeded,
    RankCapExceeded,
    SizeMismatch,
    SolverFailure,
    TailTooLarge,
    VarlapError,
)
from .grid import (
    DomainMask,
    GridFunction,
    OrderField,
    UniformGrid,
    build_grid,
    make_mask,
    sample_order,
)
from .lowrank import (
    ChebyshevPlan,
    build_plan,
    estimate_rank,
    eval_lagrange,
    rank_coefficients,
)
from .operator import (
    ConstantOrderKernel,
    VariableOrderOperator,
    operator_timing,
)
from .oracle import (
    gaussian_frac_lap,
    hyp1f1,
    integral_frac_lap,
    manufactured_rhs_case1,
    normalization_constant,
)
from .solver import (
    EllipticProblem,
    KrylovConfig,
    KrylovResult,
    TimeStepper,
    bicgstab,
    evolve,
    solve_elliptic,
    step_allen_cahn_three_level,
    step_crank_nicolson,
)
from .weights import (
    WeightTable,
    check_decay,
    default_quadrature_size,
    operator_block,
    symbol,
    weights_1d_closed_form,
    weights_nd_fft,
)

__version__ = "0.1.0"
