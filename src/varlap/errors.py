"""Exception hierarchy for the varlap package."""


class VarlapError(Exception):
    """Base class for all varlap errors."""


class InvalidDim(VarlapError):
    """Dimension or size outside the supported range."""


class InvalidBox(VarlapError):
    """Degenerate or inconsistent domain box."""


class OrderOutOfRange(VarlapError):
    """Fractional order outside (0, 2]."""


class EmptyDomain(VarlapError):
    """Domain mask selects no node."""


class QuadratureTooCoarse(VarlapError):
    """Quadrature size too small for the target grid."""


class GridMismatch(VarlapError):
    """Operands live on different grids."""


class PlanMissing(VarlapError):
    """Fast apply requested without a rank plan."""


class SizeMismatch(VarlapError):
    """Array shapes inconsistent with the kernel or grid."""


class InvalidRange(VarlapError):
    """Bad interpolation interval."""


class OutOfRange(VarlapError):
    """Evaluation point outside the interpolation interval."""


class RankCapExceeded(VarlapError):
    """No rank within the cap meets the requested tolerance."""


class SolverFailure(VarlapError):
    """Krylov solve ended without an acceptable residual."""


class TailTooLarge(VarlapError):
    """Truncation radius too small for the requested tolerance."""


class QuadratureNonConvergent(VarlapError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NotNested(VarlapError):
    """Coarse grid nodes are not a subset of the fine grid nodes."""


class ConfigError(VarlapError):
    """Invalid experiment configuration."""
