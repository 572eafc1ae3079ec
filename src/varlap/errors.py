"""Exception hierarchy for the varlap package, and the one rule for each
kind of argument: :func:`check_integer` for counts, dimensions and sizes,
:func:`is_real` for real numbers.  Neither takes a bool nor truncates, so
True is not read as 1 nor 7.9 as 7; each entry point passes the error
class it documents.
"""

import numbers


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


def is_real(value) -> bool:
    """True for a real number that is not a bool (numpy scalars included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(value, name: str, lo: int, hi: int | None = None,
                  error: type[VarlapError] = InvalidRange) -> int:
    """``value`` as an int if it is a non-bool integer (numpy's included)
    in lo..hi, hi None for no bound; else ``error`` naming ``name``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        n = int(value)
        if lo <= n and (hi is None or n <= hi):
            return n
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise error(f"{name} must be an integer {span}, got {value!r}")
