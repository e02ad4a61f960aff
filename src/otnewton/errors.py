"""Exception taxonomy for the solver library.

Every error raised by this package derives from :class:`OTNError` so callers
can catch solver failures without masking programming errors.  Errors that
are really bad inputs also derive from ``ValueError``.
"""

from __future__ import annotations


class OTNError(Exception):
    """Base class for all errors raised by this package.

    ``diagnostics`` is a dict of plain numbers, so it round-trips through
    ``json.dumps``, naming the quantity that broke; ``mdot`` adds the outer
    iteration and gamma to every error a projection raises.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class DimensionError(OTNError, ValueError):
    """Shapes of inputs are inconsistent or empty where data is required."""


class DomainError(OTNError, ValueError):
    """A numeric input is outside the mathematical domain of an operation."""


class ParseError(OTNError, ValueError):
    """A problem or config file is malformed; the message names the line."""


class PlanOverflowError(OTNError):
    """A log-domain plan entry would overflow exp(); signals a broken warm start."""


class ConditioningError(OTNError):
    """A linear system is numerically unusable (nonpositive preconditioner, breakdown)."""


class NonconvergenceError(OTNError):
    """An iteration budget was exhausted.

    Carries the best iterate found so far (when one exists), so callers can
    inspect or salvage a partial result.
    """

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message, diagnostics)
        self.best = best


class LineSearchError(OTNError):
    """Backtracking shrank the step below the minimum admissible size."""


class StagnationError(OTNError):
    """Discount annealing hit its cap without satisfying the forcing test.

    ``diagnostics`` names the discount reached and the residual against its
    target (L1 norms).
    """


class DegenerateInputError(OTNError, ValueError):
    """An input is degenerate for the requested operation (e.g. zero total mass)."""


class RefusalError(OTNError):
    """The requested problem size exceeds a guard for an exact/dense routine."""
