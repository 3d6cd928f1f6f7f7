"""Exception hierarchy shared across the package."""


class LrbootError(Exception):
    """Base class for all package errors."""


class FitError(LrbootError):
    """Base class for model-fitting failures (droppable inside bootstrap loops)."""


class RankDeficient(FitError):
    """Design matrix is collinear."""


class SeparationDetected(FitError):
    """Binomial coefficients diverged past the separation bound."""


class NonConvergence(FitError):
    """Newton iterations hit the cap without meeting the score tolerance."""


class EmptyCategory(FitError):
    """Ordinal response is missing one of the 1..J categories."""


class InvalidData(LrbootError, ValueError):
    """Dataset fails validation (non-finite covariates, too few rows)."""


class DimensionMismatch(LrbootError):
    """Array shapes are inconsistent with the fitted design."""


class UnsupportedKind(LrbootError):
    """Residual kind is not defined for this family/link or operation."""


class DegenerateTruncation(LrbootError):
    """Truncation interval carries essentially no probability mass."""


class InvalidSize(LrbootError):
    """A size or count outside its range, such as a neighborhood size outside
    [1, n] or fewer than 100 pseudo-truth redraws."""


class IncompatibleResidual(LrbootError):
    """Bootstrap method's residual kind is incompatible with the model family."""


class TooManyFailures(LrbootError):
    """More than the tolerated share of bootstrap replicates failed to fit."""


class TooFewReplicates(LrbootError):
    """At least two bootstrap replicates are required."""


class MethodCannotRecreate(LrbootError):
    """Bootstrap method does not recreate responses, required for this criterion."""


class LengthMismatch(LrbootError):
    """Rank vectors have different lengths."""


class NotAPermutation(LrbootError):
    """Rank vector is not a permutation of 1..M."""


class UnknownScenario(LrbootError):
    """Scenario id is not registered."""


class ParseError(LrbootError):
    """CSV cell failed to parse; message carries the row/column location."""


class MissingColumn(LrbootError):
    """A configured column is absent from the input header."""


class AllRowsDropped(LrbootError):
    """Listwise deletion removed every row."""


class UsageError(LrbootError):
    """Bad command-line usage (exit code 1)."""
