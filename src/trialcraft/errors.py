"""Exception taxonomy.

Three broad classes map onto the CLI exit codes: ConfigError (2),
DataError (3), EstimationError (4). Everything inherits TrialcraftError
so library users can catch one type.
"""


class TrialcraftError(Exception):
    """Base class for all trialcraft errors."""


class ConfigError(TrialcraftError):
    """Invalid or inconsistent configuration (plan, spec, flags)."""


class DataError(TrialcraftError):
    """The input data violates a precondition."""


class EstimationError(TrialcraftError):
    """A numerical procedure failed on otherwise valid inputs."""


# --- data layer ---------------------------------------------------------

class MalformedCsv(DataError):
    """A cell could not be parsed or the file structure is invalid."""


class ArmNotBinary(DataError):
    """The arm column contains values outside {0, 1}."""


class EmptyArm(DataError):
    """One of the two arms has no participants."""


class MissingOutcome(DataError):
    """Outcome (or arm) values are missing; only covariates may be missing."""


class AllMissingColumn(DataError):
    """A covariate column is entirely missing, so no mean exists to impute."""


class UnknownColumn(DataError):
    """A referenced column does not exist."""


class ColumnConflict(DataError):
    """A column is bound twice: as outcome, arm or covariate, or in the header."""


class TooManyFolds(ConfigError):
    """Requested fold count exceeds what the data supports."""


# --- model fitting ------------------------------------------------------

class Separation(EstimationError):
    """Logistic coefficients diverged; the ML solution does not exist."""


class Singular(EstimationError):
    """Rank-deficient weighted design matrix."""


class NonConvergence(EstimationError):
    """Iterative fit did not converge within the iteration budget."""


class DimensionMismatch(EstimationError):
    """Matrix/vector shapes are inconsistent with the fitted model."""


# --- estimators / variance ----------------------------------------------

class DegenerateFold(EstimationError):
    """A fold's empirical randomization probability is 0 or 1."""


class DegeneratePi(EstimationError):
    """Randomization probability outside (0, 1)."""


class DomainError(EstimationError):
    """Arm means fall outside the domain of the requested contrast."""


class LengthMismatch(EstimationError):
    """Aligned vectors have different lengths."""
