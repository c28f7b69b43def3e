"""Exception taxonomy, and the typed reader of JSON configuration.

Three broad classes map onto the CLI exit codes: ConfigError (2),
DataError (3), EstimationError (4). Everything inherits TrialcraftError
so library users can catch one type.

Plans, simulate specs and learner params are read into their dataclasses
by `_section`, which reads each field by its annotation with `_read`; the
dataclasses are the one statement of each field's name, type and default.
"""
import functools
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass


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


# --- reading JSON configuration -----------------------------------------

@dataclass(frozen=True)
class AtLeast:
    """The lower bound of a number field, declared as `Annotated[int, AtLeast(0)]`."""

    low: float


@functools.cache
def _fields(cls) -> dict:
    """{name: (annotation, required)} of a dataclass's init fields; the
    annotations are resolved once per class, not once per read."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls) if f.init
    }


def _read(annotation, value, where: str):
    """`value` read as the JSON form of `annotation`, or a ConfigError naming
    the field `where`. int takes a JSON integer, float any JSON number, bool
    true or false, str a string (a boolean is never a number, nor a string
    a number); `X | None` takes null or an X; `tuple[X, ...]` and
    `tuple[X, Y]` take a JSON list of those; a dataclass takes a JSON object
    read by `_section`, and dict any JSON object, copied as it is;
    `Annotated[X, AtLeast(low)]` an X no less than low. Any other
    annotation is a TypeError: a field the reader cannot check is a fault of
    the program, not of the input."""
    kind, args = annotation, typing.get_args(annotation)
    if typing.get_origin(kind) is typing.Annotated:
        value, (base, bound) = _read(args[0], value, where), args
        if value < bound.low:
            raise ConfigError(f"{where}: expected {base.__name__} >= {bound.low}, got {value!r}")
        return value
    if typing.get_origin(kind) is types.UnionType and args[1:] == (type(None),):
        if value is None:
            return None
        kind, args = args[0], typing.get_args(args[0])
    if is_dataclass(kind):
        return _section(value, kind, where)
    if typing.get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(_read(k, item, where) for k, item in zip(kinds, value))
    elif kind in (int, float, bool, str, dict):
        json_types = (int, float) if kind is float else kind
        if isinstance(value, json_types) and isinstance(value, bool) == (kind is bool):
            try:
                return kind(value)
            except OverflowError:  # an integer beyond the float range
                pass
    else:
        raise TypeError(f"{where}: no JSON reading for the annotation {annotation!r}")
    shown = annotation.__name__ if isinstance(annotation, type) else annotation
    raise ConfigError(f"{where}: expected {shown}, got {value!r}")


def _section(obj, cls, where: str, **defaults):
    """A `cls` built from the JSON object `obj`: each key names an init field
    and is read by its annotation, `defaults` fill fields `obj` leaves out,
    and the class's own defaults the rest. A ConfigError from the class's
    `__post_init__` is prefixed with `where`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
    spec = _fields(cls)
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = defaults | {key: _read(spec[key][0], v, f"{where}.{key}") for key, v in obj.items()}
    for name, (_, required) in spec.items():
        if required and name not in values:
            raise ConfigError(f"{where}.{name}: required")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
