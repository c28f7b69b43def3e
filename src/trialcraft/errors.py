"""Exception taxonomy, and the typed reader of JSON configuration.

Three broad classes map onto the CLI exit codes: ConfigError (2),
DataError (3), EstimationError (4). Everything inherits TrialcraftError
so library users can catch one type.

Plans, simulate specs and learner params are read into their dataclasses
by `_section`, which reads each field by its annotation with `_read`; the
dataclasses are the one statement of each field's name, type, default and
allowed values, and `_check` holds one built directly to the same rules.
"""
import enum
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
    """Matrix or vector shapes or lengths are inconsistent."""


# --- estimators / variance ----------------------------------------------

class DegenerateFold(EstimationError):
    """A fold's empirical randomization probability is 0 or 1."""


class DegeneratePi(EstimationError):
    """Randomization probability outside (0, 1)."""


class DomainError(EstimationError):
    """Arm means fall outside the domain of the requested contrast."""


# --- reading JSON configuration -----------------------------------------

@dataclass(frozen=True)
class AtLeast:
    """The lower bound of a number field, declared as `Annotated[int, AtLeast(0)]`."""

    low: float

    def holds(self, value) -> bool:
        return value >= self.low

    def __str__(self) -> str:
        return f">= {self.low}"


@dataclass(frozen=True)
class AtMost:
    """The upper bound of a number field, declared as `Annotated[int, AtMost(10)]`."""

    high: float

    def holds(self, value) -> bool:
        return value <= self.high

    def __str__(self) -> str:
        return f"<= {self.high}"


_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str, dict: dict}


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
    `Literal[a, b]` one of the values listed, of its type; an Enum a value
    its constructor takes; `Annotated[X, AtLeast(low), AtMost(high)]` an X
    within its bounds. Any other annotation is a TypeError: a field the
    reader cannot check is a fault of the program, not of the input."""
    json_types = _JSON_TYPES.get(annotation) if isinstance(annotation, type) else None
    if json_types is not None:
        if isinstance(value, json_types) and isinstance(value, bool) == (annotation is bool):
            try:
                return annotation(value)
            except OverflowError:  # an integer beyond the float range
                pass
        raise ConfigError(f"{where}: expected {annotation.__name__}, got {value!r}")
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (types.UnionType, typing.Union) and args[1:] == (type(None),):
        return None if value is None else _read(args[0], value, where)
    if origin is typing.Annotated:
        value = _read(args[0], value, where)
        for bound in args[1:]:
            if not bound.holds(value):
                raise ConfigError(f"{where}: expected {args[0].__name__} {bound}, got {value!r}")
        return value
    if origin is typing.Literal:
        if any(type(value) is type(option) and value == option for option in args):
            return value
        raise ConfigError(f"{where}: expected one of {', '.join(map(str, args))}, got {value!r}")
    if isinstance(annotation, enum.EnumMeta):
        try:
            return annotation(value)
        except (ValueError, TypeError):  # TypeError: a JSON list or object
            options = ", ".join(str(member.value) for member in annotation)
            raise ConfigError(f"{where}: expected one of {options}, got {value!r}") from None
    if is_dataclass(annotation):
        return _section(value, annotation, where)
    if origin is not tuple:
        raise TypeError(f"{where}: no JSON reading for the annotation {annotation!r}")
    if isinstance(value, (list, tuple)):
        kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(kinds) == len(value):
            return tuple(_read(k, item, where) for k, item in zip(kinds, value))
    raise ConfigError(f"{where}: expected {annotation}, got {value!r}")


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


def _check(obj) -> None:
    """The `__post_init__` of a dataclass also built directly, not from JSON:
    each field is read again by its annotation and holds what `_read` gives
    (a list becomes a tuple), so one annotation rules both ways in."""
    for name, (annotation, _) in _fields(type(obj)).items():
        object.__setattr__(obj, name, _read(annotation, getattr(obj, name), name))
