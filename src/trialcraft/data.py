"""Trial data substrate: ingestion, imputation, feature expansion, folds.

Everything here is a pure function of its inputs; datasets and fold plans
are immutable after construction.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice
from typing import Annotated

import numpy as np

from .errors import (
    AllMissingColumn,
    ArmNotBinary,
    AtLeast,
    ColumnConflict,
    ConfigError,
    DataError,
    EmptyArm,
    MalformedCsv,
    MissingOutcome,
    TooManyFolds,
    UnknownColumn,
    _check,
    _read,
)

MISSING_TOKENS = ("", "NA")
# the computed SD of a constant column is rounding noise of up to about
# n * 2e-17 times its value (2e-11 at a million rows), not 0
ZERO_VARIANCE_RTOL = 1e-9
# a partition needs two folds: every fold must have a complement to train on
FoldCount = Annotated[int, AtLeast(2)]


@dataclass(frozen=True)
class TrialDataset:
    """Outcomes, binary arm assignments and a covariate matrix.

    Covariates may contain NaN between ingestion and `impute_missing`;
    estimators require a complete matrix (see `check_complete`).
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        z = np.asarray(self.z, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise DataError("covariate matrix must be 2-dimensional")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        n = y.shape[0]
        if n < 2:
            raise DataError(f"need at least 2 participants, got {n}")
        if z.shape[0] != n or x.shape[0] != n:
            raise DataError("y, z and x must have the same number of rows")
        if len(self.column_names) != x.shape[1]:
            raise DataError("column_names must match the covariate count")
        if not np.all(np.isin(z, (0.0, 1.0))):
            raise ArmNotBinary("arm indicator must be 0 or 1")
        if z.sum() < 1 or (1 - z).sum() < 1:
            raise EmptyArm("both arms must be non-empty")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
            raise MissingOutcome("outcome and arm must be fully observed")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_treated(self) -> int:
        return int(self.z.sum())

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise UnknownColumn(f"unknown column {name!r}") from None

    def columns(self, names) -> np.ndarray:
        """Sub-matrix of the named covariates, in the given order."""
        idx = [self.column_index(name) for name in names]
        return self.x[:, idx]

    def with_covariates(self, x: np.ndarray, names) -> "TrialDataset":
        return TrialDataset(self.y, self.z, x, tuple(names))


def check_complete(d: TrialDataset) -> None:
    """Raise unless every covariate cell is finite (run impute_missing first)."""
    if not np.all(np.isfinite(d.x)):
        raise DataError(
            "covariate matrix contains missing values; run impute_missing first"
        )


def _parse_cell(text: str, row: int, col: str) -> float:
    token = text.strip()
    if token in MISSING_TOKENS:
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise MalformedCsv(
            f"cannot parse {text!r} in column {col!r}, data row {row}"
        ) from None


def _parse_fast(raw: bytes, width: int, usecols):
    """(y, z, x) of the bound columns `usecols` (outcome, arm, covariates)
    from one np.loadtxt call, or None unless the file is laid out plainly
    enough that the per-cell reader would read the same rows into the same
    floats: no quotes or carriage returns, every data line `width` cells, an
    observed finite outcome and a 0/1 arm.

    A missing token is rewritten to a NaN spelling loadtxt reads ("" to
    "nan", "NA" to "NAN"); loadtxt's float parser is float()'s, bit for bit,
    on every token it accepts, and rejects "1_000" and padded missing tokens,
    which send the file to the per-cell reader."""
    start = raw.find(b"\n") + 1
    if b'"' in raw or b"\r" in raw or start in (0, len(raw)):
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
    body = np.frombuffer(raw, np.uint8, offset=start)
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))  # each cell's delimiter
    rows = ends.size // width
    newline = body[ends] == ord("\n")
    if ends.size != rows * width or newline.sum() != rows or not newline[width - 1::width].all():
        return None
    starts = np.concatenate([[0], ends[:-1] + 1])
    pairs = starts[ends - starts == 2]
    na = pairs[(body[pairs] == ord("N")) & (body[pairs + 1] == ord("A"))] + 2
    empty = ends[ends == starts]
    body = np.insert(
        body,
        np.concatenate([np.repeat(empty, 3), na]),
        np.frombuffer(b"nan" * empty.size + b"N" * na.size, np.uint8),
    ).tobytes()
    try:  # a byte that is not UTF-8 is a UnicodeDecodeError, a ValueError
        cells = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, usecols=usecols,
                           ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    y, z, x = cells[:, 0], cells[:, 1], cells[:, 2:]
    if cells.shape[0] != rows or not np.isfinite(y).all() or not np.isin(z, (0.0, 1.0)).all():
        return None
    return y.copy(), z.copy(), x.copy()  # contiguous, as the per-cell reader's arrays


def _parse_rows(path, width: int, positions, outcome_col, arm_col, covariate_cols):
    """(y, z, x) cell by cell: every row's width is checked first, then the
    bound cells are parsed in row order, so an error names its row and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        n = 0
        for n, row in enumerate(islice(csv.reader(fh), 1, None), start=1):
            if len(row) != width:
                raise MalformedCsv(f"{path}: row {n} has {len(row)} cells, expected {width}")
        if n == 0:
            raise MalformedCsv(f"{path}: no data rows")
        fh.seek(0)
        y, z, x = np.empty(n), np.empty(n), np.empty((n, len(covariate_cols)))
        for r, row in enumerate(islice(csv.reader(fh), 1, None), start=1):
            yv = _parse_cell(row[positions[outcome_col]], r, outcome_col)
            if math.isnan(yv):
                raise MissingOutcome(f"{path}: missing outcome in data row {r}")
            zv = _parse_cell(row[positions[arm_col]], r, arm_col)
            if math.isnan(zv):
                raise ArmNotBinary(f"{path}: missing arm value in data row {r}")
            if zv not in (0.0, 1.0):
                raise ArmNotBinary(f"{path}: arm value {zv!r} in data row {r} is not 0/1")
            y[r - 1] = yv
            z[r - 1] = zv
            for j, col in enumerate(covariate_cols):
                x[r - 1, j] = _parse_cell(row[positions[col]], r, col)
    return y, z, x


def ingest_csv(path, outcome_col: str, arm_col: str, covariate_cols) -> TrialDataset:
    """Load a trial dataset from a UTF-8, comma-delimited CSV with a header.

    Cells may be quoted and padded with whitespace. Missing covariate cells
    (empty or "NA") are kept as NaN for `impute_missing`; a missing outcome
    or arm cell is fatal.
    """
    covariate_cols = list(covariate_cols)
    bound = [outcome_col, arm_col, *covariate_cols]
    if len(set(bound)) != len(bound):
        raise ColumnConflict(f"outcome, arm and covariates must be distinct columns: {bound}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            header = next(csv.reader(fh), None)
        if header is None:
            raise MalformedCsv(f"{path}: file is empty")
        header = [h.strip() for h in header]
        positions = {}
        for name in bound:
            if name not in header:
                raise UnknownColumn(f"{path}: column {name!r} not in header")
            if header.count(name) > 1:
                raise ColumnConflict(
                    f"{path}: column {name!r} appears more than once in the header")
            positions[name] = header.index(name)

        with open(path, "rb") as fh:
            raw = fh.read()
        parsed = _parse_fast(raw, len(header), [positions[name] for name in bound])
        if parsed is None:
            parsed = _parse_rows(path, len(header), positions, outcome_col, arm_col, covariate_cols)
    except UnicodeDecodeError as exc:  # from the header or the per-cell reader
        raise MalformedCsv(f"{path}: the file is not UTF-8 text ({exc.reason})") from None
    return TrialDataset(*parsed, tuple(covariate_cols))


def impute_missing(d: TrialDataset) -> TrialDataset:
    """Mean-impute missing covariates and append 0/1 missingness indicators.

    Imputation uses only the covariate column itself (never outcome or arm),
    so it is blind to treatment assignment by construction.
    """
    missing = ~np.isfinite(d.x)
    if not missing.any():
        return d
    x = d.x.copy()
    names = list(d.column_names)
    indicators = []
    indicator_names = []
    for j in range(d.p):
        col_missing = missing[:, j]
        if not col_missing.any():
            continue
        observed = x[~col_missing, j]
        if observed.size == 0:
            raise AllMissingColumn(f"column {names[j]!r} is entirely missing")
        x[col_missing, j] = observed.mean()
        indicators.append(col_missing.astype(float))
        indicator_names.append(f"{names[j]}_missing")
        if indicator_names[-1] in names:
            raise ColumnConflict(f"missingness indicator {indicator_names[-1]!r} is already a column")
    x = np.column_stack([x, *indicators])
    return d.with_covariates(x, tuple(names) + tuple(indicator_names))


@dataclass(frozen=True)
class FeatureExpansion:
    """Deterministic polynomial/interaction expansion of base covariates.

    `base_columns=None` means every dataset column. Expanded order: base
    columns, then per base column the powers 2..polynomial_degree, then the
    interaction products in listed order. `forced_columns` must name
    expanded columns; they bypass selection at the refit step.
    """

    base_columns: tuple[str, ...] | None = None
    interactions: tuple[tuple[str, str], ...] = ()
    polynomial_degree: Annotated[int, AtLeast(1)] = 1
    forced_columns: tuple[str, ...] = ()

    __post_init__ = _check


def expand_features(d: TrialDataset, spec: FeatureExpansion) -> TrialDataset:
    """Apply a FeatureExpansion; pure function of (x, spec), stable order."""
    base = spec.base_columns if spec.base_columns is not None else d.column_names
    terms = [(name, d.x[:, d.column_index(name)]) for name in base]
    for name, col in terms[:]:
        for degree in range(2, spec.polynomial_degree + 1):
            terms.append((f"{name}^{degree}", col**degree))
    for a, b in spec.interactions:
        terms.append((f"{a}:{b}", d.x[:, d.column_index(a)] * d.x[:, d.column_index(b)]))
    names = tuple(name for name, _ in terms)
    if len(set(names)) < len(names):  # a covariate named like a term (a and a^2 at degree 2)
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ColumnConflict(f"expanded column {repeated!r} is named twice")
    for name in spec.forced_columns:
        if name not in names:
            raise UnknownColumn(f"forced column {name!r} is not among the expanded columns")
    return d.with_covariates(np.column_stack([col for _, col in terms]), names)


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic K-fold partition of participant indices.

    Fold labels are 1..k. Sizes differ by at most one overall; when
    stratified by arm, by at most one within each arm.
    """

    assignments: np.ndarray
    k: int
    seed: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assignments, dtype=int)
        object.__setattr__(self, "assignments", a)
        if a.min() < 1 or a.max() > self.k:
            raise ConfigError("fold labels must lie in 1..k")
        counts = np.bincount(a, minlength=self.k + 1)[1:]
        if counts.min() == 0:
            raise ConfigError("every fold must be non-empty")

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def fold_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == k)

    def complement_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != k)


def _zero_variance(means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """Columns whose SD is negligible against their own mean. A constant
    column's SD is rounding noise, not 0, unless its value is exact in binary."""
    return sds <= ZERO_VARIANCE_RTOL * np.abs(means)


def derived_seed(ss: np.random.SeedSequence) -> int:
    """A non-negative 63-bit integer seed drawn from a seed sequence."""
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def make_folds(
    n: int,
    k: int,
    z: np.ndarray | None = None,
    seed: int = 0,
    stratified: bool = False,
) -> FoldPlan:
    """Seeded shuffle then round-robin assignment; balanced by construction."""
    _read(FoldCount, k, "fold count")
    if stratified:
        if z is None:
            raise ConfigError("stratified folds require the arm vector")
        z = np.asarray(z)
        smallest_arm = int(min(z.sum(), n - z.sum()))
        if k > smallest_arm:
            raise TooManyFolds(
                f"k={k} exceeds the smaller arm size {smallest_arm}"
            )
    elif k > n:
        raise TooManyFolds(f"k={k} exceeds n={n}")

    rng = np.random.default_rng(seed)
    assignments = np.zeros(n, dtype=int)
    if stratified:
        offset = 0
        for arm in (1, 0):
            perm = rng.permutation(np.flatnonzero(z == arm))
            assignments[perm] = (offset + np.arange(perm.size)) % k + 1
            offset += perm.size
    else:
        perm = rng.permutation(n)
        assignments[perm] = np.arange(n) % k + 1
    return FoldPlan(assignments, k, seed)
