import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import piped, trial_csv_bytes
from trialcraft import data
from trialcraft.data import (
    FeatureExpansion,
    TrialDataset,
    expand_features,
    impute_missing,
    ingest_csv,
    make_folds,
)
from trialcraft.errors import (
    AllMissingColumn,
    ArmNotBinary,
    ColumnConflict,
    ConfigError,
    DataError,
    EmptyArm,
    MalformedCsv,
    MissingOutcome,
    TooManyFolds,
    UnknownColumn,
)


def write_csv(tmp_path, text, name="trial.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngestCsv:
    def test_four_row_file(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a\n1,1,0.5\n2,0,1.5\n3,1,2.5\n4,0,3.5\n")
        d = ingest_csv(path, "y", "z", ["a"])
        assert d.n == 4
        assert d.n_treated == 2 and d.n_control == 2
        assert d.column_names == ("a",)
        np.testing.assert_allclose(d.y, [1, 2, 3, 4])

    def test_arm_value_two_rejected(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a\n1,1,0\n2,2,0\n")
        with pytest.raises(ArmNotBinary):
            ingest_csv(path, "y", "z", ["a"])

    def test_single_arm_rejected(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a\n1,1,0\n2,1,0\n")
        with pytest.raises(EmptyArm):
            ingest_csv(path, "y", "z", ["a"])

    def test_missing_outcome_fatal(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a\n1,1,0\n,0,1\n")
        with pytest.raises(MissingOutcome):
            ingest_csv(path, "y", "z", ["a"])

    def test_unparseable_cell(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a\n1,1,zero\n2,0,1\n")
        with pytest.raises(MalformedCsv):
            ingest_csv(path, "y", "z", ["a"])

    @pytest.mark.parametrize("raw", [
        b"y,z,a\xff\n1,1,0\n2,0,1\n",  # in the header
        b"y,z,a\n1,1,0\n2,0,1\xff\n",  # in a bound cell
        b"y,z,a,b\n1,1,0,\xff\n2,0,1,x\n",  # in a column the plan does not bind
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, raw):
        path = tmp_path / "trial.csv"
        path.write_bytes(raw)
        with pytest.raises(MalformedCsv) as excinfo:
            ingest_csv(path, "y", "z", ["a"])
        assert str(excinfo.value) == f"{path}: the file is not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("name", ["missing.csv", "."])  # no file, and a directory
    def test_unreadable_path_is_a_data_error(self, tmp_path, name):
        with pytest.raises(DataError) as caught:
            ingest_csv(tmp_path / name, "y", "z", [])
        assert str(caught.value).startswith(f"{tmp_path / name}: cannot read the file (")

    def test_missing_column_in_header(self, tmp_path):
        path = write_csv(tmp_path, "y,z\n1,1\n2,0\n")
        with pytest.raises(UnknownColumn):
            ingest_csv(path, "y", "z", ["a"])

    def test_missing_covariates_kept_as_nan(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a,b\n1,1,,2\n2,0,NA,3\n3,1,1.5,4\n4,0,2.5,5\n")
        d = ingest_csv(path, "y", "z", ["a", "b"])
        assert np.isnan(d.x[0, 0]) and np.isnan(d.x[1, 0])
        assert np.all(np.isfinite(d.x[:, 1]))

    @pytest.mark.parametrize("header, covariates", [
        ("y,z,a,a", ["y", "a"]),  # the outcome leaks into the adjustment
        ("y,z,a", ["z", "a"]),
        ("y,z,a", ["a", "a"]),
        ("y,z,a,a", ["a"]),
        ("y,z,z,a", ["a"]),
    ])
    def test_column_bound_twice_rejected(self, tmp_path, header, covariates):
        width = header.count(",") + 1
        rows = "".join(",".join([str(i % 2)] * width) + "\n" for i in range(4))
        path = write_csv(tmp_path, header + "\n" + rows)
        with pytest.raises(ColumnConflict):
            ingest_csv(path, "y", "z", covariates)

    def test_unreferenced_duplicate_header_accepted(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a,b,b\n1,1,0.5,7,8\n2,0,1.5,7,8\n")
        d = ingest_csv(path, "y", "z", ["a"])
        np.testing.assert_allclose(d.x[:, 0], [0.5, 1.5])

    @pytest.mark.parametrize("text, error, message", [
        ("y,z,a\n1,1,0\n2,0\n3,1,1\n", MalformedCsv, "{path}: row 2 has 2 cells, expected 3"),
        ("y,z,a\n1,1,0\n2,0,1,5\n", MalformedCsv, "{path}: row 2 has 4 cells, expected 3"),
        ("y,z,a\n1,1,0\n\n2,0,1\n", MalformedCsv, "{path}: row 2 has 0 cells, expected 3"),
        ("", MalformedCsv, "{path}: file is empty"),
        ("y,z,a\n", MalformedCsv, "{path}: no data rows"),
        ("y,z,a", MalformedCsv, "{path}: no data rows"),
        ("y,z,a\n1,1,0\n2,,1\n", ArmNotBinary, "{path}: missing arm value in data row 2"),
        ("y,z,a\n1,1,0\n2, NA ,1\n", ArmNotBinary, "{path}: missing arm value in data row 2"),
        ("y,z,a\n1,1,0\n2,0.5,1\n", ArmNotBinary, "{path}: arm value 0.5 in data row 2 is not 0/1"),
        ("y,z,a\n1,1,0\nnan,0,1\n", MissingOutcome, "{path}: missing outcome in data row 2"),
        ("y,z,a\n1,1,0\nNA,0,1\n", MissingOutcome, "{path}: missing outcome in data row 2"),
        ("y,z,a\n1,1,0\n2,0,1.5.1\n", MalformedCsv, "cannot parse '1.5.1' in column 'a', data row 2"),
        ("y,z,a\n1,1,0\n2,0,1\n3,1,x\n2,0,1,1\n", MalformedCsv, "{path}: row 4 has 4 cells, expected 3"),
    ])
    def test_error_names_its_row(self, tmp_path, text, error, message):
        path = write_csv(tmp_path, text)
        with pytest.raises(error) as excinfo:
            ingest_csv(path, "y", "z", ["a"])
        assert str(excinfo.value) == message.format(path=path)

    def test_infinite_outcome_is_not_observed(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a\n1,1,0\ninf,0,1\n")
        with pytest.raises(MissingOutcome) as excinfo:
            ingest_csv(path, "y", "z", ["a"])
        assert str(excinfo.value) == "outcome and arm must be fully observed"

    @pytest.mark.parametrize("text", [
        "y,z,a,b\r\n1.5,1,0.25,NA\r\n2,0,,-3e2\r\n",  # CRLF line endings
        '"y","z","a","b"\n"1.5",1,"0.25","NA"\n2,"0","",-3e2\n',  # quoted cells
        "y,z,a,b\n1.5, 1 ,\t0.25 , NA \n2,0,  ,-3e2\n",  # padded cells and missing tokens
        "y,z,a,b\n1.5,1,0.25,NA\n2,0,,-3e2",  # no final newline
        "y,z,a,b\n1.5,1,0.2_5,NA\n2,0,,-3_0_0.0\n",  # underscores, as float() reads them
        # a quoted note whose line break and commas, split naively, make a row of their own
        'y,z,a,b,note\n1.5,1,0.25,NA,"see\n9,0,1,1,below"\n2,0,,-3e2,\n',
    ])
    def test_cells_read_as_float_reads_them(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        d = ingest_csv(path, "y", "z", ["a", "b"])
        np.testing.assert_array_equal(d.y, [1.5, 2.0])
        np.testing.assert_array_equal(d.z, [1.0, 0.0])
        np.testing.assert_array_equal(d.x, [[0.25, np.nan], [np.nan, -300.0]])

    def test_literal_non_finite_covariates_kept(self, tmp_path):
        path = write_csv(tmp_path, "y,z,a,b\n1,1,nan,inf\n2,0,-inf,-nan\n3,1,1_000,Infinity\n")
        d = ingest_csv(path, "y", "z", ["a", "b"])
        np.testing.assert_array_equal(d.x, [[np.nan, np.inf], [-np.inf, np.nan], [1000.0, np.inf]])
        assert np.signbit(d.x[1, 1]) and not np.signbit(d.x[0, 0])


PLAIN_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "NA", "nan", "-inf", "1e400", "-0.0", "0", "7"]),
)
ODD_CELLS = st.sampled_from([
    " NA ", "\tNA", " 1.5 ", "1_000", "-nan", "NAN", "-Infinity", '"2.5"', '"NA"', '"1,5"',
    "x", "1e", "#1", "0x1", "\x1c3", "\xa04", "\u20285", "1\x006", "\u0663",
])
ODD_ARMS = st.sampled_from(["1.0", " 1 ", '"0"', "2", "", "NA", "nan", "-0.0", "1e0"])


@st.composite
def csv_files(draw):
    """(text, covariate names) of a small CSV of exact floats and missing
    tokens, plain or with one or all of the things the per-cell reader must
    handle: odd or quoted cells, odd arms, quoted text, blank or ragged
    lines, CRLF."""
    kinds = ("cells", "arms", "ids", "lines", "crlf")
    odd = draw(st.sampled_from([(), (), *((kind,) for kind in kinds), kinds]))
    odd_cells, odd_arms, odd_ids, odd_lines, crlf = (kind in odd for kind in kinds)
    cells = st.one_of(PLAIN_CELLS, PLAIN_CELLS, ODD_CELLS) if odd_cells else PLAIN_CELLS
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    outcomes = st.one_of(finite, cells) if odd_cells else finite
    arms = st.sampled_from(["0", "1"])
    arms = st.one_of(arms, arms, arms, ODD_ARMS) if odd_arms else arms
    ids = ["p1", "", "é", "a b", "NA"] + ['"p,2"', '"p\n3"', "p\r4"] * odd_ids
    covariates = [f"x{j}" for j in range(draw(st.sampled_from([2, 3, 1, 0])))]
    header = ["y", "z", *covariates] + (["id"] if draw(st.booleans()) else [])
    lines = [",".join(header)]
    for _ in range(draw(st.sampled_from([4, 5, 6, 3, 2, 1, 0]))):
        row = [draw(outcomes), draw(arms), *(draw(cells) for _ in covariates)]
        if "id" in header:
            row.append(draw(st.sampled_from(ids)))
        layout = draw(st.sampled_from(["plain"] * 4 + ["short", "long", "blank"])) if odd_lines else "plain"
        if layout == "short":
            row.pop()
        elif layout == "long":
            row.append("1")
        lines.append("" if layout == "blank" else ",".join(row))
    newline = "\r\n" if crlf else "\n"
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), covariates


def read_outcome(path, covariates):
    """The arrays' bits and names that ingest_csv returns, or its exception."""
    try:
        d = ingest_csv(path, "y", "z", covariates)
    except Exception as exc:
        return type(exc), str(exc)
    return d.y.tobytes(), d.z.tobytes(), d.x.tobytes(), d.x.shape, d.column_names


@settings(max_examples=400)
@given(csv_files())
def test_fast_parse_matches_per_cell_reader(case):
    text, covariates = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trial.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = read_outcome(path, covariates)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_parse_fast", lambda *args: None)
            assert read_outcome(path, covariates) == fast


def test_plain_file_takes_the_fast_parse(tmp_path, monkeypatch):
    # the differential test above proves nothing if every file falls back
    path = write_csv(tmp_path, "y,z,a,b,id\n1.5,1,0.25,NA,p1\n2,0,,-3e2,\n")
    monkeypatch.setattr(data, "_parse_rows", None)
    d = ingest_csv(path, "y", "z", ["a", "b"])
    np.testing.assert_array_equal(d.x, [[0.25, np.nan], [np.nan, -300.0]])


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_piped_file_reads_as_the_file(tmp_path, quoted):
    # the fast and the per-cell reader both parse the one read of the pipe
    raw = trial_csv_bytes(quoted)
    path = tmp_path / "trial.csv"
    path.write_bytes(raw)
    from_file = read_outcome(path, ["a", "b"])
    assert from_file[3] == (5000, 2)
    with piped(raw) as pipe:
        assert read_outcome(pipe, ["a", "b"]) == from_file


class TestImputeMissing:
    def test_mean_impute_with_indicator(self):
        x = np.array([[1.0], [np.nan], [3.0], [2.0]])
        d = TrialDataset([1, 2, 3, 4], [1, 0, 1, 0], x, ("a",))
        out = impute_missing(d)
        np.testing.assert_allclose(out.x[:, 0], [1, 2, 3, 2])
        assert out.column_names == ("a", "a_missing")
        np.testing.assert_allclose(out.x[:, 1], [0, 1, 0, 0])

    def test_no_missing_returns_same_object(self):
        d = TrialDataset([1, 2], [1, 0], [[1.0], [2.0]], ("a",))
        assert impute_missing(d) is d

    def test_all_missing_column(self):
        x = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        d = TrialDataset([1, 2], [1, 0], x, ("a", "b"))
        with pytest.raises(AllMissingColumn):
            impute_missing(d)

    def test_imputation_is_arm_blind(self, rng):
        x = rng.standard_normal((20, 2))
        x[rng.uniform(size=20) < 0.3, 0] = np.nan
        x[0, 0] = np.nan  # ensure at least one missing cell
        y = rng.standard_normal(20)
        z = np.r_[np.ones(10), np.zeros(10)]
        a = impute_missing(TrialDataset(y, z, x, ("a", "b")))
        b = impute_missing(TrialDataset(y, rng.permutation(z), x, ("a", "b")))
        np.testing.assert_array_equal(a.x, b.x)
        assert a.column_names == b.column_names


class TestExpandFeatures:
    def test_polynomial_degree_two(self):
        d = TrialDataset([1, 2], [1, 0], [[2.0], [3.0]], ("a",))
        out = expand_features(d, FeatureExpansion(polynomial_degree=2))
        assert out.column_names == ("a", "a^2")
        np.testing.assert_allclose(out.x, [[2, 4], [3, 9]])

    def test_interaction_product(self):
        d = TrialDataset([1, 2], [1, 0], [[1.0, 3.0], [2.0, 4.0]], ("a", "b"))
        out = expand_features(d, FeatureExpansion(interactions=(("a", "b"),)))
        assert out.column_names == ("a", "b", "a:b")
        np.testing.assert_allclose(out.x[:, 2], [3, 8])

    def test_degree_one_no_interactions_is_identity(self):
        d = TrialDataset([1, 2], [1, 0], [[1.0, 3.0], [2.0, 4.0]], ("a", "b"))
        out = expand_features(d, FeatureExpansion())
        np.testing.assert_array_equal(out.x, d.x)
        assert out.column_names == d.column_names

    def test_unknown_column(self):
        d = TrialDataset([1, 2], [1, 0], [[1.0], [2.0]], ("a",))
        with pytest.raises(UnknownColumn, match="unknown column 'zzz'"):
            expand_features(d, FeatureExpansion(base_columns=("zzz",)))

    def test_unknown_interaction_column(self):
        d = TrialDataset([1, 2], [1, 0], [[1.0], [2.0]], ("a",))
        with pytest.raises(UnknownColumn, match="unknown column 'b'"):
            expand_features(d, FeatureExpansion(interactions=(("a", "b"),)))

    def test_forced_must_be_expanded(self):
        with pytest.raises(UnknownColumn, match="forced column 'b' is not among the expanded"):
            expand_features(
                TrialDataset([1, 2], [1, 0], [[1.0], [2.0]], ("a",)),
                FeatureExpansion(forced_columns=("b",)),
            )

    def test_pure_function_of_inputs(self, rng):
        x = rng.standard_normal((10, 2))
        spec = FeatureExpansion(polynomial_degree=3, interactions=(("x1", "x2"),))
        d = TrialDataset(rng.standard_normal(10), [1, 0] * 5, x, ("x1", "x2"))
        a = expand_features(d, spec)
        b = expand_features(d, spec)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.column_names == b.column_names == ("x1", "x2", "x1^2", "x1^3", "x2^2", "x2^3", "x1:x2")


def loop_folds(n, k, z, seed, stratified):
    """make_folds' assignment as a per-participant loop, the reference for
    the vectorized one: same generator calls, same order."""
    rng = np.random.default_rng(seed)
    assignments = np.zeros(n, dtype=int)
    if stratified:
        offset = 0
        for arm in (1, 0):
            idx = np.flatnonzero(np.asarray(z) == arm)
            for i, participant in enumerate(rng.permutation(idx)):
                assignments[participant] = (offset + i) % k + 1
            offset += idx.size
    else:
        for i, participant in enumerate(rng.permutation(n)):
            assignments[participant] = i % k + 1
    return assignments


class TestMakeFolds:
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("stratified", [False, True])
    def test_matches_loop_reference(self, k, stratified):
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(20, 200))
            z = (rng.uniform(size=n) < 0.4).astype(float)
            plan = make_folds(n, k, z, seed=seed, stratified=stratified)
            np.testing.assert_array_equal(plan.assignments, loop_folds(n, k, z, seed, stratified))

    def test_three_even_folds(self):
        plan = make_folds(6, 3, seed=1)
        sizes = [plan.fold_indices(k).size for k in (1, 2, 3)]
        assert sizes == [2, 2, 2]
        assert sorted(np.concatenate([plan.fold_indices(k) for k in (1, 2, 3)])) == list(range(6))

    def test_deterministic(self):
        a = make_folds(17, 4, seed=99)
        b = make_folds(17, 4, seed=99)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_stratified_balance(self):
        z = np.r_[np.ones(4), np.zeros(4)]
        plan = make_folds(8, 2, z, seed=5, stratified=True)
        for k in (1, 2):
            idx = plan.fold_indices(k)
            assert z[idx].sum() == 2 and (1 - z[idx]).sum() == 2

    def test_too_many_folds(self):
        with pytest.raises(TooManyFolds):
            make_folds(4, 5, seed=0)
        z = np.r_[np.ones(2), np.zeros(6)]
        with pytest.raises(TooManyFolds):
            make_folds(8, 3, z, seed=0, stratified=True)

    def test_k_below_two_rejected(self):
        with pytest.raises(ConfigError):
            make_folds(10, 1, seed=0)

    def test_partition_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(6, 60))
            k = int(rng.integers(2, min(n, 8)))
            stratified = bool(rng.integers(0, 2))
            z = (rng.uniform(size=n) < 0.5).astype(float)
            if stratified and min(z.sum(), n - z.sum()) < k:
                stratified = False
            plan = make_folds(n, k, z, seed=int(rng.integers(1 << 30)), stratified=stratified)
            united = np.sort(np.concatenate([plan.fold_indices(j) for j in range(1, k + 1)]))
            np.testing.assert_array_equal(united, np.arange(n))
            sizes = np.array([plan.fold_indices(j).size for j in range(1, k + 1)])
            assert sizes.max() - sizes.min() <= 1
