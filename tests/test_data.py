import numpy as np
import pytest

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
        with pytest.raises(UnknownColumn):
            expand_features(d, FeatureExpansion(base_columns=("zzz",)))

    def test_forced_must_be_expanded(self):
        with pytest.raises(UnknownColumn):
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
