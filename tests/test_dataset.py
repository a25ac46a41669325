import numpy as np
import pytest

from confsens import dataset
from confsens.dataset import (
    ObservationalDataset,
    arm_indices,
    emit_csv,
    ingest_covariates,
    ingest_csv,
    split,
)


def make_ds(n=10, p=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, p))
    t = rng.integers(0, 2, size=n)
    y = rng.normal(size=n)
    return ObservationalDataset(x, t, y)


class TestObservationalDataset:
    def test_shapes_and_immutability(self):
        ds = make_ds()
        assert ds.n == 10 and ds.covariate_dim == 3
        with pytest.raises(ValueError):
            ds.covariates[0, 0] = 99.0

    def test_rejects_non_binary_treatment(self):
        with pytest.raises(ValueError, match="treatment"):
            ObservationalDataset([[1.0], [2.0]], [0, 2], [0.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ObservationalDataset([[np.nan]], [1], [0.0])
        with pytest.raises(ValueError):
            ObservationalDataset([[1.0]], [1], [np.inf])

    def test_subset_preserves_order(self):
        ds = make_ds()
        sub = ds.subset([4, 1])
        assert np.array_equal(sub.outcome, ds.outcome[[4, 1]])


class TestCsvRoundTrip:
    def test_emit_ingest_exact(self, tmp_path):
        ds = make_ds(n=25)
        path = tmp_path / "data.csv"
        emit_csv(ds, path)
        back = ingest_csv(path)
        assert np.array_equal(back.covariates, ds.covariates)
        assert np.array_equal(back.treatment, ds.treatment)
        assert np.array_equal(back.outcome, ds.outcome)

    def test_missing_column_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t\n0.5,1\n")
        with pytest.raises(ValueError, match="missing columns"):
            ingest_csv(path)

    def test_malformed_row_names_offender(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1,1.0\n0.5,1,oops\n")
        with pytest.raises(ValueError, match="data row 2"):
            ingest_csv(path)

    def test_first_of_two_bad_rows_named(self, tmp_path):
        # row 2 is non-finite, row 3 malformed: the earlier row is reported
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1,1.0\n0.5,1,nan\n0.5,1,oops\n")
        with pytest.raises(ValueError, match="non-finite value in data row 2"):
            ingest_csv(path)
        path.write_text("x1,t,y\n0.5,1,1.0\n0.5,1,oops\n0.5,1,nan\n")
        with pytest.raises(ValueError, match="malformed value in data row 2"):
            ingest_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        # a long row used to be accepted silently, a short one reported as
        # a malformed value
        path = tmp_path / "bad.csv"
        for row in ("0.5,1,1.0,9", "0.5,1"):
            path.write_text(f"x1,t,y\n0.5,1,1.0\n{row}\n")
            with pytest.raises(ValueError, match="data row 2 has"):
                ingest_csv(path)

    def test_default_schema_takes_other_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,t,b,y\n0.5,1,2.0,1.0\n")
        ds = ingest_csv(path)
        assert ds.names == ("a", "b")
        assert ds.covariates.tolist() == [[0.5, 2.0]]

    def test_no_covariate_column_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n1,1.0\n")
        with pytest.raises(ValueError, match="no covariate columns"):
            ingest_csv(path)

    def test_non_binary_treatment_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,0.3,1.0\n")
        with pytest.raises(ValueError, match="non-binary"):
            ingest_csv(path)

    def test_empty_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,t,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path)

    @pytest.mark.parametrize("text", ["a,t,b,y\n0.5,1,2.0,1.0\n",
                                      "a,b\n0.5,2.0\n"])
    def test_target_covariates_read_once(self, text, tmp_path, monkeypatch):
        # with `t`/`y` the file is also checked as a dataset, from the same
        # rows
        path = tmp_path / "target.csv"
        path.write_text(text)
        reads = []
        read_rows = dataset._read_rows
        monkeypatch.setattr(dataset, "_read_rows",
                            lambda p: reads.append(p) or read_rows(p))
        assert ingest_covariates(path).tolist() == [[0.5, 2.0]]
        assert reads == [path]


class TestSplit:
    def test_deterministic_and_disjoint(self):
        ds = make_ds(n=100)
        a = split(ds, seed=7)
        b = split(ds, seed=7)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1, s2)
        all_idx = np.concatenate(a)
        assert sorted(all_idx) == list(range(100))
        assert all(np.all(np.diff(s) > 0) for s in a)

    def test_sizes_floor_rule(self):
        prelim, cal = split(make_ds(n=11), seed=0)
        assert prelim.size == 5
        assert cal.size == 6


def test_arm_indices():
    ds = ObservationalDataset([[0.0], [1.0], [2.0]], [1, 0, 1], [0, 0, 0])
    assert np.array_equal(arm_indices(ds, 1), [0, 2])
    assert np.array_equal(arm_indices(ds, 0), [1])
    with pytest.raises(ValueError):
        arm_indices(ds, 2)
