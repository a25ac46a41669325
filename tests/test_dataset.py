import dataclasses
import functools
import re
import tracemalloc
from unittest import mock

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

    def test_frozen_record_of_copies(self):
        # building a dataset used to freeze the caller's arrays in place
        x, t, y = np.ones((3, 2)), np.array([0, 1, 1]), np.zeros(3)
        ds = ObservationalDataset(x, t, y, names=["a", "b"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.outcome = np.ones(3)
        assert not any(a.flags.writeable
                       for a in (ds.covariates, ds.treatment, ds.outcome))
        assert all(a.flags.writeable for a in (x, t, y))
        x[0, 0], t[0], y[0] = 5.0, 1, 7.0
        assert ds.covariates[0, 0] == 1.0 and ds.treatment[0] == 0
        assert ds.outcome[0] == 0.0 and ds.names == ("a", "b")
        # equality and hashing stay by identity
        assert ds == ds and ds != ObservationalDataset(x, t, y)
        assert hash(ds) == object.__hash__(ds)

    @pytest.mark.parametrize("x, t", [
        (np.array([0.1, 0.2, 0.3]), [1]),  # used to be 1 unit, 3 covariates
        (np.array([0.1, 0.2, 0.3]), [1, 0, 1]),  # "lengths disagree"
        (np.zeros((3, 1, 1)), [1, 0, 1]),  # "too many values to unpack"
    ])
    def test_rejects_covariates_not_2d(self, x, t):
        with pytest.raises(ValueError,
                           match=re.escape(f"covariates of shape {x.shape}")):
            ObservationalDataset(x, t, np.zeros(len(t)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths disagree"):
            ObservationalDataset(np.zeros((3, 2)), [1, 0], np.zeros(3))
        with pytest.raises(ValueError, match="lengths disagree"):
            ObservationalDataset(np.zeros((3, 2)), [1, 0, 1], np.zeros(4))

    def test_rejects_name_count(self):
        with pytest.raises(ValueError, match="name count"):
            ObservationalDataset(np.zeros((3, 2)), [1, 0, 1], np.zeros(3),
                                 names=["a"])

    def test_subset_preserves_order(self):
        ds = make_ds()
        sub = ds.subset([4, 1])
        assert np.array_equal(sub.outcome, ds.outcome[[4, 1]])

    def test_subset_copies_its_rows_once(self):
        # the rows of a checked dataset skip the constructor's second copy
        rng = np.random.default_rng(0)
        ds = ObservationalDataset(rng.normal(size=(3000, 20)),
                                  rng.integers(0, 2, size=3000),
                                  rng.normal(size=3000), names=range(20))
        idx = np.arange(0, 3000, 2)
        tracemalloc.start()
        sub = ds.subset(idx)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        arrays = (sub.covariates, sub.treatment, sub.outcome)
        assert peak < 1.3 * sum(a.nbytes for a in arrays)
        for a, full in zip(arrays, (ds.covariates, ds.treatment, ds.outcome)):
            assert a.dtype == full.dtype and not a.flags.writeable
            assert np.array_equal(a, full[idx])
        assert sub.names == ds.names and sub.n == 1500

    def test_ingest_copies_the_covariates_once(self, tmp_path):
        # beyond the parsed values, ingest holds one covariate block: the
        # column copy that the dataset keeps
        rng = np.random.default_rng(1)
        path = tmp_path / "d.csv"
        emit_csv(ObservationalDataset(rng.normal(size=(3000, 20)),
                                      rng.integers(0, 2, size=3000),
                                      rng.normal(size=3000)), path)
        parsed = dataset._read(path, dataset._dataset_columns)
        with mock.patch.object(dataset, "_read", return_value=parsed):
            tracemalloc.start()
            ds = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1.3 * ds.covariates.nbytes
        assert ds.covariates.flags.c_contiguous
        assert not ds.covariates.flags.writeable
        assert np.array_equal(ds.covariates, parsed[1][:, :20])
        assert np.array_equal(ds.outcome, parsed[1][:, 21])


# both readers; the target reader takes the data's covariate names
_READERS = [ingest_csv,
            pytest.param(functools.partial(ingest_covariates, names=["x1"]),
                         id="ingest_covariates")]


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

    @pytest.mark.parametrize("reader", _READERS)
    def test_empty_file_refused(self, reader, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file: no header row"):
            reader(path)

    def test_empty_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,t,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path)

    @pytest.mark.parametrize("header, name", [("x1,x1,t,y", "x1"),
                                              ("x1,t,t,y", "t")])
    @pytest.mark.parametrize("reader", _READERS)
    def test_repeated_column_name_refused(self, reader, header, name,
                                          tmp_path):
        # a second `x1` used to be read twice in place of the first, a
        # second `t` to replace the first
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1,2,1,0.5\n3,4,0,0.7\n")
        with pytest.raises(ValueError,
                           match=f"repeated column name '{name}'"):
            reader(path)

    @pytest.mark.parametrize("text", ["a,t,b,y\n0.5,1,2.0,1.0\n",
                                      "a,b\n0.5,2.0\n",
                                      "b,t,a,y\n2.0,1,0.5,1.0\n",
                                      "b,a\n2.0,0.5\n"])
    def test_target_covariates_read_once(self, text, tmp_path, monkeypatch):
        # with `t`/`y` the file is also checked as a dataset, from the same
        # rows; columns are read by name, not position
        path = tmp_path / "target.csv"
        path.write_text(text)
        reads = []
        monkeypatch.setattr(dataset, "open", lambda p, *args, **kwargs:
                            reads.append(p) or open(p, *args, **kwargs),
                            raising=False)
        assert ingest_covariates(path, ["a", "b"]).tolist() == [[0.5, 2.0]]
        assert reads == [path]

    @pytest.mark.parametrize("text, fallback", [
        ("x1,t,y\n0.5,1,2.0\n0.25,0,1.0\n", 0),
        ("x1,t,y\n0.5,1,2.0\r0.25,0,1.0\r\n", 1),  # mixed line ends
    ])
    @pytest.mark.parametrize("reader", _READERS)
    def test_file_opened_once(self, reader, text, fallback, tmp_path,
                              monkeypatch):
        # the row-by-row pass reads the text already read, not the file
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        reads = []
        monkeypatch.setattr(dataset, "open", lambda p, *args, **kwargs:
                            reads.append(p) or open(p, *args, **kwargs),
                            raising=False)
        with mock.patch.object(dataset, "_float_rows",
                               wraps=dataset._float_rows) as slow:
            got = reader(path)
        assert reads == [path] and slow.call_count == fallback
        x = got.covariates if isinstance(got, ObservationalDataset) else got
        assert x.tolist() == [[0.5], [0.25]]

    @pytest.mark.parametrize("reader", _READERS)
    def test_unparsable_csv_refused(self, reader, tmp_path):
        # a field past the `csv` module's size limit used to escape as
        # `_csv.Error`
        path = tmp_path / "huge.csv"
        path.write_text(f"x1,t,y\n0.5,1,1.0\n{'9' * 200_000},1,1.0\n")
        with pytest.raises(ValueError, match="unreadable CSV at line 3"):
            reader(path)


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
