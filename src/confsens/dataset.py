"""Data model for observational studies: units, the seeded halving, CSV I/O.

A dataset is a frozen collection of (covariates, binary treatment, outcome)
rows.  Treatments must be literal 0/1 and all numbers finite; missing values
are rejected rather than imputed.  This module is the package's one CSV
reader and writer: every file is UTF-8 with one header row.
"""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = [
    "ObservationalDataset",
    "ingest_csv",
    "ingest_covariates",
    "emit_csv",
    "write_csv",
    "split",
    "arm_indices",
]


class ObservationalDataset:
    """Immutable table of n units with p finite covariates each."""

    def __init__(self, covariates, treatment, outcome, names=None):
        covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
        treatment = np.asarray(treatment, dtype=float)
        outcome = np.asarray(outcome, dtype=float)
        n, p = covariates.shape
        if treatment.shape != (n,) or outcome.shape != (n,):
            raise ValueError("covariates, treatment, outcome lengths disagree")
        if not np.all(np.isfinite(covariates)):
            raise ValueError("non-finite covariate value")
        if not np.all(np.isfinite(outcome)):
            raise ValueError("non-finite outcome value")
        if not np.all((treatment == 0.0) | (treatment == 1.0)):
            bad = int(np.flatnonzero((treatment != 0.0) & (treatment != 1.0))[0])
            raise ValueError(f"treatment must be 0 or 1 (unit {bad})")
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != p:
                raise ValueError("covariate name count != covariate_dim")
        self._x = covariates
        self._t = treatment.astype(np.int64)
        self._y = outcome
        self._names = names
        for a in (self._x, self._t, self._y):
            a.setflags(write=False)

    @property
    def covariates(self):
        return self._x

    @property
    def treatment(self):
        return self._t

    @property
    def outcome(self):
        return self._y

    @property
    def names(self):
        return self._names

    @property
    def n(self):
        return self._x.shape[0]

    @property
    def covariate_dim(self):
        return self._x.shape[1]

    def subset(self, idx):
        """New dataset holding the given rows, order preserved."""
        idx = np.asarray(idx, dtype=np.int64)
        return ObservationalDataset(
            self._x[idx], self._t[idx], self._y[idx], names=self._names
        )

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"ObservationalDataset(n={self.n}, p={self.covariate_dim})"


def _read_rows(path):
    """Header and non-blank data rows of a UTF-8, header-row CSV, as
    strings, in one `csv.reader` pass."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file: no header row")
        return header, [row for row in reader if row]


def _float_rows(header, rows, binary=None):
    """`_read_rows` output as one (rows, columns) float array.  Every row
    must have the header's cell count and finite values, and column
    `binary` (an index) only 0 or 1.  One conversion covers all rows; only
    when a check fails does a row-by-row pass name the first offending
    1-based data row."""
    if not rows:
        raise ValueError("no data rows")
    try:  # a ragged row raises too
        values = np.array(rows, dtype=float)
    except ValueError:
        values = None
    if (values is not None and values.shape[1] == len(header)
            and np.isfinite(values).all()
            and (binary is None or np.isin(values[:, binary], (0, 1)).all())):
        return values
    parsed = []
    for rownum, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"data row {rownum} has {len(row)} cells, "
                             f"the header has {len(header)}")
        try:
            parsed.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"malformed value in data row {rownum}: "
                             f"{exc}") from None
        if binary is not None and parsed[-1][binary] not in (0.0, 1.0):
            raise ValueError(f"non-binary treatment {parsed[-1][binary]!r} "
                             f"in data row {rownum}")
        if not all(math.isfinite(v) for v in parsed[-1]):
            raise ValueError(f"non-finite value in data row {rownum}")
    return np.array(parsed)


def ingest_csv(path) -> ObservationalDataset:
    """Read a UTF-8, header-row CSV into a dataset.

    Every column other than `t` and `y` is a covariate; a header with
    none is refused.  Malformed or ragged rows raise ValueError naming the
    first offending 1-based data row.
    """
    return _dataset(*_read_rows(path))


def ingest_covariates(path) -> np.ndarray:
    """Target covariates from a CSV with or without `t`/`y` columns; with
    them, the file must also be a valid dataset.  The file is read once."""
    header, rows = _read_rows(path)
    if "t" in header and "y" in header:
        return _dataset(header, rows).covariates
    return _float_rows(header, rows)


def _dataset(header, rows):
    """`ingest_csv` on rows already read."""
    position = {name: i for i, name in enumerate(header)}
    missing = {"t", "y"} - set(position)
    if missing:
        raise ValueError(f"missing columns: {sorted(missing)}")
    names = [c for c in header if c not in ("t", "y")]
    if not names:
        raise ValueError("no covariate columns besides t and y")
    values = _float_rows(header, rows, binary=position["t"])
    x = np.ascontiguousarray(values[:, [position[c] for c in names]])
    return ObservationalDataset(x, values[:, position["t"]],
                                values[:, position["y"]], names=names)


def emit_csv(ds: ObservationalDataset, path) -> None:
    """Write a dataset to CSV in the format ingest_csv reads: covariates
    under their names (x1, x2, ... when unnamed), then `t` and `y`.

    Numbers are serialized with 17 significant digits so an
    emit -> ingest round trip is exact.
    """
    names = ds.names or [f"x{j + 1}" for j in range(ds.covariate_dim)]
    write_csv(path, [*names, "t", "y"],
              ([*(format(v, ".17g") for v in x), str(t), format(y, ".17g")]
               for x, t, y in zip(ds.covariates.tolist(),
                                  ds.treatment.tolist(),
                                  ds.outcome.tolist())))


def write_csv(path, header, rows):
    """Write a UTF-8 CSV: the header row, then `rows`.  Callers format
    their own cells; the `csv` writer turns any other value into text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def split(ds: ObservationalDataset, seed: int):
    """The preliminary and calibration halves of a seeded permutation of
    the row indices, each sorted: floor(n / 2) rows, then the rest."""
    perm = np.random.default_rng(seed).permutation(ds.n)
    half = ds.n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


def arm_indices(ds: ObservationalDataset, t: int) -> np.ndarray:
    """Indices of units with treatment == t."""
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    return np.flatnonzero(ds.treatment == t)
