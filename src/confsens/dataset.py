"""Data model for observational studies: units, deterministic splits, CSV I/O.

A dataset is a frozen collection of (covariates, binary treatment, outcome)
rows.  Treatments must be literal 0/1 and all numbers finite; missing values
are rejected rather than imputed.  This module is the package's one CSV
reader and writer: every file is UTF-8 with one header row.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObservationalDataset",
    "SplitPlan",
    "CsvSchema",
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


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for CSV ingestion and emission."""

    covariates: tuple
    treatment: str = "t"
    outcome: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if len(self.covariates) < 1:
            raise ValueError("schema needs at least one covariate column")


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint index sets produced by :func:`split`.

    The first fraction maps to the preliminary set, the second to the
    calibration set, the third to the validation set.  Unrequested sets
    are empty.
    """

    preliminary_idx: np.ndarray
    calibration_idx: np.ndarray
    validation_idx: np.ndarray
    seed: int
    fractions: tuple = field(default=())

    @property
    def sets(self):
        return (self.preliminary_idx, self.calibration_idx, self.validation_idx)


def _read_rows(path):
    """Header and non-blank data rows of a UTF-8, header-row CSV, as
    strings, in one `csv.reader` pass."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file: no header row")
        return header, [row for row in reader if row]


def _float_columns(header, rows, columns, binary=None):
    """The named columns of `_read_rows` output as one (rows, columns)
    float array; other columns stay unparsed.  Every row must have the
    header's cell count and finite values, and the `binary` column only
    0 or 1.  One conversion covers all rows; only when a check fails does
    a row-by-row pass name the first offending 1-based data row."""
    position = {name: i for i, name in enumerate(header)}
    missing = set(columns) - set(position)
    if missing:
        raise ValueError(f"missing columns: {sorted(missing)}")
    if not rows:
        raise ValueError("no data rows")
    idx = [position[c] for c in columns]
    b = None if binary is None else columns.index(binary)
    if all(len(row) == len(header) for row in rows):
        pick = operator.itemgetter(*idx)
        try:
            values = np.array([pick(row) for row in rows],
                              dtype=float).reshape(len(rows), len(idx))
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all() and (
                b is None or np.isin(values[:, b], (0.0, 1.0)).all()):
            return values
    parsed = []
    for rownum, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"data row {rownum} has {len(row)} cells, "
                             f"the header has {len(header)}")
        try:
            parsed.append([float(row[i]) for i in idx])
        except ValueError as exc:
            raise ValueError(f"malformed value in data row {rownum}: "
                             f"{exc}") from None
        if b is not None and parsed[-1][b] not in (0.0, 1.0):
            raise ValueError(f"non-binary treatment {parsed[-1][b]!r} in "
                             f"data row {rownum}")
        if not all(math.isfinite(v) for v in parsed[-1]):
            raise ValueError(f"non-finite value in data row {rownum}")
    return np.array(parsed)


def ingest_csv(path, schema: CsvSchema | None = None) -> ObservationalDataset:
    """Read a UTF-8, header-row CSV into a dataset.

    Columns are selected by name; with no schema, every column other than
    `t` and `y` is a covariate.  Malformed or ragged rows raise ValueError
    naming the first offending 1-based data row.
    """
    return _dataset(*_read_rows(path), schema)


def ingest_covariates(path) -> np.ndarray:
    """Target covariates from a CSV with or without `t`/`y` columns; with
    them, the file must also be a valid dataset.  The file is read once."""
    header, rows = _read_rows(path)
    if "t" in header and "y" in header:
        return _dataset(header, rows, None).covariates
    return _float_columns(header, rows, header)


def _dataset(header, rows, schema):
    """`ingest_csv` on rows already read."""
    if schema is None:
        schema = CsvSchema(covariates=tuple(c for c in header
                                            if c not in ("t", "y")))
    columns = schema.covariates + (schema.treatment, schema.outcome)
    values = _float_columns(header, rows, columns, binary=schema.treatment)
    return ObservationalDataset(np.ascontiguousarray(values[:, :-2]),
                                values[:, -2], values[:, -1],
                                names=schema.covariates)


def emit_csv(ds: ObservationalDataset, path, schema: CsvSchema | None = None) -> None:
    """Write a dataset to CSV in the same format ingest_csv reads.

    Numbers are serialized with 17 significant digits so an
    emit -> ingest round trip is exact.
    """
    if schema is None:
        names = ds.names or tuple(f"x{j + 1}" for j in range(ds.covariate_dim))
        schema = CsvSchema(covariates=names)
    if len(schema.covariates) != ds.covariate_dim:
        raise ValueError("schema covariate count != covariate_dim")
    write_csv(path, [*schema.covariates, schema.treatment, schema.outcome],
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


def split(ds: ObservationalDataset, fractions, seed: int) -> SplitPlan:
    """Deterministically partition row indices by the given fractions.

    Set i receives floor(fractions[i] * n) indices; the last requested set
    absorbs the remainder of floor(sum(fractions) * n).  Up to three
    fractions: preliminary, calibration, validation.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) < 1 or len(fractions) > 3:
        raise ValueError("between 1 and 3 fractions required")
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    total = sum(fractions)
    if total > 1.0 + 1e-12:
        raise ValueError(f"fractions sum to {total} > 1")
    n = ds.n
    perm = np.random.default_rng(seed).permutation(n)
    sizes = [int(np.floor(f * n)) for f in fractions]
    sizes[-1] = int(np.floor(min(total, 1.0) * n)) - sum(sizes[:-1])
    sets = []
    start = 0
    for size in sizes:
        sets.append(np.sort(perm[start:start + size]))
        start += size
    while len(sets) < 3:
        sets.append(np.array([], dtype=np.int64))
    return SplitPlan(sets[0], sets[1], sets[2], seed=seed, fractions=fractions)


def arm_indices(ds: ObservationalDataset, t: int) -> np.ndarray:
    """Indices of units with treatment == t."""
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    return np.flatnonzero(ds.treatment == t)
