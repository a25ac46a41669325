"""Data model for observational studies: units, the seeded halving, CSV I/O.

A dataset is a frozen collection of (covariates, binary treatment, outcome)
rows.  Treatments must be literal 0/1 and all numbers finite; missing values
are rejected rather than imputed.  This module is the package's one CSV
reader and writer: every file is UTF-8 with one header row.  The `csv`
module reads the header and numpy's C parser the data rows, quoted cells
and LF, CRLF or CR line ends included; rows that parser cannot read, or
whose values fail a check, are read again row by row with the `csv`
module, which names the first offending row.  Each file is opened once.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class ObservationalDataset:
    """Immutable table of n units with p finite covariates each.  It holds
    read-only copies of the arrays given, the treatment as int64 0 or 1."""

    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    names: tuple | None = None

    def __post_init__(self):
        self._hold(np.array(self.covariates, dtype=float),
                   np.asarray(self.treatment, dtype=float),
                   np.array(self.outcome, dtype=float), self.names)

    def _hold(self, covariates, treatment, outcome, names):
        """Check the arrays and hold them read-only, uncopied: `covariates`
        and `outcome` must be float arrays no one else holds."""
        if covariates.ndim != 2:
            raise ValueError(f"covariates of shape {covariates.shape}: need "
                             "a 2-D (units, covariates) array")
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
            object.__setattr__(self, "names", names)
        for field, a in (("covariates", covariates),
                         ("treatment", treatment.astype(np.int64)),
                         ("outcome", outcome)):
            a.setflags(write=False)
            object.__setattr__(self, field, a)

    @property
    def n(self):
        return self.covariates.shape[0]

    @property
    def covariate_dim(self):
        return self.covariates.shape[1]

    def subset(self, idx):
        """New dataset holding the given rows, order preserved: the
        indexing copies them, then the constructor's checks run on them."""
        idx = np.asarray(idx, dtype=np.int64)
        sub = object.__new__(ObservationalDataset)
        sub._hold(self.covariates[idx], self.treatment[idx],
                  self.outcome[idx], self.names)
        return sub

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"ObservationalDataset(n={self.n}, p={self.covariate_dim})"


def _valid(values, width, binary):
    """Whether the rows of `values` have `width` cells and finite values,
    and column `binary` (an index, or None) only 0 or 1."""
    return (values.shape[1] == width and np.isfinite(values).all()
            and (binary is None or np.isin(values[:, binary], (0, 1)).all()))


def _float_rows(header, rows, binary):
    """Non-blank `csv` rows as one (rows, columns) float array, converted
    row by row.  Every row must have the header's cell count and finite
    values, and column `binary` (an index, or None) only 0 or 1; the first
    offending 1-based data row is named."""
    if not rows:
        raise ValueError("no data rows")
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


def _parse(text):
    """The data rows after the header as one float array, through numpy's
    C parser, which reads quoted cells as `csv` does; None where that
    parser fails or warns, or where a line could hold a field over the
    `csv` module's size limit: one that long, or one with an odd number of
    quotes, which may open a cell that spans lines.  The rows are split at
    LF, or at CR in a text with no LF; an unquoted CR left inside a line
    fails the parser."""
    lines = text.split("\n" if "\n" in text else "\r")
    if (max(map(len, lines)) > csv.field_size_limit()
            or '"' in text and any(s.count('"') % 2 for s in lines)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            return np.loadtxt(lines, delimiter=",", ndmin=2,
                              comments=None, quotechar='"')
    except (ValueError, Warning):
        return None


def _read(path, columns):
    """The header and the (rows, columns) float values of a UTF-8,
    header-row CSV, opened once.  The `csv` module reads the header, which
    must name each column once; `columns(header)` checks it and returns
    the index of the column that may hold only 0 or 1, or None.  `_parse`
    reads the rows of a well-formed file at once; where it fails (a bad
    row, mixed line ends, a quoted cell spanning lines, or a float
    spelling numpy refuses such as `1_0`), or a row has the wrong cell
    count, a non-finite or a non-binary value, a `csv.reader` over the
    same text and `_float_rows` read it row by row: they return the
    values, or raise naming what they find."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"unreadable CSV at line {reader.line_num}: "
                             f"{exc}") from None
        text = fh.read()
    if header is None:
        raise ValueError("empty file: no header row")
    if len(set(header)) < len(header):
        name = next(c for i, c in enumerate(header) if c in header[:i])
        raise ValueError(f"repeated column name {name!r} in the header")
    binary = columns(header)
    values = _parse(text)
    if values is not None and _valid(values, len(header), binary):
        return header, values
    body = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in body if row]
    except csv.Error as exc:
        raise ValueError(f"unreadable CSV at line "
                         f"{reader.line_num + body.line_num}: {exc}") from None
    return header, _float_rows(header, rows, binary)


def _dataset_columns(header):
    """The treatment column of a dataset header, which must hold `t`, `y`
    and at least one covariate column."""
    missing = {"t", "y"} - set(header)
    if missing:
        raise ValueError(f"missing columns: {sorted(missing)}")
    if set(header) == {"t", "y"}:
        raise ValueError("no covariate columns besides t and y")
    return header.index("t")


def ingest_csv(path) -> ObservationalDataset:
    """Read a UTF-8, header-row CSV into a dataset.

    Every column other than `t` and `y` is a covariate; a header with
    none is refused.  Malformed or ragged rows raise ValueError naming the
    first offending 1-based data row.
    """
    header, values = _read(path, _dataset_columns)
    names = [c for c in header if c not in ("t", "y")]
    # `take` copies the covariates once, in C order, and the dataset keeps it
    ds = object.__new__(ObservationalDataset)
    ds._hold(values.take([header.index(c) for c in names], axis=1),
             values[:, header.index("t")], values[:, header.index("y")].copy(),
             names)
    return ds


def ingest_covariates(path, names) -> np.ndarray:
    """Target covariates from a CSV: the columns `names`, in that order.
    Columns `t` and `y` may also be present; with both, the file must also
    be a valid dataset.  A missing or any other column is refused.  The
    file is read once."""
    def columns(header):
        missing = [c for c in names if c not in header]
        if missing:
            raise ValueError(f"target lacks covariate columns {missing}")
        unknown = [c for c in header
                   if c not in names and c not in ("t", "y")]
        if unknown:
            raise ValueError(f"target has columns the data lacks: {unknown}")
        return (_dataset_columns(header) if "t" in header and "y" in header
                else None)

    header, values = _read(path, columns)
    return values[:, [header.index(c) for c in names]]


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
    """The one halving rule: a seeded permutation of the row indices cut
    into its first floor(n / 2) entries and the rest, in permutation order."""
    perm = np.random.default_rng(seed).permutation(ds.n)
    half = ds.n // 2
    return perm[:half], perm[half:]


def arm_indices(ds: ObservationalDataset, t: int) -> np.ndarray:
    """Indices of units with treatment == t."""
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    return np.flatnonzero(ds.treatment == t)
