"""CSV ingestion, model specification, and design-matrix construction.

Every estimator in this package works on a :class:`DesignMatrix` built from a
:class:`Dataset` and a :class:`ModelSpec`; this module owns validation of both.
A design matrix only assembles columns and their roles: a rank-deficient or
ill-conditioned design is rejected by the least-squares fit, not here.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

ROLE_INTERCEPT = "intercept"
ROLE_TREATMENT = "treatment"
ROLE_MEDIATOR = "mediator"
ROLE_INTERACTION = "interaction"
ROLE_COVARIATE = "covariate"

# Bytes per step of the CSV scans: the line-end scan's boolean masks, and the
# rows that dropping rows moves at a time, take this much memory instead of
# one byte per byte of the file or a second copy of the parsed matrix.
LINE_END_CHUNK = 1 << 18


class DataError(ValueError):
    """Unusable input data or an invalid model specification."""


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric table; all columns share length ``n``."""

    column_names: tuple[str, ...]
    columns: dict[str, np.ndarray]
    n: int
    n_dropped: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError("dataset must contain at least one row")
        for name in self.column_names:
            col = self.columns[name]
            if col.shape != (self.n,):
                raise DataError(f"column {name!r} has length {col.shape}, expected ({self.n},)")
            if not np.all(np.isfinite(col)):
                raise DataError(f"column {name!r} contains non-finite values")

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"unknown column {name!r}")
        return self.columns[name]

    def with_scaled_column(self, name: str, factor: float) -> "Dataset":
        """Return a copy with one column multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor != 0.0):
            raise DataError("scale factor must be finite and nonzero")
        new_cols = dict(self.columns)
        new_cols[name] = self.column(name) * factor
        return Dataset(self.column_names, new_cols, self.n, self.n_dropped)


def dataset_from_arrays(**named: np.ndarray) -> Dataset:
    """Build a Dataset from keyword arrays (test and simulation convenience)."""
    cols = {k: np.ascontiguousarray(v, dtype=float) for k, v in named.items()}
    n = len(next(iter(cols.values())))
    return Dataset(tuple(cols), cols, n)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression layout for one mediation-model equation.

    ``mediator`` is absent for the mediator-model spec itself; ``interaction``
    adds the elementwise treatment*mediator column to the design.
    """

    response: str
    treatment: str
    mediator: str | None = None
    covariates: tuple[str, ...] = ()
    interaction: bool = False

    def validate(self, dataset: Dataset) -> None:
        referenced = [self.response, self.treatment, *([self.mediator] if self.mediator else []), *self.covariates]
        for name in referenced:
            if name not in dataset.columns:
                raise DataError(f"column {name!r} not present in dataset")
        if len(set(referenced)) != len(referenced):
            raise DataError("response, treatment, mediator, and covariates must be distinct columns")
        if self.interaction and self.mediator is None:
            raise DataError("interaction requires a mediator column")
        t = dataset.column(self.treatment)
        if not np.all((t == 0.0) | (t == 1.0)):
            raise DataError(f"treatment column {self.treatment!r} must contain only 0/1 values")


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric regressor matrix with per-column roles; first column is the intercept."""

    values: np.ndarray
    column_roles: tuple[str, ...]

    @property
    def p(self) -> int:
        """The number of columns, read from ``values``."""
        return self.values.shape[1]

    def role_index(self, role: str) -> int:
        return self.column_roles.index(role)

    def covariate_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.column_roles) if r == ROLE_COVARIATE)

    @cached_property
    def column_means(self) -> np.ndarray:
        """The mean of every column, computed on first use and kept read-only with the design."""
        means = self.values.mean(axis=0)
        means.flags.writeable = False
        return means

    @cached_property
    def centered_regressors(self) -> np.ndarray:
        """The non-intercept columns minus their means, computed on first use and kept read-only."""
        centered = self.values[:, 1:] - self.column_means[1:]
        centered.flags.writeable = False
        return centered

    @cached_property
    def transposed(self) -> np.ndarray:
        """The values transposed into a C-contiguous p x n array, computed on first use and kept read-only."""
        values_t = self.values.T.copy()
        values_t.flags.writeable = False
        return values_t


def load_csv(path: str, columns: list[str] | None = None) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    When ``columns`` is given, only those columns are parsed and retained; a
    retained name that occurs more than once in the header is an error. A
    UTF-8 byte-order mark before the header is ignored. Blank lines are
    skipped, and a row whose cell count differs from the header's, or a
    record the ``csv`` module rejects (a field over its size limit), is an
    error naming the line the record ends on. Rows with a missing,
    unparseable or non-finite cell in any retained column are dropped; the
    drop count is logged and stored on the returned Dataset.

    The row-by-row ``csv.reader`` loop defines this behaviour. A file on which
    one numpy parse provably gives the same result, quoted cells and all, is
    read that way instead; every other file goes through the loop. The file
    is read once, so a pipe works as well as a regular file. The Dataset's
    columns are views of the one parsed n x k matrix, not copies of it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    names = header if columns is None else list(columns)
    missing = [c for c in names if c not in header]
    if missing:
        raise DataError(f"{path}: columns not found in header: {missing}")
    duplicated = [c for c in dict.fromkeys(names) if header.count(c) > 1]
    if duplicated:
        raise DataError(f"{path}: duplicated header names: {duplicated}")
    keep = [header.index(c) for c in names]

    reason = "header record spans lines" if reader.line_num != 1 else None
    if reason is None:
        try:
            mat = _parse_bulk(data, len(header), keep)
        except ValueError as exc:
            reason = str(exc)
    if reason is None:
        mat, dropped = _drop_nonfinite_rows(mat)
        logger.debug("%s: bulk route kept %d row(s), dropped %d", path, len(mat), dropped)
    else:
        try:
            records = ((reader.line_num, raw) for raw in reader)
            mat, dropped = _parse_rows(path, records, len(header), keep)
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        logger.debug("%s: rows route kept %d row(s), dropped %d; bulk parse declined: %s", path, len(mat), dropped, reason)
    if not len(mat):
        raise DataError(f"{path}: no usable rows after filtering ({dropped} dropped)")
    if dropped:
        logger.info("%s: dropped %d row(s) with missing or unparseable cells", path, dropped)
    cols = {name: mat[:, j] for j, name in enumerate(names)}
    return Dataset(tuple(names), cols, mat.shape[0], n_dropped=dropped)


def _parse_bulk(data: bytes, width: int, keep: list[int]) -> np.ndarray:
    """Parse the retained columns of every data row in one numpy call.

    Raises ValueError, naming the first problem found, wherever the result
    could differ from the row loop's. The header is the first line; the
    caller has checked that its record ends there. Each unread column is
    parsed into a zero-width text field, so numpy raises on a row whose cell
    count differs from the header's. numpy unquotes cells as ``csv.reader``
    does, or raises where the two differ. Its float conversion accepts a
    subset of what ``float()`` accepts (no underscores, no non-ASCII digits)
    and rounds identically, so a cell it parses has the loop's value and any
    cell it rejects raises. ``csv.reader`` also rejects fields over its size
    limit and, before Python 3.11, NUL bytes, and numpy warns on a body with
    no data line; these are checked first.
    """
    if b"\0" in data:
        raise ValueError("NUL byte")
    # Line ends after the last other byte belong to the last line: a quote left open there takes them in.
    ends = _line_ends(np.frombuffer(data, dtype=np.uint8)[: _content_end(data)], b"\r" in data)
    if not ends.size:
        raise ValueError("no data rows")
    # The bytes between consecutive line-end bytes; the first run is the header.
    lengths = np.diff(ends, prepend=-1, append=len(data)) - 1
    if lengths.max() > csv.field_size_limit():
        raise ValueError("line longer than the csv field size limit")
    # numpy skips empty lines. Only where each non-empty line holds one record is every field within a line.
    lines = int(np.count_nonzero(lengths[1:]))
    del ends, lengths  # the parse needs only their count
    read = sorted(set(keep))
    # Fields are named by position: an unread header name may repeat.
    dtype = [(f"f{i}", float if i in read else "U0") for i in range(width)]
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    # A record takes at least one non-empty line, so max_rows=lines reads
    # every record, into an array allocated once at its final size rather
    # than grown. numpy warns that the blank lines it skips do not count
    # towards max_rows, which is what the count assumes.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        rec = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, skiprows=1, quotechar='"', ndmin=1, max_rows=lines)
    if len(rec) != lines:
        raise ValueError(f"{lines} non-empty line(s) hold {len(rec)} record(s)")
    # The unread fields take no bytes, so each record is its floats in file order.
    mat = rec.view(float).reshape(len(rec), len(read))
    return mat if read == keep else mat[:, [read.index(i) for i in keep]]


def _drop_nonfinite_rows(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """Move the rows of ``mat`` whose cells are all finite to its front, in place; return them and the drop count.

    The rows are checked and moved a chunk at a time, so this takes at most
    ``LINE_END_CHUNK`` bytes beside the matrix, not a second matrix: a row of
    k cells takes 8 k bytes in the gathered copy and k + 9 in the masks and
    the index of the gather, at most 9 (k + 1) in all. A kept row is written
    at or before the row it is read from, and each chunk's kept rows are
    gathered before any of them is written, so no row is overwritten before
    it is read. Chunks before the first dropped row are only read. The
    result is a view of ``mat``'s first rows.
    """
    step = max(1, LINE_END_CHUNK // (9 * (mat.shape[1] + 1)))
    kept = 0
    for lo in range(0, len(mat), step):
        chunk = mat[lo : lo + step]
        finite = np.isfinite(chunk).all(axis=1)
        if kept == lo and finite.all():
            kept += len(chunk)
            continue
        count = int(np.count_nonzero(finite))
        mat[kept : kept + count] = chunk[finite]
        kept += count
    return mat[:kept], len(mat) - kept


def _line_ends(buf: np.ndarray, with_cr: bool) -> np.ndarray:
    """The positions of the LF bytes of ``buf``, and of its CR bytes too if ``with_cr``, in increasing order.

    The bytes are compared ``LINE_END_CHUNK`` at a time, so the scan's
    boolean masks take that much memory rather than one byte per byte of
    the file.
    """
    parts = []
    for lo in range(0, max(buf.size, 1), LINE_END_CHUNK):
        chunk = buf[lo : lo + LINE_END_CHUNK]
        ends = np.flatnonzero(chunk == ord("\n"))
        if with_cr:
            ends = np.sort(np.concatenate([ends, np.flatnonzero(chunk == ord("\r"))]))
        ends += lo
        parts.append(ends)
    return np.concatenate(parts)


def _content_end(data: bytes) -> int:
    """The length of ``data`` without its trailing CR and LF bytes.

    Only the tail is copied, a few kilobytes at a time, not the whole file as
    ``data.rstrip`` would.
    """
    end = len(data)
    while end:
        start = max(0, end - 4096)
        kept = len(data[start:end].rstrip(b"\r\n"))
        if kept:
            return start + kept
        end = start
    return 0


def _parse_rows(path: str, records: Iterable[tuple[int, list[str]]], width: int, keep: list[int]) -> tuple[np.ndarray, int]:
    """Parse (line it ends on, record) pairs one cell at a time; return the kept rows and the drop count."""
    rows: list[list[float]] = []
    dropped = 0
    for lineno, raw in records:
        if not raw:
            continue
        if len(raw) != width:
            raise DataError(f"{path}:{lineno}: expected {width} cells, found {len(raw)}")
        parsed: list[float] = []
        for i in keep:
            try:
                v = float(raw[i])
            except ValueError:
                break
            if not math.isfinite(v):
                break
            parsed.append(v)
        if len(parsed) == len(keep):
            rows.append(parsed)
        else:
            dropped += 1
    return np.asarray(rows, dtype=float), dropped


def build_design(dataset: Dataset, spec: ModelSpec) -> DesignMatrix:
    """Assemble [intercept, treatment, mediator?, interaction?, covariates...].

    Each column is written once, straight into one n x p array. The
    interaction column is the exact elementwise product of the treatment and
    mediator columns. Only the specification is validated here; whether
    the columns can be fitted is decided by the fit (``fit_ols``).
    """
    spec.validate(dataset)
    roles = [ROLE_INTERCEPT, ROLE_TREATMENT]
    if spec.mediator is not None:
        roles += [ROLE_MEDIATOR, ROLE_INTERACTION] if spec.interaction else [ROLE_MEDIATOR]
    roles += [ROLE_COVARIATE] * len(spec.covariates)

    values = np.empty((dataset.n, len(roles)))
    values[:, 0] = 1.0
    t = dataset.column(spec.treatment)
    values[:, 1] = t
    if spec.mediator is not None:
        m = dataset.column(spec.mediator)
        values[:, 2] = m
        if spec.interaction:
            np.multiply(t, m, out=values[:, 3])
    for j, name in enumerate(spec.covariates, start=len(roles) - len(spec.covariates)):
        values[:, j] = dataset.column(name)
    return DesignMatrix(values, tuple(roles))

