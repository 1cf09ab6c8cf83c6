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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

ROLE_INTERCEPT = "intercept"
ROLE_TREATMENT = "treatment"
ROLE_MEDIATOR = "mediator"
ROLE_INTERACTION = "interaction"
ROLE_COVARIATE = "covariate"


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
    p: int

    def role_index(self, role: str) -> int:
        return self.column_roles.index(role)

    def covariate_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.column_roles) if r == ROLE_COVARIATE)


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
    one numpy parse provably gives the same result is read that way instead;
    every other file goes through the loop. The file is read once, so a pipe
    works as well as a regular file.
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

    reason = "header record spans lines" if reader.line_num != 1 else _bulk_decline_reason(data, len(header))
    if reason is None:
        try:
            mat = _parse_bulk(data, keep)
        except ValueError as exc:
            reason = str(exc)
    if reason is None:
        finite = np.isfinite(mat).all(axis=1)
        dropped = len(finite) - int(np.count_nonzero(finite))
        if dropped:
            mat = mat[finite]
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
    cols = {name: np.ascontiguousarray(mat[:, j]) for j, name in enumerate(names)}
    return Dataset(tuple(names), cols, mat.shape[0], n_dropped=dropped)


def _bulk_decline_reason(data: bytes, width: int) -> str | None:
    """Why one numpy parse might read these bytes differently from the row loop, or None.

    The header is the first line; the caller has checked that its record ends
    there. numpy splits every later line at every comma, while ``csv.reader``
    honours quotes, rejects over-long fields, ends a record at a lone carriage
    return and, before Python 3.11, rejects NUL bytes. Without any of these,
    the two split the file into the same cells, and numpy skips blank lines as
    the loop does, but with ``usecols`` it never checks a row's cell count, so
    that is checked here. The returned reason names the first problem found.
    """
    if b"\0" in data:
        return "NUL byte"
    has_cr = b"\r" in data
    if has_cr and data.count(b"\r") != data.count(b"\r\n"):
        return "lone carriage return"
    # numpy skips the header line, so only quotes after it count.
    body = data.find(b"\n") + 1
    if body and data.find(b'"', body) != -1:
        return "quote character"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    lengths = ends - np.concatenate(([0], ends[:-1] + 1))
    if has_cr:
        # Every CR precedes an LF, so only a line's last byte can be one.
        lengths -= buf[ends - 1] == ord("\r")
    if lengths.max() > csv.field_size_limit():
        return "line longer than the csv field size limit"
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    # Blank lines are skipped by both parsers.
    filled = lengths[1:] > 0
    ragged = np.flatnonzero(filled & (commas[1:] != width - 1))
    if ragged.size:
        return f"ragged row at line {ragged[0] + 2}"
    if not filled.any():
        return "no data rows"
    return None


def _parse_bulk(data: bytes, keep: list[int]) -> np.ndarray:
    """Parse the retained columns of every non-blank data row in one numpy call.

    numpy's float conversion accepts a subset of what ``float()`` accepts (no
    underscores, no non-ASCII digits) and rounds identically, so a cell it
    parses has the loop's value and any cell it rejects raises ValueError.
    """
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    return np.loadtxt(text, dtype=float, delimiter=",", comments=None, skiprows=1, usecols=keep, ndmin=2)


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

    The interaction column is the exact elementwise product of the treatment
    and mediator columns. Only the specification is validated here; whether
    the columns can be fitted is decided by the fit (``fit_ols``).
    """
    spec.validate(dataset)
    cols: list[np.ndarray] = [np.ones(dataset.n)]
    roles: list[str] = [ROLE_INTERCEPT]

    t = dataset.column(spec.treatment)
    cols.append(t)
    roles.append(ROLE_TREATMENT)

    if spec.mediator is not None:
        m = dataset.column(spec.mediator)
        cols.append(m)
        roles.append(ROLE_MEDIATOR)
        if spec.interaction:
            cols.append(t * m)
            roles.append(ROLE_INTERACTION)

    for name in spec.covariates:
        cols.append(dataset.column(name))
        roles.append(ROLE_COVARIATE)

    values = np.column_stack(cols)
    return DesignMatrix(values, tuple(roles), values.shape[1])

