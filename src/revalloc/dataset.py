"""Loading, validation, and normalization of DMU input/output data.

File formats:

* ``dataset.csv`` -- header ``dmu,x:<name>,...,y:<name>,...``; one row per
  DMU; comma separated, ``.`` decimal point.  Input/output columns
  are identified by the ``x:`` / ``y:`` header prefix, not by position;
  the input names, and the output names, are unique and not blank.
* ``groups.csv``  -- header ``dmu,group``; group ids are positive integers
  covering 1..H with no gaps.
* reference shares -- header ``dmu,phi``; a nonnegative share per DMU.
* ``matrix.csv``  -- first row and first column are DMU names; cell (d, j)
  is evaluator d's score of target j.

Every file is UTF-8: a line holding bytes that are not, or one the CSV
reader refuses (a field over 131072 characters), is a ParseError naming
the line.  Lines are counted as in the text, so a row whose quoted field
spans lines is named by the line it starts on.  An open text stream
decodes itself, ahead of the row being read, so one that fails to decode
is a ParseError that names no line.  Numbers are plain ASCII decimals,
without ``_`` digit separators.  Each input and output column must sum to
a positive float: a zero sum, or one past the float range, is a
ValidationError naming the column.  Blank lines are skipped everywhere,
also before the header, and so is a UTF-8 byte-order mark at the start of
a file or text stream.  The groups and reference files name every DMU
exactly once and no other DMU.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCORE_UPPER_TOL = 1e-9


class DataError(ValueError):
    """Base class for data ingestion problems."""


class ParseError(DataError):
    """A cell or row could not be parsed (malformed, NaN, or negative)."""


class ValidationError(DataError):
    """Structurally valid file with inconsistent content."""


@dataclass(eq=False)
class Dataset:
    """Named DMUs with raw and column-normalized input/output matrices."""

    names: list[str]
    input_names: list[str]
    output_names: list[str]
    raw_inputs: np.ndarray    # n x m, nonnegative
    raw_outputs: np.ndarray   # n x s, nonnegative
    norm_inputs: np.ndarray = field(init=False)
    norm_outputs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.raw_inputs = _floats(self.raw_inputs, "input values")
        self.raw_outputs = _floats(self.raw_outputs, "output values")
        _validate_dataset(self)
        self.norm_inputs, self.norm_outputs = normalize(self.raw_inputs, self.raw_outputs)
        if not (self.norm_inputs.max(axis=1) > 0).all():
            bad = self.names[int(np.argmin(self.norm_inputs.max(axis=1)))]
            raise ValidationError(f"DMU {bad!r} has no strictly positive input")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return self.raw_inputs.shape[1]

    @property
    def s(self) -> int:
        return self.raw_outputs.shape[1]

    def features(self) -> np.ndarray:
        """Per-DMU feature vectors: normalized inputs then outputs."""
        return np.hstack([self.norm_inputs, self.norm_outputs])


@dataclass(eq=False)
class GroupAssignment:
    """Partition of DMU indices into ally groups labelled 1..H."""

    groups: np.ndarray  # index -> group id
    H: int

    def __post_init__(self):
        labels = np.asarray(self.groups)
        if labels.ndim != 1:
            raise ValidationError(f"group ids must form a vector, got shape {labels.shape}")
        if labels.dtype.kind not in "iuf":
            raise ValidationError(f"group ids must be numbers, got {labels.tolist()}")
        if not is_integer(self.H):
            raise ValidationError(f"group count must be an integer, got {self.H!r}")
        used = set(labels.tolist())   # 1.0 counts as 1, and 1.5 as no id
        if self.H < 1 or used != set(range(1, self.H + 1)):
            raise ValidationError(
                f"group ids must cover 1..{self.H} exactly, got {sorted(used)}"
            )
        self.groups = labels.astype(int)

    @classmethod
    def single_group(cls, n: int) -> "GroupAssignment":
        return cls(groups=np.ones(n, dtype=int), H=1)


@dataclass(eq=False)
class CrossEfficiencyMatrix:
    """Square peer-appraisal matrix; rows are evaluators, columns targets."""

    names: list[str]
    values: np.ndarray  # n x n, entries in [0, 1]

    def __post_init__(self):
        self.values = check_scores(self.values)
        n = len(self.names)
        _check_unique_names(self.names)
        if self.values.shape != (n, n):
            raise ValidationError(
                f"matrix shape {self.values.shape} does not match {n} names"
            )

    @property
    def n(self) -> int:
        return len(self.names)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.values).copy()


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float array; ParseError naming ``what`` unless they are
    numbers (a bool, complex or string array is not)."""
    try:
        values = np.asarray(values)
        if values.dtype.kind in "bcUS":
            raise TypeError
        return values.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ParseError(f"{what} must be numbers") from None


def check_scores(values) -> np.ndarray:
    """An appraisal matrix as floats: square, nonempty, finite, in [0, 1 + SCORE_UPPER_TOL]."""
    values = _floats(values, "matrix entries")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {values.shape}")
    if values.size == 0:
        raise ValidationError("matrix needs at least one DMU")
    if not np.isfinite(values).all():
        raise ParseError("matrix contains non-finite entries")
    if values.min() < 0 or values.max() > 1 + SCORE_UPPER_TOL:
        raise ValidationError("matrix entries must lie in [0, 1]")
    return values


def normalize(raw_inputs, raw_outputs):
    """Divide every feature column by its sum across DMUs.

    Each normalized column sums to 1.  A column sum past the float range is
    refused, as a zero one is, since dividing by it would give zeros.
    """
    raw_inputs = _floats(raw_inputs, "input values")
    raw_outputs = _floats(raw_outputs, "output values")
    normed = []
    for label, mat in (("input", raw_inputs), ("output", raw_outputs)):
        with np.errstate(over="ignore"):   # an overflow is refused just below
            sums = mat.sum(axis=0)
        if (sums <= 0).any():
            raise ValidationError(f"{label} column {int(np.argmin(sums))} has zero sum")
        if np.isinf(sums).any():
            raise ValidationError(
                f"{label} column {int(np.argmax(np.isinf(sums)))} sum overflows a float")
        normed.append(mat / sums)
    return tuple(normed)


def _check_unique_names(names: list[str], what: str = "DMU") -> None:
    """ValidationError unless ``names`` are strings, none blank and none repeated."""
    odd = [name for name in names if not isinstance(name, str)]
    if odd:
        raise ValidationError(f"{what} names must be strings, got {odd[0]!r}")
    blank = [k for k, name in enumerate(names, start=1) if not name.strip()]
    if blank:
        raise ValidationError(f"{what} {blank[0]} of {len(names)} has a blank name")
    dupes = sorted(str(name) for name, count in Counter(names).items() if count > 1)
    if dupes:
        raise ValidationError(f"duplicate {what} names: {dupes}")


def _validate_dataset(ds: Dataset) -> None:
    n = len(ds.names)
    if n < 1:
        raise ValidationError("dataset needs at least one DMU")
    _check_unique_names(ds.names)
    if ds.raw_inputs.ndim != 2 or ds.raw_outputs.ndim != 2:
        raise ValidationError("input/output data must be 2-dimensional")
    if ds.raw_inputs.shape[0] != n or ds.raw_outputs.shape[0] != n:
        raise ValidationError("row count does not match number of DMU names")
    if ds.raw_inputs.shape[1] < 1 or ds.raw_outputs.shape[1] < 1:
        raise ValidationError("need at least one input and one output column")
    if len(ds.input_names) != ds.raw_inputs.shape[1]:
        raise ValidationError("input name count does not match input columns")
    if len(ds.output_names) != ds.raw_outputs.shape[1]:
        raise ValidationError("output name count does not match output columns")
    _check_unique_names(ds.input_names, "input")
    _check_unique_names(ds.output_names, "output")
    for label, mat in (("input", ds.raw_inputs), ("output", ds.raw_outputs)):
        if not np.isfinite(mat).all():
            raise ParseError(f"non-finite {label} value")
        if (mat < 0).any():
            raise ParseError(f"negative {label} value")


def _plain(convert, text: str):
    """``convert(text)`` for an ASCII number; float() and int() would also take
    digit separators ("1_5") and non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return convert(text)


def _parse_cell(text: str, where: str) -> float:
    try:
        value = _plain(float, text)
    except ValueError:
        raise ParseError(f"malformed number {text!r} at {where}") from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"non-finite value {text!r} at {where}")
    if value < 0:
        raise ParseError(f"negative value {text!r} at {where}")
    return value


def _read_rows(source) -> list[tuple[int, list[str]]]:
    """The non-blank rows of a CSV path or open text stream, each with the
    line it starts on; one byte-order mark at the start of the text is
    skipped.

    A path's bytes that are not UTF-8 are read as lone surrogates, so the
    row that holds them is refused by its line number.  A text stream
    decodes its own bytes, in chunks that run ahead of the row being read,
    so a stream that fails to decode is refused with no line number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            return _read_rows(fh)
    rows, lineno = [], 1
    try:
        lines = iter(source)
        first = next(lines, "").removeprefix("\ufeff")
        reader = csv.reader(itertools.chain([first], lines))
        for row in reader:
            if any(c.strip() for c in row):
                ",".join(row).encode("utf-8")   # a lone surrogate does not encode
                rows.append((lineno, row))
            lineno = reader.line_num + 1   # a quoted field may span lines
    except UnicodeDecodeError as err:
        raise ParseError(f"text stream does not decode as {err.encoding.upper()}; "
                         f"its line is unknown") from None
    except UnicodeEncodeError:
        raise ParseError(f"line {lineno}: not UTF-8 text") from None
    except csv.Error as err:
        raise ParseError(f"line {lineno}: {err}") from None
    return rows


def _write_rows(dest, rows) -> None:
    # csv writes a float as its repr, the shortest text that reads back to the same bits
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return _write_rows(fh, rows)
    csv.writer(dest, lineterminator="\n").writerows(rows)


def load_dataset(source) -> Dataset:
    """Read a ``dataset.csv`` stream and return a normalized Dataset."""
    rows = _read_rows(source)
    if not rows:
        raise ParseError("empty dataset file")
    header = [h.strip() for h in rows[0][1]]
    if header.count("dmu") != 1:
        raise ParseError("header must contain exactly one 'dmu' column")
    id_col = header.index("dmu")
    in_cols = [(i, h[2:].strip()) for i, h in enumerate(header) if h.startswith("x:")]
    out_cols = [(i, h[2:].strip()) for i, h in enumerate(header) if h.startswith("y:")]
    known = {id_col} | {i for i, _ in in_cols} | {i for i, _ in out_cols}
    unknown = [header[i] for i in range(len(header)) if i not in known]
    if unknown:
        raise ParseError(f"unrecognized columns {unknown}; use 'x:'/'y:' prefixes")
    if not in_cols or not out_cols:
        raise ParseError("need at least one 'x:' and one 'y:' column")

    names, xs, ys = [], [], []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        names.append(row[id_col].strip())
        xs.append([_parse_cell(row[i], f"line {lineno}, column {header[i]!r}") for i, _ in in_cols])
        ys.append([_parse_cell(row[i], f"line {lineno}, column {header[i]!r}") for i, _ in out_cols])
    return Dataset(
        names=names,
        input_names=[name for _, name in in_cols],
        output_names=[name for _, name in out_cols],
        raw_inputs=np.array(xs, dtype=float),
        raw_outputs=np.array(ys, dtype=float),
    )


def write_dataset(ds: Dataset, dest) -> None:
    """Write a Dataset as ``dataset.csv``; raw values round-trip bit-exactly."""
    header = ["dmu"] + [f"x:{c}" for c in ds.input_names] + [f"y:{c}" for c in ds.output_names]
    _write_rows(dest, [header] + [
        [name] + xs + ys
        for name, xs, ys in zip(ds.names, ds.raw_inputs.tolist(), ds.raw_outputs.tolist())
    ])


def _read_keyed(source, names: list[str], kind: str, column: str, parse) -> list:
    """Read a ``dmu,<column>`` file: one parsed value per DMU of ``names``, in order.

    The header must be exactly ``dmu,<column>``, every row has two fields,
    and every DMU appears exactly once; a row naming another DMU is an error.
    """
    rows = _read_rows(source)
    if not rows or [h.strip() for h in rows[0][1]] != ["dmu", column]:
        raise ParseError(f"{kind} file must have header 'dmu,{column}'")
    seen = {}
    for lineno, row in rows[1:]:
        where = f"{kind} line {lineno}"
        if len(row) != 2:
            raise ParseError(f"{where}: expected 2 fields, got {len(row)}")
        name = row[0].strip()
        if name in seen:
            raise ValidationError(f"{where}: duplicate row for DMU {name!r}")
        if name not in names:
            raise ValidationError(f"{where}: unknown DMU {name!r}")
        seen[name] = parse(row[1], where)
    missing = [nm for nm in names if nm not in seen]
    if missing:
        raise ValidationError(f"{kind} file does not cover DMUs {missing}")
    return [seen[nm] for nm in names]


def _parse_group(text: str, where: str) -> int:
    try:
        gid = _plain(int, text)
    except ValueError:
        raise ParseError(f"{where}: group id {text!r} is not an integer") from None
    if gid < 1:
        raise ValidationError(f"{where}: group ids must be positive")
    return gid


def load_groups(source, names: list[str]) -> GroupAssignment:
    """Read a ``groups.csv`` stream for the given DMU names."""
    labels = np.array(_read_keyed(source, names, "groups", "group", _parse_group), dtype=int)
    return GroupAssignment(groups=labels, H=int(labels.max()))


def load_reference(source, names: list[str]) -> np.ndarray:
    """Read a ``dmu,phi`` reference share row for the given DMU names."""
    return np.array(_read_keyed(source, names, "reference", "phi", _parse_cell))


def load_matrix(source) -> CrossEfficiencyMatrix:
    """Read a ``matrix.csv`` stream into a CrossEfficiencyMatrix."""
    rows = [row for _, row in _read_rows(source)]
    if not rows:
        raise ParseError("empty matrix file")
    header = [h.strip() for h in rows[0]]
    names = header[1:]
    n = len(names)
    if n == 0 or len(rows) - 1 != n:
        raise ValidationError(f"matrix is not square: {len(rows) - 1} rows, {n} columns")
    values = np.empty((n, n), dtype=float)
    for d, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise ValidationError(f"matrix is not square: row {d + 1} has {len(row) - 1} cells")
        if row[0].strip() != names[d]:
            raise ValidationError(
                f"row name {row[0].strip()!r} does not match column name {names[d]!r}"
            )
        for j in range(n):
            v = _parse_cell(row[j + 1], f"matrix cell ({names[d]}, {names[j]})")
            if v > 1 + SCORE_UPPER_TOL:
                raise ValidationError(f"score {v} out of range at ({names[d]}, {names[j]})")
            values[d, j] = v
    return CrossEfficiencyMatrix(names=names, values=values)


def write_matrix(matrix: CrossEfficiencyMatrix, dest) -> None:
    """Write ``matrix.csv`` at full float precision, so reloading gives the same bits."""
    _write_rows(dest, [["dmu"] + matrix.names] + [
        [name] + row for name, row in zip(matrix.names, matrix.values.tolist())
    ])
