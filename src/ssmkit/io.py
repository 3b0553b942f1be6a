"""Model documents and observation series files.

Models are JSON objects with a "type" discriminator; series are CSV files
with header "t,y" (symbolic) or "t,y1,...,yd" (real) and a gap-free t
column starting at 1.  Tables are written column by column from an array:
integers as integers, floats with 17 significant digits so values
round-trip exactly.  Writers go through a temp file renamed into place so
no partial output survives an error.
"""

from __future__ import annotations

import csv
import difflib
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .errors import DataFormatError, ModelValidationError
from .models import (
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    _row_faults,
    validate_model,
)

__all__ = ["parse_model", "read_series", "write_series", "write_model", "write_table"]

# Document type -> model class and its keys in order, each with its array
# rank and the model field it holds.  Every field of a discrete HMM is a
# probability vector or a matrix of probability rows.
_SCHEMA = {
    "discrete_hmm": (
        DiscreteHMM,
        (("initial", 1, "initial"), ("transition", 2, "transition"), ("emission", 2, "emission")),
    ),
    "linear_gaussian": (
        LinearGaussianModel,
        (
            ("A", 2, "A"),
            ("C", 2, "C"),
            ("Q", 2, "Q"),
            ("R", 2, "R"),
            ("mu0", 1, "mu0"),
            ("sigma0", 2, "Sigma0"),
        ),
    ),
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _field_array(doc: dict, key: str, ndim: int) -> np.ndarray:
    if key not in doc:
        raise DataFormatError(f'missing field "{key}"')
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as err:
        raise DataFormatError(f'field "{key}" is not a numeric array: {err}') from None
    if arr.ndim != ndim:
        raise DataFormatError(
            f'field "{key}" must be {ndim}-dimensional, got {arr.ndim} dimensions'
        )
    if not np.all(np.isfinite(arr)):
        raise DataFormatError(f'field "{key}" contains non-finite entries')
    return arr


def _normalized(arr: np.ndarray, key: str) -> np.ndarray:
    # Rows within tolerance of summing to 1 are renormalized exactly once;
    # the first row beyond it is rejected as a real error, not rounding.
    rows = arr if arr.ndim == 2 else arr[None, :]
    sums, negative, off = _row_faults(rows)
    bad = np.flatnonzero(negative | off)
    if bad.size:
        i = bad[0]
        where = f"{key}[{i}]" if arr.ndim == 2 else key
        if negative[i]:
            raise ModelValidationError(f'"{where}" has negative entries')
        raise ModelValidationError(
            f'"{where}" sums to {sums[i]:.17g}, off by {sums[i] - 1.0:.3g}'
        )
    out = rows / sums[:, None]
    return out if arr.ndim == 2 else out[0]


def parse_model(path: str):
    """Load and validate a model document.

    Probability rows within 1e-12 of summing to 1 are renormalized; rows
    further off are rejected with the offending field named.  Unknown
    top-level keys are rejected, with a suggestion when one is close to a
    known key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise DataFormatError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise DataFormatError("model document must be a JSON object")
    kind = doc.get("type")
    if kind is None:
        raise DataFormatError('missing field "type"')
    if not isinstance(kind, str) or kind not in _SCHEMA:
        expected = " or ".join(f'"{name}"' for name in _SCHEMA)
        raise DataFormatError(f"unknown model type {kind!r}; expected {expected}")
    cls, keys = _SCHEMA[kind]
    allowed = [key for key, _, _ in keys]
    for key in doc:
        if key != "type" and key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suffix = f'; did you mean "{hint[0]}"?' if hint else ""
            raise DataFormatError(f'unknown key "{key}"{suffix}')

    fields = {}
    for key, ndim, field in keys:
        arr = _field_array(doc, key, ndim)
        fields[field] = _normalized(arr, key) if cls is DiscreteHMM else arr
    try:
        model = cls(**fields)
    except ModelValidationError as err:
        raise ModelValidationError(f"model document invalid: {err}") from None
    violations = validate_model(model)
    if violations:
        raise ModelValidationError("model document invalid: " + "; ".join(violations))
    return model


def read_series(path: str) -> ObservationSeries:
    """Load an observation series, inferring its kind from the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError(f"{path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if header == ["t", "y"]:
        kind = "symbolic"
        width = 2
    elif (
        len(header) >= 2
        and header[0] == "t"
        and header[1:] == [f"y{i}" for i in range(1, len(header))]
    ):
        kind = "real"
        width = len(header)
    else:
        raise DataFormatError(
            f'line 1: header must be "t,y" or "t,y1,...,yd", got {",".join(header)!r}'
        )
    # Blank rows are skipped: messages name the file's line, t counts data rows.
    n_rows = len(rows) - 1 - rows.count([])
    if not n_rows:
        raise DataFormatError(f"{path} has a header but no data rows")

    if kind == "symbolic":
        values = np.empty(n_rows, dtype=np.int64)
    else:
        values = np.empty((n_rows, width - 1))
    i = -1
    try:
        for record, row in enumerate(rows[1:], 1):
            if not row:
                continue
            i += 1
            if len(row) != width:
                raise DataFormatError(f"expected {width} columns, got {len(row)}")
            try:
                t = int(row[0])
            except ValueError:
                raise DataFormatError(f"t must be an integer, got {row[0]!r}") from None
            if t != i + 1:
                raise DataFormatError(f"expected t={i + 1}, got t={t}")
            if kind == "symbolic":
                try:
                    values[i] = int(row[1])
                except ValueError:
                    raise DataFormatError(
                        f"y must be an integer symbol, got {row[1]!r}"
                    ) from None
            else:
                for j, cell in enumerate(row[1:]):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DataFormatError(
                            f"y{j + 1} must be a number, got {cell!r}"
                        ) from None
                    if not math.isfinite(v):
                        raise DataFormatError(f"y{j + 1} must be finite")
                    values[i, j] = v
    except DataFormatError as err:
        # A quoted cell may span lines, so only a second read up to the
        # failing record tells the line it starts on.
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for _ in itertools.islice(reader, record):
                pass
            raise DataFormatError(f"line {reader.line_num + 1}: {err}") from None
    return ObservationSeries(values, kind=kind)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path: str, header: list[str], values, first_t: int = 1) -> None:
    """Write a CSV table: a t column counting from first_t, then values.

    values is a 2-D array, one row per step (1-D: one column).  An integer
    array is written as integers, a float array with 17 significant
    digits.  Columns are formatted whole and rows joined by map and zip.
    """
    values = np.asarray(values)
    # _fmt is looked up on every call, so a replaced formatter takes effect.
    fmt = str if np.issubdtype(values.dtype, np.integer) else _fmt
    columns = values.T.tolist() if values.ndim == 2 else [values.tolist()]
    steps = map(str, range(first_t, first_t + len(values)))
    lines = map(",".join, zip(steps, *(map(fmt, column) for column in columns)))
    _atomic_write(path, "\n".join([",".join(header), *lines]) + "\n")


def write_series(path: str, obs: ObservationSeries) -> None:
    """Write a series file in the format read_series accepts."""
    if obs.kind == "symbolic":
        header = ["t", "y"]
    else:
        header = ["t"] + [f"y{j}" for j in range(1, obs.values.shape[1] + 1)]
    write_table(path, header, obs.values)


def write_model(path: str, model) -> None:
    """Write a model document in the format parse_model accepts."""
    for kind, (cls, keys) in _SCHEMA.items():
        if isinstance(model, cls):
            doc = {"type": kind}
            for key, _, field in keys:
                doc[key] = getattr(model, field).tolist()
            _atomic_write(path, json.dumps(doc, indent=2) + "\n")
            return
    raise ValueError(f"cannot serialize {type(model).__name__}")
