"""Deterministic CSV and JSON input/output.

CSV floats are written with repr(), the shortest representation that
round-trips to the identical double, so write-then-read is bit-exact.
JSON reports sort keys and carry no timestamps, so identical inputs give
byte-identical files.  Malformed input is a hard error with a 1-based
line number; nothing is silently dropped.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .fitting import FitResult
from .simulate import ReplicateRow
from .smoothers import Dataset

__all__ = [
    "DatasetFormatError",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_fit_curves_csv",
    "read_fit_curves_csv",
    "write_replicate_rows_csv",
    "dumps_report",
    "write_json_report",
]

DATASET_HEADER = ["y", "u", "v"]
CURVES_HEADER = ["index", "u", "m1_hat", "v", "m2_hat", "y", "residual"]
ROWS_HEADER = ["replicate", "max_gap_u", "max_gap_v", "gap_ok", "certified", "rho_product"]


class DatasetFormatError(ValueError):
    """Input file violates the expected tabular format."""


def _parse_float(field: str, line_no: int, path: Path) -> float:
    try:
        value = float(field)
    except ValueError:
        raise DatasetFormatError(
            f"{path}:{line_no}: non-numeric field {field!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"{path}:{line_no}: non-finite value {field!r}")
    return value


def read_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset from a CSV file with the exact header ``y,u,v``."""
    path = Path(path)
    ys: list[float] = []
    us: list[float] = []
    vs: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DATASET_HEADER:
            got = "<empty file>" if header is None else ",".join(header)
            raise DatasetFormatError(
                f"{path}:1: expected header {','.join(DATASET_HEADER)!r}, got {got!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DatasetFormatError(
                    f"{path}:{line_no}: expected 3 fields, got {len(row)}"
                )
            ys.append(_parse_float(row[0], line_no, path))
            us.append(_parse_float(row[1], line_no, path))
            vs.append(_parse_float(row[2], line_no, path))
    if len(ys) < 2:
        raise DatasetFormatError(f"{path}: need at least 2 data rows, got {len(ys)}")
    return Dataset(y=np.array(ys), u=np.array(us), v=np.array(vs))


def _write_rows(path: str | Path, header: list[str], rows) -> None:
    """Write a header and rows of formatted fields as comma-separated lines.

    No field needs quoting: every one is an integer, a float repr, a flag
    or empty.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _float_columns(*columns: np.ndarray):
    """The repr of every value, row by row, of equal-length float columns."""
    return zip(*(map(repr, np.asarray(c, dtype=float).tolist()) for c in columns))


def write_dataset_csv(path: str | Path, data: Dataset) -> None:
    _write_rows(path, DATASET_HEADER, _float_columns(data.y, data.u, data.v))


def write_fit_curves_csv(path: str | Path, data: Dataset, fit: FitResult) -> None:
    """Write per-observation fitted components, one row per sample point."""
    if fit.n != data.n:
        raise ValueError(f"fit has n={fit.n} but dataset has n={data.n}")
    values = _float_columns(
        data.u, fit.m1_hat, data.v, fit.m2_hat, data.y, fit.residuals(data.y)
    )
    _write_rows(path, CURVES_HEADER, ((str(i), *row) for i, row in enumerate(values)))


def read_fit_curves_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a curves file back into column arrays keyed by header name."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CURVES_HEADER:
            raise DatasetFormatError(
                f"{path}:1: expected header {','.join(CURVES_HEADER)!r}"
            )
        columns: dict[str, list[float]] = {name: [] for name in CURVES_HEADER}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CURVES_HEADER):
                raise DatasetFormatError(
                    f"{path}:{line_no}: expected {len(CURVES_HEADER)} fields, got {len(row)}"
                )
            for name, field in zip(CURVES_HEADER, row):
                columns[name].append(_parse_float(field, line_no, path))
    out = {name: np.array(vals) for name, vals in columns.items()}
    out["index"] = out["index"].astype(int)
    return out


def write_replicate_rows_csv(path: str | Path, rows: list[ReplicateRow]) -> None:
    """Write per-replicate study rows; unset optional fields are blank."""

    def flag(value: bool | None) -> str:
        return "" if value is None else ("true" if value else "false")

    _write_rows(
        path,
        ROWS_HEADER,
        (
            (
                str(r.replicate),
                repr(r.max_gap_u),
                repr(r.max_gap_v),
                flag(r.gap_ok),
                flag(r.certified),
                "" if r.rho_product is None else repr(r.rho_product),
            )
            for r in rows
        ),
    )


def dumps_report(obj: dict) -> str:
    """Serialize a report dict deterministically (sorted keys, no NaN)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json_report(path: str | Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(obj))
