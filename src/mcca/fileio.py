"""CSV data files and JSON model files.

Data files are UTF-8 CSV with an optional header row, T data rows, and one
column per feature; how columns group into sets travels out-of-band (the
CLI's --dims flag). A first row with any non-numeric field is treated as a
header. Floats are written with repr and parsed as float() parses them, so
they round-trip exactly and '.' is the decimal separator in any locale.

Model files are JSON with a schema_version field. Arrays keep full float
precision; NaN (legal only in rho_empirical) is stored as null because JSON
has no NaN literal. Every other array entry must be a finite number.
"""

import csv
import json

import numpy as np

from .data import _freeze, block_slices
from .errors import DataError, DimensionError
from .solver import MccaModel, RegularizationRecord

SCHEMA_VERSION = 1


def _parse_row(row, path: str, line: int, width: int) -> list:
    if len(row) != width:
        raise DataError(f"{path}: line {line} has {len(row)} fields, expected {width}")
    out = []
    for j, fieldtext in enumerate(row):
        try:
            value = float(fieldtext)
        except ValueError:
            raise DataError(
                f"{path}: line {line}, column {j + 1}: {fieldtext!r} is not a number"
            ) from None
        if not np.isfinite(value):
            raise DataError(
                f"{path}: line {line}, column {j + 1}: value {fieldtext!r} is not finite"
            )
        out.append(value)
    return out


def _to_finite(rows) -> np.ndarray | None:
    """The rows as a float64 array; None if ragged, non-numeric or non-finite."""
    try:
        arr = np.array(rows, dtype=np.float64)
    except ValueError:
        return None
    return arr if np.isfinite(arr).all() else None


def read_data_csv(path: str) -> np.ndarray:
    """Read a numeric CSV, skipping a header row if one is present.

    Returns a T x D float array. Ragged rows, non-numeric data fields, and
    empty files raise DataError naming the offending line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise DataError(f"{path}: no data rows")
    body = rows if _to_finite(rows[0][1]) is not None else rows[1:]
    if not body:
        raise DataError(f"{path}: header but no data rows")
    if (arr := _to_finite([row for _, row in body])) is not None:
        return arr
    # row by row, to name the first bad line and column in file order
    width = len(body[0][1])
    return np.array([_parse_row(row, path, line, width) for line, row in body])


def write_data_csv(path: str, array: np.ndarray, header: list | None = None) -> None:
    """Write a T x D array as CSV, floats via repr for exact round-trips."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got shape {arr.shape}")
    if header is not None and len(header) != arr.shape[1]:
        raise DimensionError(
            f"header has {len(header)} names for {arr.shape[1]} columns"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(row.tolist() for row in arr)


def projection_header(n_sets: int, n_components: int) -> list:
    """Set-major column names: set1_comp1, set1_comp2, ..., set2_comp1, ..."""
    return [
        f"set{l + 1}_comp{n + 1}"
        for l in range(n_sets)
        for n in range(n_components)
    ]


def write_projections_csv(path: str, signals: tuple) -> None:
    """Write per-set component signals set-major with a naming header."""
    header = projection_header(len(signals), signals[0].shape[1])
    write_data_csv(path, np.hstack(signals), header=header)


def save_model(model: MccaModel, path: str) -> None:
    """Serialize a fitted model as JSON at full float precision."""
    rho_e = model.rho_empirical
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": model.method,
        "dims": list(model.dims),
        "means": [m.tolist() for m in model.means],
        "reg": {
            "gamma": model.reg.gamma,
            "rank_tol": model.reg.rank_tol,
            "ranks": list(model.reg.ranks),
        },
        "lambda": model.lambdas.tolist(),
        "rho_analytic": model.rho_analytic.tolist(),
        "rho_empirical": np.where(np.isnan(rho_e), None, rho_e).tolist(),
        "V": [model.V[sl, :].tolist() for sl in block_slices(model.dims)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise DataError(f"model file: missing field {key!r}")
    return doc[key]


def _array_in(value, what: str, shape: tuple, null_ok: bool = False) -> np.ndarray:
    """Decode a JSON array of the given shape to a read-only float64 array.

    Entries must be finite JSON numbers, except that where ``null_ok``,
    null and NaN read as NaN.
    """
    arr = np.array(value, dtype=object)
    if arr.shape != shape:
        raise DataError(f"{what} has shape {arr.shape}, expected {shape}")
    allowed = (float, int, type(None)) if null_ok else (float, int)
    if not set(map(type, arr.flat)).issubset(allowed):
        bad = next(x for x in arr.flat if type(x) not in allowed)
        raise DataError(f"{what} holds a non-numeric entry {bad!r}")
    try:
        out = arr.astype(np.float64)
    except OverflowError:  # an integer beyond the float range
        out = np.array(np.inf)
    if not np.isfinite(out[~np.isnan(out)] if null_ok else out).all():
        raise DataError(f"{what} holds a non-finite entry")
    return _freeze(out)


def _blocks_in(doc: dict, key: str, path: str, shapes: list) -> list:
    blocks = _require(doc, key)
    if len(blocks) != len(shapes):
        raise DataError(
            f"{path}: {key} has {len(blocks)} blocks for {len(shapes)} sets"
        )
    return [
        _array_in(block, f"{path}: {key} block {l + 1}", shape)
        for l, (block, shape) in enumerate(zip(blocks, shapes))
    ]


def load_model(path: str) -> MccaModel:
    """Load a model file, validating schema, shapes and finiteness."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: model file must hold a JSON object")
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"{path}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    dims = tuple(int(d) for d in _require(doc, "dims"))
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DataError(f"{path}: invalid dims {dims}")
    method = _require(doc, "method")
    reg_doc = _require(doc, "reg")
    rank_tol = reg_doc.get("rank_tol")
    reg = RegularizationRecord(
        gamma=float(_require(reg_doc, "gamma")),
        rank_tol=None if rank_tol is None else float(rank_tol),
        ranks=tuple(int(r) for r in _require(reg_doc, "ranks")),
    )
    lam = _require(doc, "lambda")
    k = len(lam) if isinstance(lam, list) else None  # None fails any shape check
    lambdas = _array_in(lam, f"{path}: lambda", (k,))
    return MccaModel(
        V=_freeze(np.vstack(_blocks_in(doc, "V", path, [(d, k) for d in dims]))),
        lambdas=lambdas,
        rho_analytic=_array_in(
            _require(doc, "rho_analytic"), f"{path}: rho_analytic", (k,)
        ),
        rho_empirical=_array_in(
            _require(doc, "rho_empirical"), f"{path}: rho_empirical", (k,), null_ok=True
        ),
        dims=dims,
        means=tuple(_blocks_in(doc, "means", path, [(d,) for d in dims])),
        method=str(method),
        reg=reg,
    )
