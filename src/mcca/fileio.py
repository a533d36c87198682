"""CSV data files and JSON model files.

Data files are UTF-8 CSV with an optional header row, T data rows, and one
column per feature; how columns group into sets travels out-of-band (the
CLI's --dims flag). A first row with any non-numeric field is treated as a
header. Floats are written with repr, which round-trips exactly, and
parsed with float(), so '.' is the decimal separator regardless of locale.

Model files are JSON with a schema_version field. Arrays keep full float
precision; NaN (possible in rho_empirical) is stored as null because JSON
has no NaN literal.
"""

import csv
import json

import numpy as np

from .data import _freeze, block_slices
from .errors import DataError, DimensionError
from .solver import MccaModel, RegularizationRecord

SCHEMA_VERSION = 1


def _parse_row(row, path: str, line: int) -> list:
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


def _is_numeric_row(row) -> bool:
    try:
        return all(np.isfinite(float(fieldtext)) for fieldtext in row)
    except ValueError:
        return False


def read_data_csv(path: str) -> np.ndarray:
    """Read a numeric CSV, skipping a header row if one is present.

    Returns a T x D float array. Ragged rows, non-numeric data fields, and
    empty files raise DataError naming the offending line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(i + 1, row) for i, row in enumerate(reader) if row]
    if not rows:
        raise DataError(f"{path}: no data rows")
    first_line, first = rows[0]
    start = 0 if _is_numeric_row(first) else 1
    if start == 1 and len(rows) == 1:
        raise DataError(f"{path}: header but no data rows")
    width = len(rows[start][1])
    data = []
    for line, row in rows[start:]:
        if len(row) != width:
            raise DataError(
                f"{path}: line {line} has {len(row)} fields, expected {width}"
            )
        data.append(_parse_row(row, path, line))
    return np.array(data, dtype=np.float64)


def write_data_csv(path: str, array: np.ndarray, header: list | None = None) -> None:
    """Write a T x D array as CSV, floats via repr for exact round-trips."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got shape {arr.shape}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            if len(header) != arr.shape[1]:
                raise DimensionError(
                    f"header has {len(header)} names for {arr.shape[1]} columns"
                )
            writer.writerow(header)
        for row in arr:
            writer.writerow([repr(float(x)) for x in row])


def projection_header(n_sets: int, n_components: int) -> list:
    """Set-major column names: set1_comp1, set1_comp2, ..., set2_comp1, ..."""
    return [
        f"set{l + 1}_comp{n + 1}"
        for l in range(n_sets)
        for n in range(n_components)
    ]


def write_projections_csv(path: str, signals: tuple) -> None:
    """Write per-set component signals set-major with a naming header."""
    stacked = np.hstack(signals)
    write_data_csv(
        path, stacked, header=projection_header(len(signals), signals[0].shape[1])
    )


def _array_out(arr: np.ndarray) -> list:
    """Nested lists with NaN replaced by None for strict JSON."""
    out = arr.tolist()

    def swap(x):
        if isinstance(x, list):
            return [swap(v) for v in x]
        return None if x != x else x

    return swap(out)


def _array_in(nested, what: str) -> np.ndarray:
    def swap(x):
        if isinstance(x, list):
            return [swap(v) for v in x]
        if x is None:
            return np.nan
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise DataError(f"model file: {what} holds a non-numeric entry {x!r}")
        return float(x)

    try:
        return np.array(swap(nested), dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"model file: {what} is ragged or malformed: {exc}") from None


def save_model(model: MccaModel, path: str) -> None:
    """Serialize a fitted model as JSON at full float precision."""
    slices = block_slices(model.dims)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": model.method,
        "dims": list(model.dims),
        "means": [_array_out(m) for m in model.means],
        "reg": {
            "gamma": model.reg.gamma,
            "rank_tol": model.reg.rank_tol,
            "ranks": list(model.reg.ranks),
        },
        "lambda": _array_out(model.lambdas),
        "rho_analytic": _array_out(model.rho_analytic),
        "rho_empirical": _array_out(model.rho_empirical),
        "V": [_array_out(model.V[sl, :]) for sl in slices],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise DataError(f"model file: missing field {key!r}")
    return doc[key]


def load_model(path: str) -> MccaModel:
    """Load a model file, validating schema and shape consistency."""
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
    reg = RegularizationRecord(
        gamma=float(_require(reg_doc, "gamma")),
        rank_tol=(
            None
            if reg_doc.get("rank_tol") is None
            else float(reg_doc["rank_tol"])
        ),
        ranks=tuple(int(r) for r in _require(reg_doc, "ranks")),
    )
    lambdas = _array_in(_require(doc, "lambda"), "lambda")
    rho_a = _array_in(_require(doc, "rho_analytic"), "rho_analytic")
    rho_e = _array_in(_require(doc, "rho_empirical"), "rho_empirical")
    k = lambdas.shape[0]
    if lambdas.ndim != 1 or rho_a.shape != (k,) or rho_e.shape != (k,):
        raise DataError(f"{path}: lambda and rho arrays disagree in length")
    blocks = _require(doc, "V")
    if len(blocks) != len(dims):
        raise DataError(f"{path}: V has {len(blocks)} blocks for {len(dims)} sets")
    v_parts = []
    for l, block in enumerate(blocks):
        arr = _array_in(block, f"V block {l + 1}")
        if arr.ndim != 2 or arr.shape != (dims[l], k):
            raise DataError(
                f"{path}: V block {l + 1} has shape {arr.shape}, "
                f"expected {(dims[l], k)}"
            )
        v_parts.append(arr)
    means_doc = _require(doc, "means")
    if len(means_doc) != len(dims):
        raise DataError(f"{path}: means has {len(means_doc)} blocks for {len(dims)} sets")
    means = []
    for l, m in enumerate(means_doc):
        arr = _array_in(m, f"means block {l + 1}")
        if arr.shape != (dims[l],):
            raise DataError(
                f"{path}: means block {l + 1} has shape {arr.shape}, "
                f"expected {(dims[l],)}"
            )
        means.append(_freeze(arr))
    return MccaModel(
        V=_freeze(np.vstack(v_parts)),
        lambdas=_freeze(lambdas),
        rho_analytic=_freeze(rho_a),
        rho_empirical=_freeze(rho_e),
        dims=dims,
        means=tuple(means),
        method=str(method),
        reg=reg,
    )
