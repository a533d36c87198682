"""CSV data files and JSON model files.

Data files are UTF-8 CSV with an optional header row, T data rows, and one
column per feature; how columns group into sets travels out-of-band (the
CLI's --dims flag). A first row is a header when one of its fields does not
convert to a number; a first row of numbers, finite or not, is data. A
leading UTF-8 byte order mark is skipped. Floats are written with repr and
parsed as float() parses them, so they round-trip exactly and '.' is the
decimal separator in any locale. Body rows are written as joined reprs
ended by '\r\n', the bytes csv.writer writes for floats, one row at a time.

read_row_batches converts the records in batches of at most _BATCH_FIELDS
fields and yields each batch's array, so it holds one batch of text at a
time; the CLI streams its input through it. read_data_csv concatenates
the batches: it peaks at about twice the T x D result's bytes, while text
fields for a whole file take about eleven times. data_csv_writer appends
row batches to one data file; write_data_csv writes one array through it.

Model files are JSON with a schema_version field. save_model writes the
bytes of json.dump(indent=1) one array row at a time, floats at full
precision, after refusing any non-finite entry before it touches the file
(NaN, stored as null since JSON has none, is legal only in rho_empirical).
"""

import contextlib
import csv
import dataclasses
import itertools
import json

import numpy as np

from .data import _check_dims, _freeze, _is_int, _is_number, block_slices
from .errors import DataError, DimensionError
from .linalg import as_array
from .solver import MccaModel, RegularizationRecord

SCHEMA_VERSION = 1

# fields converted per batch by read_data_csv; large enough that the
# per-batch numpy call costs nothing, small enough that its text is small
_BATCH_FIELDS = 4096


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


@contextlib.contextmanager
def _open_text(path: str, **kwargs):
    """``open(path, **kwargs)`` to read text; bytes that do not decode raise DataError."""
    with open(path, **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _to_finite(rows) -> np.ndarray | None:
    """The rows as a float64 array; None if ragged, non-numeric or non-finite."""
    try:
        arr = np.array(rows, dtype=np.float64)
    except ValueError:
        return None
    return arr if np.isfinite(arr).all() else None


def _is_header(row) -> bool:
    """True when a field of ``row`` does not convert to a number."""
    try:
        for fieldtext in row:
            float(fieldtext)
    except ValueError:
        return True
    return False


def read_row_batches(path: str):
    """Yield the rows of a numeric CSV as float arrays, one batch at a time.

    A header row, if present, is skipped. Each batch holds at most
    ``max(1, _BATCH_FIELDS // D)`` rows of the D columns. Ragged rows,
    non-numeric or non-finite data fields, and empty files raise DataError
    naming the first offending line, once the batches before it have been
    yielded; a file that is not UTF-8 raises DataError naming the path.
    """
    with _open_text(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # line_num counts physical lines, so a quoted field spanning lines
        # does not shift the numbers of the records after it
        records = ((reader.line_num, row) for row in reader if row)
        first = next(records, None)
        if first is None:
            raise DataError(f"{path}: no data rows")
        if _is_header(first[1]) and (first := next(records, None)) is None:
            raise DataError(f"{path}: header but no data rows")
        width = len(first[1])
        rows_per_batch = max(1, _BATCH_FIELDS // width)
        records = itertools.chain([first], records)
        while batch := list(itertools.islice(records, rows_per_batch)):
            arr = _to_finite([row for _, row in batch])
            if arr is None or arr.shape[1] != width:
                # row by row, to name the batch's first bad line and column;
                # every earlier batch converted, so it is first in file order
                arr = np.array([_parse_row(row, path, line, width) for line, row in batch])
            yield arr


def read_data_csv(path: str) -> np.ndarray:
    """Read a numeric CSV as a T x D float array: the concatenated
    :func:`read_row_batches`, with the same errors."""
    return np.concatenate(list(read_row_batches(path)))


@contextlib.contextmanager
def data_csv_writer(path: str, header: list | None = None):
    """Open ``path`` as a data CSV, write ``header`` if given, and yield ``write``.

    ``write(rows)`` appends a batch of rows; a batch read_data_csv would
    refuse raises, naming ``path``, before any of its rows is written.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)

        def write(rows) -> None:
            arr = as_array(rows, f"{path}: array", 2)
            fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in arr)

        yield write


def write_data_csv(path: str, array: np.ndarray, header: list | None = None) -> None:
    """Write a T x D array as CSV, floats via repr for exact round-trips.

    An array read_data_csv would refuse raises before ``path`` is opened.
    """
    arr = as_array(array, f"{path}: array", 2)
    if header is not None and len(header) != arr.shape[1]:
        raise DimensionError(
            f"header has {len(header)} names for {arr.shape[1]} columns"
        )
    with data_csv_writer(path, header) as write:
        write(arr)


def projections_header(n_sets: int, n_components: int) -> list:
    """Column names of a projections CSV: set1_comp1, set1_comp2, ..., set-major."""
    return [f"set{l + 1}_comp{n + 1}" for l in range(n_sets) for n in range(n_components)]


def write_projections_csv(path: str, signals: tuple) -> None:
    """Write per-set component signals set-major, headed by :func:`projections_header`."""
    header = projections_header(len(signals), signals[0].shape[1])
    write_data_csv(path, np.hstack(signals), header=header)


def _dump(fh, obj, pad: str = "") -> None:
    """Write ``obj`` exactly as ``json.dump(obj, fh, indent=1)`` would.

    Only dicts and lists of lists are walked in Python; each list of scalars
    (a 1-D array, or one row of a 2-D array) is one C-level json.dumps call.
    """
    if isinstance(obj, np.ndarray):
        obj = obj.tolist() if obj.ndim == 1 else list(obj)
    inner = pad + " "
    if isinstance(obj, dict) and obj:
        brackets, items = "{}", [(json.dumps(k) + ": ", v) for k, v in obj.items()]
    elif obj and isinstance(obj, (list, tuple)) and isinstance(obj[0], (list, tuple, np.ndarray)):
        brackets, items = "[]", [("", v) for v in obj]
    else:  # a scalar, an empty container or a list of scalars
        text = json.dumps(obj, allow_nan=False, separators=(",\n" + inner, ": "))
        fh.write(f"[\n{inner}{text[1:-1]}\n{pad}]" if text[0] == "[" and obj else text)
        return
    fh.write(brackets[0])
    for i, (key, value) in enumerate(items):
        fh.write(f"{',' if i else ''}\n{inner}{key}")
        _dump(fh, value, inner)
    fh.write(f"\n{pad}{brackets[1]}")


def save_model(model: MccaModel, path: str) -> None:
    """Serialize a fitted model as JSON at full float precision.

    A non-finite array entry (NaN is allowed in rho_empirical) raises
    DataError naming the field before ``path`` is opened.
    """
    rho_e = model.rho_empirical
    for what, arr in [("V", model.V), ("means", np.concatenate(model.means)),
                      ("lambda", model.lambdas), ("rho_analytic", model.rho_analytic),
                      ("rho_empirical", rho_e[~np.isnan(rho_e)])]:
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: {what} holds a non-finite entry; model not saved")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": model.method,
        "dims": model.dims,
        "means": model.means,
        "reg": dataclasses.asdict(model.reg),
        "lambda": model.lambdas,
        "rho_analytic": model.rho_analytic,
        "rho_empirical": np.where(np.isnan(rho_e), None, rho_e),
        "V": [model.V[sl] for sl in block_slices(model.dims)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        _dump(fh, doc)
        fh.write("\n")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise DataError(f"{path}: missing field {key!r}")
    return doc[key]


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def _typed(doc: dict, key: str, path: str, kind: str, ok):
    """``doc[key]``, or DataError naming the field unless ``ok(doc[key])``."""
    value = _require(doc, key, path)
    if not ok(value):
        raise DataError(f"{path}: {key} must be {kind}, got {value!r:.60}")
    return value


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
    blocks = _typed(doc, key, path, "a list of blocks", lambda v: isinstance(v, list))
    if len(blocks) != len(shapes):
        raise DataError(
            f"{path}: {key} has {len(blocks)} blocks for {len(shapes)} sets"
        )
    return [
        _array_in(block, f"{path}: {key} block {l + 1}", shape)
        for l, (block, shape) in enumerate(zip(blocks, shapes))
    ]


def load_model(path: str) -> MccaModel:
    """Load a model file, validating encoding, schema, shapes and finiteness."""
    with _open_text(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: model file must hold a JSON object")
    version = _require(doc, "schema_version", path)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise DataError(
            f"{path}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    dims = _typed(doc, "dims", path, "a list of integers", _is_int_list)
    try:
        dims = _check_dims(dims)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    method = _typed(doc, "method", path, "a string", lambda v: isinstance(v, str))
    reg_doc = _typed(doc, "reg", path, "an object", lambda v: isinstance(v, dict))
    rank_tol = reg_doc.get("rank_tol")
    if not (rank_tol is None or _is_number(rank_tol)):
        raise DataError(f"{path}: rank_tol must be a finite number or null, got {rank_tol!r:.60}")
    reg = RegularizationRecord(
        gamma=float(_typed(reg_doc, "gamma", path, "a finite number", _is_number)),
        rank_tol=None if rank_tol is None else float(rank_tol),
        ranks=tuple(_typed(reg_doc, "ranks", path, "a list of integers", _is_int_list)),
    )
    lam = _require(doc, "lambda", path)
    k = len(lam) if isinstance(lam, list) else None  # None fails any shape check
    lambdas = _array_in(lam, f"{path}: lambda", (k,))
    return MccaModel(
        V=_freeze(np.vstack(_blocks_in(doc, "V", path, [(d, k) for d in dims]))),
        lambdas=lambdas,
        rho_analytic=_array_in(
            _require(doc, "rho_analytic", path), f"{path}: rho_analytic", (k,)
        ),
        rho_empirical=_array_in(
            _require(doc, "rho_empirical", path), f"{path}: rho_empirical", (k,), null_ok=True
        ),
        dims=dims,
        means=tuple(_blocks_in(doc, "means", path, [(d,) for d in dims])),
        method=method,
        reg=reg,
    )
