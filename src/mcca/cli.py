"""Command-line entry points: fit, transform, isc, synth.

Data and tables go to standard output, diagnostics to standard error.
Exit codes: 0 success; 2 bad input: malformed or non-UTF-8 files, paths
that cannot be read or written, dimension mismatches and invalid options;
3 degenerate data (rank-deficient or zero-variance); 1 only for an
unexpected error. Column grouping is supplied with --dims (comma-separated
per-set widths) since the CSV files carry no set structure.

Each command reads its input and makes its output one row batch at a
time, so its memory does not grow with the row count, and writes each
output to a temporary file beside it, created before any input is read
and moved into place only when the command succeeds.
"""

import argparse
import contextlib
import errno
import os
import sys

import numpy as np

from . import fileio
from .data import CovarianceAccumulator, _check_dims, batch_rows, block_slices, load
from .errors import DataError, DegeneracyError, DimensionError
from .metrics import Projections, isc, transform
from .solver import DEFAULT_RANK_TOL, ONE_STEP, TWO_STEP, _check_options, fit
from .synth import SynthSpec, row_batches

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _dims_arg(text: str) -> tuple:
    try:
        return _check_dims([int(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


class _Output(os.PathLike):
    """A command's output file, written through a temporary file beside it.

    The temporary file is created at once, so a path that cannot be written
    fails before any work. The object opens as the temporary file and
    prints as the path given, so error messages name that path.
    """

    def __init__(self, path: str):
        self.path = self.tmp = path
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # a device or a pipe is written in place; a link's target is replaced
        self.target = None
        if os.path.isfile(path) or not os.path.exists(path):
            self.target = os.path.realpath(path)
            folder, name = os.path.split(self.target)
            self.tmp = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
            try:
                os.close(os.open(self.tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None

    def __fspath__(self) -> str:
        return self.tmp

    def __str__(self) -> str:
        return str(self.path)


@contextlib.contextmanager
def _outputs(*paths):
    """One :class:`_Output` per path (None for None), moved onto their
    targets when the block succeeds and removed when it fails. DataError
    if two of them would replace the same file."""
    outs = []
    try:
        for path in paths:
            outs.append(out := None if path is None else _Output(path))
            if getattr(out, "target", None) in [o.target for o in outs[:-1] if o and o.target]:
                raise DataError(f"{path}: another output is the same file, {out.target}")
        yield outs
        for out in outs:
            if out is not None and out.target is not None:
                os.replace(out.tmp, out.target)
    except BaseException:
        for out in outs:
            if out is not None and out.target is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out.tmp)
        raise


def _batches(args):
    """``--input``'s row batches, the first checked against ``--dims``."""
    for i, batch in enumerate(fileio.read_row_batches(args.input)):
        if i == 0 and batch.shape[1] != sum(args.dims):
            raise DimensionError(
                f"{args.input}: --dims {','.join(map(str, args.dims))} sums to {sum(args.dims)} "
                f"but the file has {batch.shape[1]} columns"
            )
        yield batch


def _regroup(batches, rows: int):
    """The rows of ``batches`` in batches of ``rows`` rows; the last takes
    the rest, joined to the batch before it if that rest is one row."""
    held = None
    for batch in batches:
        held = batch if held is None else np.concatenate([held, batch])
        while len(held) >= rows + 2:
            yield held[:rows]
            held = held[rows:]
    if held is not None:
        yield held


def _covariance(args):
    """The covariance blocks of ``--input``, read in one pass; the
    accumulator's chunk buffer is gone when this returns."""
    acc = CovarianceAccumulator(args.dims)
    for batch in _batches(args):
        acc.add(batch)
    return acc.covariance()


def cmd_fit(args) -> int:
    _check_options(args.method, args.rank_tol, args.gamma, args.k)
    with _outputs(args.output) as (output,):
        model = fit(_covariance(args), method=args.method, rank_tol=args.rank_tol,
                    gamma=args.gamma, k=args.k)
        fileio.save_model(model, output)
    print("component       lambda rho_analytic rho_empirical")
    for n in range(model.n_components):
        print(
            f"{n + 1:>9d} {model.lambdas[n]:>12.6f} "
            f"{model.rho_analytic[n]:>12.6f} {model.rho_empirical[n]:>13.6f}"
        )
    return EXIT_OK


def cmd_transform(args) -> int:
    with _outputs(args.output) as (output,):
        model = fileio.load_model(args.model)
        if args.dims != model.dims:
            raise DimensionError(
                f"--dims {','.join(map(str, args.dims))} does not match the model's "
                f"dims {','.join(map(str, model.dims))}"
            )
        slices = block_slices(args.dims)
        header = fileio.projections_header(len(args.dims), model.n_components)
        with fileio.data_csv_writer(output, header) as write:
            for batch in _regroup(_batches(args), batch_rows(sum(args.dims))):
                proj = transform(model, load([batch[:, sl] for sl in slices]))
                write(np.hstack(proj.signals))
    return EXIT_OK


def cmd_isc(args) -> int:
    if not 1 <= args.k <= min(args.dims):
        raise DimensionError(f"--k must lie in [1, {min(args.dims)}], got {args.k}")
    columns = [sl.start + args.k - 1 for sl in block_slices(args.dims)]
    kept = np.concatenate([batch[:, columns] for batch in _batches(args)])
    breakdown = isc(Projections(tuple(kept[:, l : l + 1] for l in range(len(columns)))), 0)
    print(f"r_between {breakdown.r_between!r}")
    print(f"r_within {breakdown.r_within!r}")
    print(f"rho {breakdown.rho!r}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.n is not None and args.n != len(args.dims):
        raise DataError(
            f"--n {args.n} disagrees with --dims, which lists {len(args.dims)} sets"
        )
    spec = SynthSpec(
        seed=args.seed,
        dims=args.dims,
        n_exemplars=args.t,
        n_components=args.k,
        snr=args.snr,
    )
    with _outputs(args.output, args.latents) as (output, latents):
        _, batches = row_batches(spec)
        no_latents = contextlib.nullcontext(lambda lat: None)
        latents_writer = no_latents if latents is None else fileio.data_csv_writer(latents)
        with fileio.data_csv_writer(output) as write_data, latents_writer as write_latents:
            for lat, sets in batches:
                write_data(np.hstack(sets))
                write_latents(lat)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcca",
        description="Multi-set canonical correlation analysis on CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", required=True, help="data CSV, optional header row")
    data.add_argument("--dims", required=True, type=_dims_arg,
                      help="comma-separated column count per set of --input")

    p = sub.add_parser("fit", parents=[data], help="fit shared components and save a model file")
    p.add_argument("--method", choices=(TWO_STEP, ONE_STEP), default=TWO_STEP)
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                   help="relative per-set eigenvalue cutoff (two-step only)")
    p.add_argument("--gamma", type=float, default=0.0,
                   help="ridge added to each set's covariance block")
    p.add_argument("--k", type=int, default=None,
                   help="components to keep (default: all retained)")
    p.add_argument("--output", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", parents=[data], help="project data through a saved model")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--output", required=True, help="projections CSV path")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("isc", parents=[data], help="inter-set correlation of a projections CSV")
    p.add_argument("--k", type=int, default=1,
                   help="1-based component to score (default 1)")
    p.set_defaults(func=cmd_isc)

    p = sub.add_parser("synth", help="generate synthetic data with shared components")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None,
                   help="set count; must equal the number of --dims entries")
    p.add_argument("--dims", required=True, type=_dims_arg)
    p.add_argument("--t", required=True, type=int, help="exemplar count")
    p.add_argument("--k", type=int, default=1, help="planted shared components")
    p.add_argument("--snr", type=float, default=np.inf,
                   help="signal-to-noise ratio; inf for noiseless, 0 for pure noise")
    p.add_argument("--output", required=True, help="data CSV path")
    p.add_argument("--latents", default=None, help="optional latent CSV path")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegeneracyError):
            return EXIT_DEGENERATE
        return EXIT_USAGE if isinstance(exc, (ValueError, OSError)) else EXIT_OTHER

