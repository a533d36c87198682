"""Command-line entry points: fit, transform, isc, synth.

Data and tables go to standard output, diagnostics to standard error.
Exit codes: 0 success; 2 bad input: malformed or non-UTF-8 files, paths
that cannot be read or written, dimension mismatches and invalid options;
3 degenerate data (rank-deficient or zero-variance); 1 only for an
unexpected error. Column grouping is supplied with --dims (comma-separated
per-set widths) since the CSV files carry no set structure.
"""

import argparse
import sys

import numpy as np

from . import fileio
from .data import _check_dims, block_slices, load
from .errors import DataError, DegeneracyError, DimensionError
from .metrics import Projections, isc, transform
from .solver import DEFAULT_RANK_TOL, ONE_STEP, TWO_STEP, fit
from .synth import SynthSpec, generate

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _dims_arg(text: str) -> tuple:
    try:
        return _check_dims([int(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _read_sets(args) -> list:
    arr = fileio.read_data_csv(args.input)
    if sum(args.dims) != arr.shape[1]:
        raise DimensionError(
            f"{args.input}: --dims {','.join(map(str, args.dims))} sums to {sum(args.dims)} "
            f"but the file has {arr.shape[1]} columns"
        )
    return [arr[:, sl] for sl in block_slices(args.dims)]


def cmd_fit(args) -> int:
    data = load(_read_sets(args))
    model = fit(data, method=args.method, rank_tol=args.rank_tol, gamma=args.gamma, k=args.k)
    fileio.save_model(model, args.output)
    print("component       lambda rho_analytic rho_empirical")
    for n in range(model.n_components):
        print(
            f"{n + 1:>9d} {model.lambdas[n]:>12.6f} "
            f"{model.rho_analytic[n]:>12.6f} {model.rho_empirical[n]:>13.6f}"
        )
    return EXIT_OK


def cmd_transform(args) -> int:
    model = fileio.load_model(args.model)
    if args.dims != model.dims:
        raise DimensionError(
            f"--dims {','.join(map(str, args.dims))} does not match the model's "
            f"dims {','.join(map(str, model.dims))}"
        )
    data = load(_read_sets(args))
    proj = transform(model, data)
    fileio.write_projections_csv(args.output, proj.signals)
    return EXIT_OK


def cmd_isc(args) -> int:
    sets = _read_sets(args)
    if not 1 <= args.k <= min(args.dims):
        raise DimensionError(f"--k must lie in [1, {min(args.dims)}], got {args.k}")
    signals = tuple(s[:, args.k - 1 : args.k] for s in sets)
    breakdown = isc(Projections(signals), 0)
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
    result = generate(spec)
    fileio.write_data_csv(args.output, np.hstack(result.data.sets))
    if args.latents is not None:
        fileio.write_data_csv(args.latents, result.latents)
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


if __name__ == "__main__":
    sys.exit(main())
