"""Benchmark of the mcca package: end-to-end and per-layer figures, with checks.

Run from the root of the repository:

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0

``--workload`` is ``wide``, ``tall`` or ``cli`` (see bench/README.md).
With ``--trace 0`` the run times untraced rounds and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds of the layer-by-layer calls, reports the per-layer metrics and the
tracing overhead, and writes its spans to ``bench/out/``. Either way it
then checks the outputs against computations made apart from the package,
checks that those checks reject corrupted copies of the outputs, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# Every BLAS/OpenMP pool in this process and in each child it starts gets
# this many threads, whatever the environment says; never more than nproc.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# timed rounds per run, at the least; a round of wide takes about 11 s
MIN_CYCLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("wide", "tall", "cli"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="timed part of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def src_lines():
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mcca" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    # numpy reads the thread variables when it is first imported
    import numpy as np

    from checks import run_checks, self_test
    from harness import Budget, Recorder, Tracer
    from workloads import WORKLOADS, import_mcca

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": threads,
        "numpy": np.__version__,
        "nproc": nproc,
        "src_lines": src_lines(),
    }
    print("context " + json.dumps(context), flush=True)
    mcca_file = Path(import_mcca().__file__).resolve()
    if ROOT / "src" not in mcca_file.parents:
        print(f"error: mcca imported from {mcca_file}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as workdir:
        work = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        started = time.perf_counter()
        work.setup()
        budget = Budget(args.seconds)
        if args.trace:
            tracer = Tracer()
            untraced, traced = budget.run(
                (work.peak_round, lambda: Recorder(label="warm-up")),
                [
                    (work.layer_round, Recorder),
                    (work.layer_round, lambda: Recorder(tracer, probes=True)),
                ],
                min_cycles=1,
            )
            if not traced:
                return report(context, tag, budget, {}, None, None)
            metrics = {**work.layer_metrics(traced), **work.overhead(untraced, traced)}
            context["rounds"] = [rec.times for rec in untraced + traced]
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"context": context, "spans": tracer.spans}, fh)
        else:
            (rounds,) = budget.run(
                (work.warmup_round, Recorder), [(work.e2e_round, Recorder)], MIN_CYCLES
            )
            if not rounds:
                return report(context, tag, budget, {}, None, None)
            metrics = work.e2e_metrics(rounds)
            context["rounds"] = [rec.times for rec in rounds]
        context["measured_s"] = time.perf_counter() - started

        outcome = work.outcome()
        results = run_checks(work.check_set, outcome)
        rejected = self_test(work.check_set, work.corruption_set, outcome)
    return report(context, tag, budget, metrics, results, rejected)


def report(context, tag, budget, metrics, results, rejected):
    """Print the figures and checks, save them, and print the JSON result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for name, (ok, detail) in (results or {}).items():
        print(f"check {name:16s} {'ok' if ok else 'FAILED'}: {detail}")
    for label, caught in (rejected or {}).items():
        print(f"self-test {'rejected' if caught else 'NOT REJECTED'}: {label}")
    correct = (
        results is not None
        and all(ok for ok, _ in results.values())
        and all(rejected.values())
    )
    line = {
        "correct": bool(correct),
        "attempted": budget.attempted,
        "failed": budget.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "context": context,
        **line,
        "checks": {name: {"ok": bool(ok), "detail": d} for name, (ok, d) in (results or {}).items()},
        "self_test": rejected,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line), flush=True)
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
