"""Peak resident memory of each shipped ``mcca`` command, one child each.

Usage: python tools/cli_peaks.py [--t N]

Runs the benchmark's ``cli`` round (``bench/workloads.py``: its ``CLI``
shape and ``CliWorkload.e2e_round``, seed 1) in a temporary directory,
with ``--t`` exemplars (default: the benchmark's 6000),
with one BLAS thread: ``synth``, ``fit``, ``fit --method one-step``,
``transform``, and ``isc`` once per component. Each command runs in its own
child Python process, which calls ``mcca.cli.main`` and then writes the
VmHWM line of its own /proc/self/status to stderr: that process's peak
resident set. A parent's RUSAGE_CHILDREN figure cannot give it, since Linux
carries ``ru_maxrss`` across fork and exec.

Prints one row per command: VmHWM in kB as the kernel reports it (KiB),
and in MB (1e6 bytes), the unit of the benchmark's ``peak_rss_mb``.
Linux only; ``mcca`` is imported from this checkout's src/.
"""

import argparse
import dataclasses
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/ is not a package)

SEED = 1

CHILD = """
import sys
from mcca.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")), end="", file=sys.stderr)
sys.exit(code)
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class PeakRound:
    """The ``rec`` of one ``e2e_round``: runs each step and prints its child's VmHWM."""

    def __init__(self, workload):
        self.env = dict(workload.child_env(), **dict.fromkeys(THREAD_VARS, "1"))
        self.kb = None
        workload.run_cli = self.run_cli

    def run_cli(self, *args):
        """Run one command in a child; its stdout. Exits on a failed command."""
        proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, args)],
                              capture_output=True, text=True, env=self.env)
        if proc.returncode != 0:
            sys.exit(f"mcca {' '.join(map(str, args))} exited {proc.returncode}: {proc.stderr.strip()}")
        self.kb = int(proc.stderr.splitlines()[-1].split()[1])
        return proc.stdout

    def step(self, label, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        print(f"{label:<24} {self.kb:>9} {self.kb * 1024 / 1e6:>7.2f}", flush=True)
        return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=int, default=workloads.CLI.n_exemplars,
                        help="exemplar count (default %(default)s)")
    spec = dataclasses.replace(workloads.CLI, n_exemplars=parser.parse_args(argv).t)
    print(f"{'command':<24} {'VmHWM_kB':>9} {'MB':>7}")
    with tempfile.TemporaryDirectory() as work:
        workload = workloads.CliWorkload(spec, SEED, work, ROOT)
        workload.e2e_round(PeakRound(workload))


if __name__ == "__main__":
    main()
