"""The three workloads: inputs, the timed rounds, and the figures they give.

``wide`` and ``tall`` call the library in process on arrays made here with
numpy's seeded generator; ``cli`` runs the shipped ``mcca`` commands as
child processes on data made by ``mcca synth``. Each workload has

* ``e2e_round``: the untraced round whose medians are the end-to-end
  metrics;
* ``layer_round``: the same calls made one public function at a time, with
  extra *probe* calls that expose layers hidden inside another call
  (whiten, the eigensolves, ``isc_from_cov``, synth and CSV, ``--help``);
* ``outcome``: the arrays the independent checks need, from the last round.
"""

import importlib
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from harness import call_median, median, round_median

MB = 1e6
# import + load and transform + isc are short on wide and tall; repeating
# them within each round gives setup_s and apply_s several samples per round.
SETUP_REPEATS = 5
APPLY_REPEATS = 3


def import_mcca():
    """Import the package afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "mcca" or n.startswith("mcca.")]:
        del sys.modules[name]
    return importlib.import_module("mcca")


def with_peak(peaks, key, fn, *args, **kwargs):
    """Call ``fn``; when ``peaks`` is a dict, store its tracemalloc peak in MB."""
    if peaks is None:
        return fn(*args, **kwargs)
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peaks[key] = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    return result


def synth_draws(n_exemplars, dims, k):
    """Normal variates ``mcca.generate`` draws: latents, mixing, noise."""
    return n_exemplars * k + sum(dims) * k + n_exemplars * sum(dims)


def general_eig_input(cov):
    """inv(D) R built block by block with numpy, as the one-step route forms it."""
    out = np.empty_like(cov.R)
    for sl in checks.slices(cov.dims):
        out[sl, :] = np.linalg.solve(cov.R[sl, sl], cov.R[sl, :])
    return out


class Workload:
    """Shared bookkeeping: the work directory, peaks and layer figures."""

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.workdir = Path(workdir)
        self.root = Path(root)
        self.peaks = None  # a dict while peak_round runs
        self.last = {}
        self.extra = {}

    def child_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def run_cli(self, *args):
        """Run one ``mcca`` command; raise on a non-zero exit code."""
        proc = subprocess.run(
            [sys.executable, "-m", "mcca", *map(str, args)],
            cwd=self.root,
            env=self.child_env(),
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"mcca {args[0]} exited {proc.returncode}: {proc.stderr.strip()}"
            )
        return proc.stdout

    def warmup_round(self, rec):
        self.e2e_round(rec)

    def peak_round(self, rec):
        """The warm-up of a traced run: a layer round that also takes the
        tracemalloc peaks of ``covariance`` and ``fit_two_step``."""
        self.peaks = {}
        try:
            self.layer_round(rec)
        finally:
            self.extra.update(self.peaks)
            self.peaks = None

    def overhead(self, untraced, traced):
        base = median([rec.total for rec in untraced])
        extra = median([rec.total for rec in traced]) - base
        return {
            "trace.overhead_s": (extra, "s"),
            "trace.overhead_pct": (100.0 * extra / base, "%"),
        }

    def layer_metrics(self, traced):
        """Per-layer figures from the traced rounds."""
        self.extra["data_csv_mb"] = self.data_csv.stat().st_size / MB
        self.extra["model_mb"] = self.model.stat().st_size / MB
        finish = median(
            [
                rec.times["solver.fit_two_step"]
                - rec.times["solver.whiten"]
                - rec.times["linalg.sym_eig"]
                for rec in traced
            ]
        )
        return {
            "synth.generate_s": (call_median(traced, "synth.generate"), "s"),
            "synth.draws_per_s": (self.extra["draws"] / call_median(traced, "synth.generate"), "1/s"),
            "fileio.write_data_csv_s": (call_median(traced, "fileio.write_data_csv:data"), "s"),
            "fileio.read_data_csv_s": (call_median(traced, "fileio.read_data_csv:data"), "s"),
            "fileio.data_csv_mb": (self.extra["data_csv_mb"], "MB"),
            "fileio.save_model_s": (call_median(traced, "fileio.save_model"), "s"),
            "fileio.load_model_s": (call_median(traced, "fileio.load_model"), "s"),
            "fileio.model_mb": (self.extra["model_mb"], "MB"),
            "data.load_s": (call_median(traced, "data.load:train"), "s"),
            "data.center_s": (call_median(traced, "data.center"), "s"),
            "data.covariance_s": (call_median(traced, "data.covariance"), "s"),
            "data.covariance_peak_mb": (self.extra["data.covariance_peak_mb"], "MB"),
            "solver.whiten_s": (call_median(traced, "solver.whiten"), "s"),
            "linalg.sym_eig_s": (call_median(traced, "linalg.sym_eig"), "s"),
            "linalg.general_eig_real_s": (call_median(traced, "linalg.general_eig_real"), "s"),
            "solver.fit_two_step_s": (call_median(traced, "solver.fit_two_step"), "s"),
            "solver.fit_one_step_s": (call_median(traced, "solver.fit_one_step"), "s"),
            "solver.finish_s": (finish, "s"),
            "metrics.isc_from_cov_s": (round_median(traced, "metrics.isc_from_cov"), "s"),
            "solver.fit_peak_mb": (self.extra["solver.fit_peak_mb"], "MB"),
            "solver.components": (self.last["components"], "count"),
            "metrics.transform_s": (call_median(traced, "metrics.transform"), "s"),
            # the isc calls that follow one transform
            "metrics.isc_s": (
                median([rec.times["metrics.isc"] / rec.calls["metrics.transform"] for rec in traced]),
                "s",
            ),
            "cli.startup_s": (call_median(traced, "cli.startup"), "s"),
        }

    def fit_layers(self, rec, m, data, k=None):
        """center -> covariance -> fit_two_step, with whiten and sym_eig probes."""
        centered = rec.step("data.center", m.center, data)
        cov = with_peak(self.peaks, "data.covariance_peak_mb", rec.step, "data.covariance", m.covariance, centered)
        if rec.probes:
            basis = rec.step("solver.whiten", m.whiten, cov, probe=True)
            rec.step("linalg.sym_eig", m.sym_eig, basis.rtilde, probe=True)
        model = with_peak(self.peaks, "solver.fit_peak_mb", rec.step, "solver.fit_two_step", m.fit_two_step, cov, k=k)
        return cov, model

    def fit_one_step_layers(self, rec, m, data, k=None):
        centered = rec.step("data.center", m.center, data)
        cov = rec.step("data.covariance", m.covariance, centered)
        return rec.step("solver.fit_one_step", m.fit_one_step, cov, k=k)

    def solver_probes(self, rec, m, cov, model):
        """The one-step eigensolve, rho_empirical's ISC per component, and CLI start-up."""
        rec.step("linalg.general_eig_real", m.general_eig_real, general_eig_input(cov), probe=True)
        for n in range(model.n_components):
            rec.step("metrics.isc_from_cov", m.isc_from_cov, cov, model.V[:, n], probe=True, collect=n == 0)
        rec.step("cli.startup", self.run_cli, "--help", probe=True)


# --- wide and tall: the library in process -----------------------------------


@dataclass(frozen=True)
class LibrarySpec:
    """Sizes of a library workload and its planted structure.

    ``rhos`` are the planted inter-set correlations of the shared
    components; ``n_leading`` components are scored by ``isc`` after
    ``transform``; ``probe_rows`` rows of the training data go through the
    CSV and synth probes.
    """

    n_sets: int
    dim: int
    n_train: int
    n_held: int
    rhos: tuple
    n_leading: int
    probe_rows: int


WIDE = LibrarySpec(n_sets=16, dim=64, n_train=3000, n_held=2000,
                   rhos=(0.8, 0.6, 0.45, 0.3), n_leading=8, probe_rows=256)
TALL = LibrarySpec(n_sets=3, dim=64, n_train=200_000, n_held=20_000,
                   rhos=(0.7, 0.5, 0.3), n_leading=7, probe_rows=2000)


def planted_sets(spec, seed):
    """Training and held-out sets with ``len(rhos)`` shared components.

    Set l is ``s diag(c) A_l' + e`` scaled by ``scale_l`` and shifted by
    ``offset_l``, with ``s`` and ``e`` standard normal, ``A_l`` a random
    d x K matrix with orthonormal columns and c_j^2 = rho_j / (1 - rho_j).
    Projecting set l on column j of ``A_l`` gives c_j s_j plus unit noise,
    so component j's inter-set correlation is exactly rho_j; the scales and
    offsets, which MCCA ignores, change nothing of that.
    """
    rng = np.random.default_rng([seed, 0])
    rhos = np.array(spec.rhos)
    amp = np.sqrt(rhos / (1.0 - rhos))
    k = len(rhos)
    mixing = [np.linalg.qr(rng.standard_normal((spec.dim, k)))[0] * amp for _ in range(spec.n_sets)]
    scales = 10.0 ** rng.uniform(-1.0, 1.0, spec.n_sets)
    offsets = rng.uniform(-5.0, 5.0, (spec.n_sets, spec.dim))

    def draw(stream, rows):
        gen = np.random.default_rng([seed, stream])
        latents = gen.standard_normal((rows, k))
        sets = []
        for a, scale, offset in zip(mixing, scales, offsets):
            x = gen.standard_normal((rows, spec.dim))
            x += latents @ a.T
            x *= scale
            x += offset
            sets.append(x)
        return sets

    return draw(1, spec.n_train), draw(2, spec.n_held)


class LibraryWorkload(Workload):
    PIPELINE = ("fit", "fileio.save_model", "fileio.load_model", "data.load:held")

    def __init__(self, spec, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.spec = spec
        self.model = self.workdir / "model.json"
        self.data_csv = self.workdir / "probe.csv"

    def setup(self):
        self.train, self.held = planted_sets(self.spec, self.seed)
        self.probe = np.hstack([x[: self.spec.probe_rows] for x in self.train])
        dims = (self.spec.dim,) * self.spec.n_sets
        self.extra["draws"] = synth_draws(self.spec.probe_rows, dims, len(self.spec.rhos))

    def apply_steps(self, rec, m, model):
        """save -> load_model -> load held-out, then APPLY_REPEATS times
        transform -> isc of the leading components."""
        rec.step("fileio.save_model", m.save_model, model, self.model)
        loaded = rec.step("fileio.load_model", m.load_model, self.model)
        held = rec.step("data.load", m.load, self.held, arg="held")
        for _ in range(APPLY_REPEATS):
            proj = None  # let the previous signals go first
            proj = rec.step("metrics.transform", m.transform, loaded, held)
            scores = [rec.step("metrics.isc", m.isc, proj, n, collect=n == 0) for n in range(self.spec.n_leading)]
        return loaded, proj, scores

    def setup_steps(self, rec):
        """Import the package and load the training arrays, SETUP_REPEATS times."""
        for _ in range(SETUP_REPEATS):
            data = None  # let the previous copy go first, as a new process would
            m = rec.step("import", import_mcca)
            data = rec.step("data.load", m.load, self.train, arg="train")
        return m, data

    def e2e_round(self, rec, k=None):
        self.last.clear()
        m, data = self.setup_steps(rec)
        model = rec.step("fit", m.fit, data, k=k)
        loaded, proj, scores = self.apply_steps(rec, m, model)
        one = rec.step("fit_one_step", m.fit, data, method="one-step", k=k)
        self.last.update(model=model, one=one, loaded=loaded, proj=proj, scores=scores)

    def warmup_round(self, rec):
        """The end-to-end round keeping only the leading components.

        Every call and code path of the round runs at full size, but the
        per-component loops of the fits and the model file are short: on
        ``wide`` a round keeping all 1024 components is a quarter of a run.
        """
        self.e2e_round(rec, k=self.spec.n_leading)

    def layer_round(self, rec):
        self.last.clear()
        m, data = self.setup_steps(rec)
        cov, model = self.fit_layers(rec, m, data)
        loaded, proj, scores = self.apply_steps(rec, m, model)
        one = self.fit_one_step_layers(rec, m, data)
        if rec.probes:
            self.solver_probes(rec, m, cov, model)
            spec = m.SynthSpec(
                seed=self.seed,
                dims=(self.spec.dim,) * self.spec.n_sets,
                n_exemplars=self.spec.probe_rows,
                n_components=len(self.spec.rhos),
                snr=1.0,
            )
            rec.step("synth.generate", m.generate, spec, probe=True)
            rec.step("fileio.write_data_csv", m.write_data_csv, self.data_csv, self.probe, arg="data", probe=True)
            rec.step("fileio.read_data_csv", m.read_data_csv, self.data_csv, arg="data", probe=True)
        self.last.update(model=model, one=one, loaded=loaded, proj=proj, scores=scores,
                         components=model.n_components)

    def e2e_metrics(self, recs):
        def apply(rec):
            return (rec.times["metrics.transform"] + rec.times["metrics.isc"]) / APPLY_REPEATS

        return {
            "setup_s": (call_median(recs, "import", "data.load:train"), "s"),
            "fit_s": (round_median(recs, "fit"), "s"),
            "fit_one_step_s": (round_median(recs, "fit_one_step"), "s"),
            "apply_s": (median([apply(rec) for rec in recs]), "s"),
            # one load of the training arrays, the rest of the flow, one apply
            "pipeline_s": (
                median(
                    [
                        rec.times["data.load:train"] / SETUP_REPEATS
                        + sum(rec.times[k] for k in self.PIPELINE)
                        + apply(rec)
                        for rec in recs
                    ]
                ),
                "s",
            ),
            # the process's own peak; read before any check allocates
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        }

    def outcome(self):
        spec = self.spec
        last = self.last
        return {
            "ref": checks.reference(self.train),
            "two_step": checks.model_of(last["model"]),
            "one_step": checks.model_of(last["one"]),
            "loaded": checks.model_of(last["loaded"]),
            "held_sets": self.held,
            "signals": [np.array(s) for s in last["proj"].signals],
            "isc_program": [float(s.rho) for s in last["scores"]],
            "planted": spec.rhos,
            "n_leading": spec.n_leading,
            "isc_tol": checks.heldout_tolerance(spec.n_sets, spec.dim, spec.n_train, spec.n_held),
        }

    check_set = checks.LIBRARY_CHECKS
    corruption_set = checks.LIBRARY_CORRUPTIONS


# --- cli: the shipped commands as child processes -----------------------------


@dataclass(frozen=True)
class CliSpec:
    """``mcca synth`` arguments and the ``--k`` given to ``fit``."""

    dims: tuple
    n_exemplars: int
    planted: int
    snr: float
    k: int


CLI = CliSpec(dims=(16, 16, 16, 16), n_exemplars=6000, planted=2, snr=4.0, k=3)


class CliWorkload(Workload):
    def __init__(self, spec, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.spec = spec
        w = self.workdir
        self.data_csv, self.latents_csv = w / "data.csv", w / "latents.csv"
        self.model, self.model_one = w / "model.json", w / "model_one_step.json"
        self.proj_csv = w / "projections.csv"
        self.dims_arg = ",".join(map(str, spec.dims))

    def setup(self):
        s = self.spec
        self.extra["draws"] = synth_draws(s.n_exemplars, s.dims, s.planted)

    def e2e_round(self, rec):
        s = self.spec
        dims = ("--dims", self.dims_arg)
        rec.step("synth", self.run_cli, "synth", "--seed", self.seed, *dims, "--t", s.n_exemplars,
                 "--k", s.planted, "--snr", s.snr, "--output", self.data_csv, "--latents", self.latents_csv)
        rec.step("fit", self.run_cli, "fit", "--input", self.data_csv, *dims, "--k", s.k, "--output", self.model)
        rec.step("fit_one_step", self.run_cli, "fit", "--method", "one-step", "--input", self.data_csv, *dims,
                 "--k", s.k, "--output", self.model_one)
        rec.step("transform", self.run_cli, "transform", "--input", self.data_csv, *dims, "--model", self.model,
                 "--output", self.proj_csv)
        per_set = ",".join([str(s.k)] * len(s.dims))
        printed = [rec.step("isc", self.run_cli, "isc", "--input", self.proj_csv, "--dims", per_set, "--k", n + 1)
                   for n in range(s.k)]
        self.last["isc"] = [parse_isc_rho(text) for text in printed]

    def split(self, arr):
        return [arr[:, sl] for sl in checks.slices(self.spec.dims)]

    def layer_round(self, rec):
        """What the five commands do, one public function at a time, in process."""
        s = self.spec
        m = rec.step("import", import_mcca)
        spec = m.SynthSpec(seed=self.seed, dims=s.dims, n_exemplars=s.n_exemplars,
                           n_components=s.planted, snr=s.snr)
        result = rec.step("synth.generate", m.generate, spec)
        rec.step("fileio.write_data_csv", m.write_data_csv, self.data_csv, np.hstack(result.data.sets), arg="data")
        rec.step("fileio.write_data_csv", m.write_data_csv, self.latents_csv, result.latents, arg="latents")

        def read_and_load():
            arr = rec.step("fileio.read_data_csv", m.read_data_csv, self.data_csv, arg="data")
            return rec.step("data.load", m.load, self.split(arr), arg="train")

        cov, model = self.fit_layers(rec, m, read_and_load(), k=s.k)
        rec.step("fileio.save_model", m.save_model, model, self.model)
        one = self.fit_one_step_layers(rec, m, read_and_load(), k=s.k)
        rec.step("fileio.save_model", m.save_model, one, self.model_one)

        loaded = rec.step("fileio.load_model", m.load_model, self.model)
        proj = rec.step("metrics.transform", m.transform, loaded, read_and_load())
        rec.step("fileio.write_projections_csv", m.fileio.write_projections_csv, self.proj_csv, proj.signals)
        scores = []
        for n in range(s.k):
            arr = rec.step("fileio.read_data_csv", m.read_data_csv, self.proj_csv, arg="projections")
            signals = tuple(block[:, n:n + 1] for block in np.hsplit(arr, len(s.dims)))
            scores.append(rec.step("metrics.isc", m.isc, m.Projections(signals), 0))
        if rec.probes:
            self.solver_probes(rec, m, cov, model)
        self.last["isc"] = [float(b.rho) for b in scores]
        self.last["components"] = model.n_components

    def e2e_metrics(self, recs):
        return {
            "setup_s": (round_median(recs, "synth"), "s"),
            "fit_s": (round_median(recs, "fit"), "s"),
            "fit_one_step_s": (round_median(recs, "fit_one_step"), "s"),
            "apply_s": (round_median(recs, "transform", "isc"), "s"),
            "pipeline_s": (round_median(recs, "synth", "fit", "transform", "isc"), "s"),
            # the largest peak of any child process waited for so far
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MB, "MB"),
        }

    def outcome(self):
        sets = self.split(np.loadtxt(self.data_csv, delimiter=",", ndmin=2))
        return {
            "ref": checks.reference(sets),
            "sets": sets,
            "two_step": checks.model_file(self.model),
            "one_step": checks.model_file(self.model_one),
            "projections": np.loadtxt(self.proj_csv, delimiter=",", skiprows=1, ndmin=2),
            "isc_program": list(self.last["isc"]),
            "latents": np.loadtxt(self.latents_csv, delimiter=",", ndmin=2),
        }

    check_set = checks.CLI_CHECKS
    corruption_set = checks.CLI_CORRUPTIONS


def parse_isc_rho(text):
    """The ``rho`` line of ``mcca isc`` output as a float."""
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "rho":
            return float(value)
    raise ValueError(f"no rho line in mcca isc output: {text!r}")


WORKLOADS = {
    "wide": lambda seed, workdir, root: LibraryWorkload(WIDE, seed, workdir, root),
    "tall": lambda seed, workdir, root: LibraryWorkload(TALL, seed, workdir, root),
    "cli": lambda seed, workdir, root: CliWorkload(CLI, seed, workdir, root),
}
