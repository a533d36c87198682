"""Correctness checks computed apart from the package, and their self-test.

Every reference value here comes from numpy applied to the benchmark's own
inputs or to the files the ``mcca`` commands wrote: the covariance ``R`` and
its block diagonal ``D`` are formed from the data, the pencil's spectrum is
taken by Cholesky whitening and ``eigvalsh`` (a third route, neither of the
package's two), projections and inter-set correlations are recomputed from
their definitions, and model files are parsed with the ``json`` module. No
check calls into ``mcca``.

A check is a function of an *outcome*, a dict of plain arrays collected
from one run, that returns ``(ok, detail)``. :func:`self_test` applies
known corruptions to a copy of an outcome and asserts that the matching
check then fails.
"""

import copy
import json
from dataclasses import dataclass, replace

import numpy as np

# Bounds of the package's acceptance criteria: V'DV = I within 1e-7
# (criterion 4), normalized stationarity residual within 1e-7 (criterion 5),
# and the two solver routes agreeing within 1e-7 (criterion 3).
GRAM_TOL = 1e-7
STATIONARITY_TOL = 1e-7
ROUTES_TOL = 1e-7
# Eigenvalues lie in [0, N]; LAPACK routes agree far below this, and a
# relative shift of 1e-6 of any eigenvalue above 0.01 exceeds it.
LAMBDA_TOL = 1e-8
# rho = (lambda - 1)/(N - 1) is one rounding away from exact.
RHO_IDENTITY_TOL = 1e-12
# Two formulas for one ratio of sums over the same numbers.
ISC_AGREE_TOL = 1e-9
# |corr| between a planted latent and the best leading component.
RECOVERY_MIN = 0.9


@dataclass(frozen=True)
class Model:
    """The arrays of one fitted model, whatever produced them."""

    V: np.ndarray
    lambdas: np.ndarray
    rho_analytic: np.ndarray
    rho_empirical: np.ndarray
    means: tuple
    dims: tuple


def model_of(obj) -> Model:
    """Copy the arrays out of an ``mcca.MccaModel``."""
    return Model(
        V=np.array(obj.V),
        lambdas=np.array(obj.lambdas),
        rho_analytic=np.array(obj.rho_analytic),
        rho_empirical=np.array(obj.rho_empirical),
        means=tuple(np.array(m) for m in obj.means),
        dims=tuple(obj.dims),
    )


def model_file(path) -> Model:
    """Parse a model file with ``json`` alone (null reads as NaN)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def arr(x):
        return np.array(x, dtype=np.float64)  # None becomes nan

    return Model(
        V=np.vstack([arr(b) for b in doc["V"]]),
        lambdas=arr(doc["lambda"]),
        rho_analytic=arr(doc["rho_analytic"]),
        rho_empirical=arr(doc["rho_empirical"]),
        means=tuple(arr(m) for m in doc["means"]),
        dims=tuple(int(d) for d in doc["dims"]),
    )


def slices(dims):
    edges = np.cumsum((0,) + tuple(dims))
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def reference(sets):
    """Means, R and D of multi-set data, and the pencil's spectrum.

    ``R`` is the unnormalized covariance of the concatenated centered sets,
    the package's convention. The spectrum of ``R v = D v lambda`` comes
    from ``eigvalsh(L^-1 R L^-T)`` with ``D = L L'`` (Cholesky), descending.
    """
    dims = tuple(s.shape[1] for s in sets)
    means = tuple(s.mean(axis=0) for s in sets)
    xc = np.hstack([s - mu for s, mu in zip(sets, means)])
    r = xc.T @ xc
    del xc
    r = 0.5 * (r + r.T)
    d = np.zeros_like(r)
    for sl in slices(dims):
        d[sl, sl] = r[sl, sl]
    chol = np.linalg.cholesky(d)
    whitened = np.linalg.solve(chol, np.linalg.solve(chol, r).T)
    spectrum = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))[::-1].copy()
    return {"dims": dims, "means": means, "R": r, "D": d, "spectrum": spectrum}


def isc_np(columns):
    """Inter-set correlation of one component from its T x N signal matrix."""
    yc = columns - columns.mean(axis=0)
    gram = yc.T @ yc
    within = float(np.trace(gram))
    return (float(gram.sum()) - within) / ((columns.shape[1] - 1) * within)


def component_isc(signals, n):
    return isc_np(np.column_stack([s[:, n] for s in signals]))


def project(sets, model: Model):
    """Per-set signals (x_l - mean_l) V_l, computed from the model's arrays."""
    return [(x - mu) @ model.V[sl, :] for x, mu, sl in zip(sets, model.means, slices(model.dims))]


def heldout_tolerance(n_sets, dim, n_train, n_held):
    """How far a held-out ISC may sit from the planted one.

    Sampling error of the ISC of independent sets over ``n_held`` rows is
    sqrt(2 / (N (N-1) T)); six of those, plus the loss of fitting ``dim``
    weights per set from ``n_train`` rows (about dim/T), plus 0.01 slack.
    """
    return 0.01 + 6.0 * np.sqrt(2.0 / (n_sets * (n_sets - 1) * n_held)) + 2.0 * dim / n_train


# --- checks on fitted models -------------------------------------------------


def _models(out):
    return [(label, out[label]) for label in ("two_step", "one_step")]


def check_pencil_lambda(out):
    worst = 0.0
    for _, m in _models(out):
        k = m.lambdas.shape[0]
        worst = max(worst, float(np.abs(m.lambdas - out["ref"]["spectrum"][:k]).max()))
    return worst <= LAMBDA_TOL, f"max |lambda - cholesky eigvalsh| {worst:.2e} (tol {LAMBDA_TOL:.0e})"


def check_decorrelation(out):
    worst = 0.0
    d = out["ref"]["D"]
    for _, m in _models(out):
        gram = m.V.T @ (d @ m.V)
        worst = max(worst, float(np.abs(gram - np.eye(gram.shape[0])).max()))
    return worst <= GRAM_TOL, f"max |V'DV - I| {worst:.2e} (tol {GRAM_TOL:.0e})"


def check_stationarity(out):
    """max |R v - lambda D v| / ((N-1) max|R| max|v|) per component."""
    ref = out["ref"]
    n_sets = len(ref["dims"])
    scale = float(np.abs(ref["R"]).max())
    worst = 0.0
    for _, m in _models(out):
        resid = ref["R"] @ m.V - (ref["D"] @ m.V) * m.lambdas
        per = np.abs(resid).max(axis=0) / ((n_sets - 1) * scale * np.abs(m.V).max(axis=0))
        worst = max(worst, float(per.max()))
    return worst <= STATIONARITY_TOL, f"max stationarity residual {worst:.2e} (tol {STATIONARITY_TOL:.0e})"


def check_routes_agree(out):
    a, b = out["two_step"].lambdas, out["one_step"].lambdas
    if a.shape != b.shape:
        return False, f"spectra have {a.shape[0]} and {b.shape[0]} values"
    worst = float(np.abs(a - b).max())
    return worst <= ROUTES_TOL, f"max |lambda two-step - lambda one-step| {worst:.2e} (tol {ROUTES_TOL:.0e})"


def check_rho_identity(out):
    n_sets = len(out["ref"]["dims"])
    worst_a = worst_e = 0.0
    for _, m in _models(out):
        worst_a = max(worst_a, float(np.abs(m.rho_analytic - (m.lambdas - 1.0) / (n_sets - 1)).max()))
        worst_e = max(worst_e, float(np.abs(m.rho_empirical - m.rho_analytic).max()))
    ok = worst_a <= RHO_IDENTITY_TOL and worst_e <= GRAM_TOL
    return ok, (
        f"max |rho - (lambda-1)/(N-1)| {worst_a:.2e} (tol {RHO_IDENTITY_TOL:.0e}), "
        f"max |rho_empirical - rho_analytic| {worst_e:.2e} (tol {GRAM_TOL:.0e})"
    )


def check_means(out):
    worst = 0.0
    for _, m in _models(out):
        for mu, ref in zip(m.means, out["ref"]["means"]):
            worst = max(worst, float(np.abs(mu - ref).max() / max(np.abs(ref).max(), 1.0)))
    return worst <= 1e-12, f"max relative |model mean - column mean| {worst:.2e} (tol 1e-12)"


def _close(a, b, rtol):
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale <= rtol


# --- checks on library outputs (wide, tall) ---------------------------------


def check_round_trip(out):
    a, b = out["two_step"], out["loaded"]
    same = (
        a.dims == b.dims
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(
                (a.V, a.lambdas, a.rho_analytic, a.rho_empirical) + a.means,
                (b.V, b.lambdas, b.rho_analytic, b.rho_empirical) + b.means,
            )
        )
    )
    return same, "save_model/load_model round trip is bit-exact" if same else "round trip changed bits"


def check_transform(out):
    want = project(out["held_sets"], out["loaded"])
    ok = all(
        s.shape == w.shape and _close(s, w, 1e-9) for s, w in zip(out["signals"], want)
    )
    return ok, "transform signals equal (x - mean) V within 1e-9 relative"


def check_heldout_isc(out):
    rhos = out["planted"]
    tol = out["isc_tol"]
    got = [component_isc(out["signals"], n) for n in range(out["n_leading"])]
    want = list(rhos) + [0.0] * (len(got) - len(rhos))
    worst = max(abs(g - w) for g, w in zip(got, want))
    return worst <= tol, (
        f"held-out ISC {', '.join(f'{g:.3f}' for g in got)} vs planted "
        f"{', '.join(f'{w:.2f}' for w in want)}: worst gap {worst:.3f} (tol {tol:.3f})"
    )


def check_isc_output(out):
    got = out["isc_program"]
    want = [component_isc(out["signals"], n) for n in range(len(got))]
    worst = max(abs(g - w) for g, w in zip(got, want)) if got else np.inf
    ok = len(got) == out["n_leading"] and worst <= ISC_AGREE_TOL
    return ok, f"mcca isc vs numpy ISC of the signals: worst {worst:.2e} (tol {ISC_AGREE_TOL:.0e})"


LIBRARY_CHECKS = {
    "pencil_lambda": check_pencil_lambda,
    "decorrelation": check_decorrelation,
    "stationarity": check_stationarity,
    "routes_agree": check_routes_agree,
    "rho_identity": check_rho_identity,
    "means": check_means,
    "round_trip": check_round_trip,
    "transform": check_transform,
    "heldout_isc": check_heldout_isc,
    "isc_output": check_isc_output,
}


# --- checks on command outputs (cli) ----------------------------------------


def check_projections(out):
    proj = out["projections"]
    want = np.hstack(project(out["sets"], out["two_step"]))
    if proj.shape != want.shape:
        return False, f"projections CSV is {proj.shape[0]}x{proj.shape[1]}, expected {want.shape[0]}x{want.shape[1]}"
    ok = _close(proj, want, 1e-9)
    return ok, "projections CSV equals (x - mean) V within 1e-9 relative"


def _cli_signals(out):
    k = out["two_step"].lambdas.shape[0]
    proj = out["projections"]
    return [proj[:, l * k:(l + 1) * k] for l in range(len(out["ref"]["dims"]))]


def check_cli_isc(out):
    signals = _cli_signals(out)
    got = out["isc_program"]
    want = [component_isc(signals, n) for n in range(len(got))]
    worst = max(abs(g - w) for g, w in zip(got, want)) if got else np.inf
    ok = len(got) == out["two_step"].lambdas.shape[0] and worst <= ISC_AGREE_TOL
    return ok, f"mcca isc rho vs numpy ISC of the projections CSV: worst {worst:.2e} (tol {ISC_AGREE_TOL:.0e})"


def check_recovery(out):
    """Each planted latent is a linear combination of the leading components.

    Planted latents of equal strength share one eigenvalue, so the fit may
    return any rotation of them; the |corr| between a latent and its least
    squares fit from the set-averaged component signals does not depend on
    that rotation.
    """
    averaged = np.mean(_cli_signals(out), axis=0)
    latents = out["latents"]
    if latents.shape[0] != averaged.shape[0]:
        return False, "latents and projections differ in length"
    ac = averaged - averaged.mean(axis=0)
    lc = latents - latents.mean(axis=0)
    fitted = ac @ np.linalg.lstsq(ac, lc, rcond=None)[0]
    corr = np.einsum("ij,ij->j", fitted, lc) / (
        np.linalg.norm(fitted, axis=0) * np.linalg.norm(lc, axis=0)
    )
    ok = bool(corr.min() >= RECOVERY_MIN)
    return ok, f"|corr| of each latent with its fit {', '.join(f'{c:.3f}' for c in corr)} (min {RECOVERY_MIN})"


CLI_CHECKS = {
    "pencil_lambda": check_pencil_lambda,
    "decorrelation": check_decorrelation,
    "stationarity": check_stationarity,
    "routes_agree": check_routes_agree,
    "rho_identity": check_rho_identity,
    "means": check_means,
    "projections": check_projections,
    "isc_output": check_cli_isc,
    "recovery": check_recovery,
}


def run_checks(checks, out):
    """Apply every check; returns a dict name -> (ok, detail)."""
    return {name: check(out) for name, check in checks.items()}


# --- self-test: each corruption must be rejected ----------------------------


def _scale_v_column(out):
    m = out["two_step"]
    v = m.V.copy()
    v[:, 0] *= 1.01
    out["two_step"] = replace(m, V=v)


def _shift_lambda(out):
    m = out["two_step"]
    out["two_step"] = replace(m, lambdas=m.lambdas * (1.0 + 1e-6))


def _shift_rho(out):
    m = out["one_step"]
    rho = m.rho_analytic.copy()
    rho[-1] += 1e-9
    out["one_step"] = replace(m, rho_analytic=rho)


def _one_step_spectrum(out):
    m = out["one_step"]
    lam = m.lambdas.copy()
    lam[0] += 1e-6
    out["one_step"] = replace(m, lambdas=lam)


def _ulp_in_loaded_v(out):
    m = out["loaded"]
    v = m.V.copy()
    v[0, 0] = np.nextafter(v[0, 0], np.inf)
    out["loaded"] = replace(m, V=v)


def _reverse_half_the_sets(out):
    signals = list(out["signals"])
    for l in range(0, len(signals), 2):
        signals[l] = signals[l][::-1]
    out["signals"] = signals


def _perturb_isc(out):
    got = list(out["isc_program"])
    got[0] *= 1.0 + 1e-6
    out["isc_program"] = got


def _drop_projection_row(out):
    out["projections"] = out["projections"][1:]


def _shuffle_latents(out):
    out["latents"] = np.random.default_rng(0).permutation(out["latents"])


LIBRARY_CORRUPTIONS = [
    ("one column of V scaled by 1.01", _scale_v_column, "decorrelation"),
    ("lambda shifted by 1e-6 relative", _shift_lambda, "pencil_lambda"),
    ("one-step top lambda shifted by 1e-6", _one_step_spectrum, "routes_agree"),
    ("one rho shifted by 1e-9", _shift_rho, "rho_identity"),
    ("loaded V moved by one ulp", _ulp_in_loaded_v, "round_trip"),
    ("held-out signals of every other set reversed in time", _reverse_half_the_sets, "heldout_isc"),
    ("mcca isc result moved by 1e-6 relative", _perturb_isc, "isc_output"),
]

CLI_CORRUPTIONS = [
    ("one column of V scaled by 1.01", _scale_v_column, "decorrelation"),
    ("lambda shifted by 1e-6 relative", _shift_lambda, "pencil_lambda"),
    ("one-step top lambda shifted by 1e-6", _one_step_spectrum, "routes_agree"),
    ("projections CSV with one row dropped", _drop_projection_row, "projections"),
    ("mcca isc result moved by 1e-6 relative", _perturb_isc, "isc_output"),
    ("latents shuffled in time", _shuffle_latents, "recovery"),
]


def self_test(checks, corruptions, out):
    """Run each corruption on a copy of ``out``; returns name -> rejected."""
    results = {}
    for label, corrupt, target in corruptions:
        bad = copy.copy(out)
        corrupt(bad)
        ok, _ = checks[target](bad)
        results[label] = not ok
    return results
