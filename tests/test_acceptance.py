"""Acceptance suite: nine binding criteria, one pass/fail line each.

Each test writes a single PASS/FAIL line past pytest's capture so it shows
up in any run log, and asserts the same condition, so the suite both
documents and enforces the contract.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import mcca
from helpers import (
    cca_top_correlation,
    dense_d,
    eigenvalue_clusters,
    fd_rho_gradient,
    pearson,
    principal_angle,
    random_instance,
)


def check(num, description, condition):
    line = f"{'PASS' if condition else 'FAIL'} criterion {num}: {description}"
    print(line, file=sys.__stdout__)
    assert condition, f"criterion {num}: {description}"


def test_criterion_1_classical_cca_equivalence():
    rng = np.random.default_rng(1001)
    worst_pearson = 0.0
    worst_svd = 0.0
    for _ in range(50):
        d1, d2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        x = rng.standard_normal((200, d1))
        y = rng.standard_normal((200, d2))
        y[:, 0] += 0.5 * x[:, 0]
        data = mcca.load([x, y])
        model = mcca.fit(data)
        rho = float(model.rho_analytic[0])
        proj = mcca.transform(model, data)
        r_pearson = pearson(proj.signals[0][:, 0], proj.signals[1][:, 0])
        r_svd = cca_top_correlation(x, y)
        worst_pearson = max(worst_pearson, abs(rho - r_pearson))
        worst_svd = max(worst_svd, abs(rho - r_svd))
    check(
        1,
        f"N=2 top rho equals Pearson (worst {worst_pearson:.2e}) and classical "
        f"CCA SVD oracle (worst {worst_svd:.2e}) within 1e-7",
        worst_pearson <= 1e-7 and worst_svd <= 1e-7,
    )


def test_criterion_2_lambda_rho_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for i in range(50):
        n_sets = (2, 3, 5)[i % 3]
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n_sets))
        data = random_instance(rng, dims, sum(dims) + 20)
        model = mcca.fit(data)
        proj = mcca.transform(model, data)
        for n in range(model.n_components):
            rho = mcca.isc(proj, n).rho
            expect = (model.lambdas[n] - 1.0) / (n_sets - 1)
            worst = max(worst, abs(rho - expect))
    check(
        2,
        f"empirical ISC matches (lambda-1)/(N-1) for every component "
        f"(worst {worst:.2e}) within 1e-8",
        worst <= 1e-8,
    )


def test_criterion_3_route_equivalence():
    worst_val = 0.0
    worst_angle = 0.0
    cases = [
        (2, (1, 2)), (2, (4, 4)), (3, (1, 2, 4)), (3, (2, 2, 2)),
        (5, (1, 1, 2, 4, 2)), (5, (4, 2, 1, 2, 4)),
    ]
    for seed, (n_sets, dims) in enumerate(cases):
        data = random_instance(np.random.default_rng(2000 + seed), dims, sum(dims) + 5)
        cov = mcca.covariance(data)
        m2 = mcca.fit_two_step(cov)
        m1 = mcca.fit_one_step(cov)
        scale = max(abs(float(m2.lambdas[0])), 1.0)
        worst_val = max(worst_val, float(np.abs(m1.lambdas - m2.lambdas).max()) / scale)
        for group in eigenvalue_clusters(m2.lambdas, 1e-6):
            worst_angle = max(
                worst_angle, principal_angle(m2.V[:, group], m1.V[:, group])
            )
    check(
        3,
        f"one-step and two-step agree: eigenvalues (worst rel {worst_val:.2e}) "
        f"within 1e-7, eigenspace angles (worst {worst_angle:.2e}) below 1e-5",
        worst_val <= 1e-7 and worst_angle < 1e-5,
    )


def test_criterion_4_decorrelation():
    rng = np.random.default_rng(1004)
    worst_off = 0.0
    worst_diag = 0.0
    for i in range(30):
        n_sets = int(rng.integers(2, 6))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(n_sets))
        data = random_instance(rng, dims, sum(dims) + 15)
        cov = mcca.covariance(data)
        model = mcca.fit_two_step(cov) if i % 2 == 0 else mcca.fit_one_step(cov)
        gram = model.V.T @ dense_d(cov) @ model.V
        off = gram - np.diag(np.diag(gram))
        worst_off = max(worst_off, float(np.abs(off).max()))
        worst_diag = max(worst_diag, float(np.abs(np.diag(gram) - 1.0).max()))
    check(
        4,
        f"V'DV is the identity on all fitted models (worst off-diagonal "
        f"{worst_off:.2e}, worst diagonal error {worst_diag:.2e}) within 1e-7",
        worst_off <= 1e-7 and worst_diag <= 1e-7,
    )


def test_criterion_5_stationarity():
    rng = np.random.default_rng(1005)
    worst_resid = 0.0
    worst_grad = 0.0
    for _ in range(10):
        n_sets = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n_sets))
        data = random_instance(rng, dims, sum(dims) + 12)
        cov = mcca.covariance(data)
        model = mcca.fit_two_step(cov)
        for n in range(model.n_components):
            worst_resid = max(worst_resid, mcca.stationarity_residual(cov, model, n))
        grad = fd_rho_gradient(cov, model.V[:, 0], rel_step=1e-6)
        worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
    check(
        5,
        f"stationarity residual (worst {worst_resid:.2e}) within 1e-7 and "
        f"finite-difference rho gradient (worst {worst_grad:.2e}) within 1e-5",
        worst_resid <= 1e-7 and worst_grad <= 1e-5,
    )


def test_criterion_6_bounds():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(200):
        n_sets = int(rng.integers(2, 6))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(n_sets))
        data = random_instance(rng, dims, sum(dims) + int(rng.integers(5, 25)))
        model = mcca.fit(data)
        ok = ok and float(model.lambdas[-1]) >= -1e-8
        ok = ok and float(model.lambdas[0]) <= n_sets + 1e-8
        ok = ok and float(model.rho_analytic[0]) <= 1.0 + 1e-8
    x = np.arange(1.0, 7.0)
    perfect = mcca.fit(mcca.load([x, -2.0 * x]))
    gap = abs(float(perfect.rho_analytic[0]) - 1.0)
    check(
        6,
        f"all lambda in [-1e-8, N+1e-8] and rho1 <= 1+1e-8 over 200 instances; "
        f"perfectly correlated pair reaches rho1 = 1 within 1e-9 (err {gap:.2e})",
        ok and gap <= 1e-9,
    )


def test_criterion_7_rank_deficiency_handling():
    rng = np.random.default_rng(1007)
    shared = rng.standard_normal(30)
    sets = [
        rng.standard_normal((30, 3)) + 0.7 * np.outer(shared, rng.standard_normal(3)),
        rng.standard_normal((30, 2)) + 0.7 * np.outer(shared, rng.standard_normal(2)),
    ]
    base = mcca.fit(mcca.load(sets))
    dup_sets = [np.hstack([sets[0], sets[0][:, 0:1]]), sets[1]]
    dup_cov = mcca.covariance(mcca.load(dup_sets))
    failed = False
    try:
        mcca.fit_one_step(dup_cov)
    except mcca.RankDeficiencyError:
        failed = True
    two_step = mcca.fit_two_step(dup_cov)
    gap = float(np.abs(two_step.lambdas - base.lambdas).max())
    check(
        7,
        f"duplicated column: one-step raises rank-deficiency error ({failed}), "
        f"two-step reproduces the clean spectrum (worst {gap:.2e}) within 1e-6",
        failed and two_step.n_components == base.n_components and gap <= 1e-6,
    )


def test_criterion_8_planted_component_recovery():
    mix = np.zeros((4, 2))
    mix[0, 0] = 1.0
    mix[1, 1] = 0.8
    spec = mcca.SynthSpec(
        seed=42,
        dims=(4, 4, 4),
        n_exemplars=2000,
        n_components=2,
        snr=10.0,
        mixing=(mix, mix, mix),
    )
    result = mcca.generate(spec)
    model = mcca.fit(result.data)
    scores = mcca.recovery_score(result, model)
    # brute-force oracle: ISC of the planted pseudo-inverse projections;
    # the fitted optimum must reach at least the planted level
    oracle = []
    for q in range(2):
        cols = tuple(
            ((s - s.mean(axis=0)) @ result.unmixing[l][q]).reshape(-1, 1)
            for l, s in enumerate(result.data.sets)
        )
        oracle.append(mcca.isc(mcca.Projections(cols), 0).rho)
    oracle_ok = (
        float(model.rho_analytic[0]) >= max(oracle) - 1e-9
        and min(oracle) > 0.8
        and float(model.rho_analytic[2]) < 0.2
    )
    check(
        8,
        f"planted components recovered (scores {scores[0]:.4f}, {scores[1]:.4f}) "
        f">= 0.95, confirmed against planted-ISC oracle ({oracle[0]:.4f}, "
        f"{oracle[1]:.4f})",
        bool(scores.min() >= 0.95) and oracle_ok,
    )


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mcca", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def pipeline(workdir):
    data = workdir / "data.csv"
    model = workdir / "model.json"
    proj = workdir / "proj.csv"
    run_cli(
        "synth", "--seed", 123, "--dims", "3,3", "--t", 200, "--k", 1,
        "--snr", 10.0, "--output", data,
    )
    fit_out = run_cli(
        "fit", "--input", data, "--dims", "3,3", "--output", model
    )
    run_cli(
        "transform", "--input", data, "--dims", "3,3",
        "--model", model, "--output", proj,
    )
    doc = json.loads(model.read_text())
    k = len(doc["lambda"])
    isc_out = run_cli("isc", "--input", proj, "--dims", f"{k},{k}", "--k", 1)
    rho_line = [ln for ln in isc_out.splitlines() if ln.startswith("rho ")][0]
    bundle = {
        "data": data.read_bytes(),
        "model": model.read_bytes(),
        "proj": proj.read_bytes(),
        "fit_out": fit_out,
        "isc_out": isc_out,
    }
    return float(rho_line.split()[1]), doc["rho_empirical"][0], bundle


def test_criterion_9_end_to_end_pipeline(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    rho_cli, rho_model, bundle_a = pipeline(run_a)
    _, _, bundle_b = pipeline(run_b)
    gap = abs(rho_cli - rho_model)
    stable = all(bundle_a[key] == bundle_b[key] for key in bundle_a)
    check(
        9,
        f"synth -> fit -> transform -> isc reproduces the model's rho_empirical "
        f"(err {gap:.2e}) within 1e-9, byte-stable across identical runs ({stable})",
        gap <= 1e-9 and stable,
    )
