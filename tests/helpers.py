"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: naive loops,
literal double sums, and classical formulas, so agreement is evidence
rather than tautology.
"""

import numpy as np

import mcca


def isc_literal(columns):
    """ISC by the literal double sums over exemplars and set pairs.

    ``columns`` is a list of length-T 1-D signals, one per set. Returns
    (r_between, r_within, rho).
    """
    n = len(columns)
    t = len(columns[0])
    centered = [np.asarray(c, dtype=float) - np.mean(c) for c in columns]
    r_b = 0.0
    for l in range(n):
        for k in range(n):
            if k == l:
                continue
            for i in range(t):
                r_b += centered[l][i] * centered[k][i]
    r_w = 0.0
    for l in range(n):
        for i in range(t):
            r_w += centered[l][i] ** 2
    return r_b, r_w, r_b / ((n - 1) * r_w)


def isc_from_cov_loops(cov, v):
    """Covariance-form ISC of one vector by the literal loop over N^2 blocks.

    Returns (r_between, r_within, rho); rho is NaN where the projected
    within-set variance is at or below the library's variance floor.
    """
    parts = [v[sl] for sl in mcca.block_slices(cov.dims)]
    n = cov.n_sets
    r_within = 0.0
    r_total = 0.0
    for l in range(n):
        for k in range(n):
            q = float(parts[l] @ cov.blocks[l][k] @ parts[k])
            r_total += q
            if l == k:
                r_within += q
    r_between = r_total - r_within
    floor = (
        mcca.metrics.VARIANCE_FLOOR_REL**2
        * float(np.abs(cov.R).max())
        * float(v @ v)
        * cov.total_dim
    )
    if r_within <= floor:
        return r_between, r_within, np.nan
    return r_between, r_within, r_between / ((n - 1) * r_within)


def stationarity_residual_loops(cov, model, n):
    """Stationarity residual of component n by the literal per-block loops."""
    gamma = model.reg.gamma
    rho = float(model.rho_analytic[n])
    parts = [model.V[sl, n] for sl in mcca.block_slices(cov.dims)]
    n_sets = cov.n_sets
    worst = 0.0
    for l in range(n_sets):
        acc = np.zeros(cov.dims[l])
        for k in range(n_sets):
            if k != l:
                acc += cov.blocks[l][k] @ parts[k]
        own = cov.blocks[l][l] @ parts[l] + gamma * parts[l]
        worst = max(worst, float(np.abs(acc / (n_sets - 1) - own * rho).max()))
    scale = max(float(np.abs(cov.R).max()), gamma)
    vinf = float(np.abs(model.V[:, n]).max())
    return worst / max(scale * vinf, np.finfo(np.float64).tiny)


def pearson(x, y):
    """Plain Pearson correlation coefficient."""
    xc = np.asarray(x, dtype=float) - np.mean(x)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    return float(xc @ yc / np.sqrt((xc @ xc) * (yc @ yc)))


def cca_top_correlation(x, y):
    """Top canonical correlation by the classical whitened-SVD route."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    rxx = xc.T @ xc
    ryy = yc.T @ yc
    rxy = xc.T @ yc
    wx = np.linalg.inv(np.linalg.cholesky(rxx))
    wy = np.linalg.inv(np.linalg.cholesky(ryy))
    svals = np.linalg.svd(wx @ rxy @ wy.T, compute_uv=False)
    return float(svals[0])


def random_instance(rng, dims, t, shared=True):
    """Random multi-set data, optionally with one planted shared signal."""
    signal = rng.standard_normal(t)
    sets = []
    for d in dims:
        block = rng.standard_normal((t, d))
        if shared:
            block += 0.8 * np.outer(signal, rng.standard_normal(d))
        sets.append(block)
    return mcca.load(sets)


def fd_rho_gradient(cov, v, rel_step=1e-6):
    """Central finite-difference gradient of the covariance-form ISC."""
    v = np.asarray(v, dtype=float).copy()
    h = rel_step * float(np.abs(v).max())
    grad = np.zeros_like(v)
    for j in range(v.size):
        vp = v.copy()
        vm = v.copy()
        vp[j] += h
        vm[j] -= h
        rp = mcca.isc_from_cov(cov, vp).rho
        rm = mcca.isc_from_cov(cov, vm).rho
        grad[j] = (rp - rm) / (2.0 * h)
    return grad


def principal_angle(u, w):
    """Largest principal angle between the column spaces of u and w."""
    qu, _ = np.linalg.qr(np.atleast_2d(u.T).T.reshape(u.shape[0], -1))
    qw, _ = np.linalg.qr(np.atleast_2d(w.T).T.reshape(w.shape[0], -1))
    svals = np.linalg.svd(qu.T @ qw, compute_uv=False)
    return float(np.arccos(np.clip(svals.min(), -1.0, 1.0)))


def eigenvalue_clusters(values, rel_gap):
    """Split a descending eigenvalue list at relative gaps > rel_gap."""
    scale = max(abs(float(values[0])), abs(float(values[-1])), 1e-300)
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i - 1] - values[i] > rel_gap * scale:
            groups.append([i])
        else:
            groups[-1].append(i)
    return groups


def recovery_score_loops(result, model):
    """Latent recovery by the literal loop over planted and fitted columns.

    Same definition and floors as ``mcca.recovery_score``: the best absolute
    Pearson correlation of each planted latent with the across-set average
    of each fitted component signal; columns at or below the floor score 0.
    """
    proj = mcca.transform(model, result.data)
    averaged = np.mean(proj.signals, axis=0)
    averaged = averaged - averaged.mean(axis=0)
    latents = result.latents - result.latents.mean(axis=0)
    a_norm = np.sqrt(np.einsum("ij,ij->j", averaged, averaged))
    l_norm = np.sqrt(np.einsum("ij,ij->j", latents, latents))
    floor = 1e-12 * max(float(a_norm.max(initial=0.0)), float(l_norm.max(initial=0.0)))
    scores = np.zeros(latents.shape[1])
    for q in range(latents.shape[1]):
        if l_norm[q] <= floor:
            continue
        best = 0.0
        for m in range(averaged.shape[1]):
            if a_norm[m] <= floor:
                continue
            c = abs(float(latents[:, q] @ averaged[:, m]) / (l_norm[q] * a_norm[m]))
            best = max(best, c)
        scores[q] = min(best, 1.0)
    return scores
