"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: naive loops,
literal double sums, and classical formulas, so agreement is evidence
rather than tautology.
"""

import csv
import json

import numpy as np

import mcca


def cov_blocks(cov):
    """``cov_blocks(cov)[l][k]``: the d_l x d_k block (l, k) of ``cov.R``, as a view."""
    slices = mcca.data.block_slices(cov.dims)
    return tuple(tuple(cov.R[sl, sk] for sk in slices) for sl in slices)


def dense_d(cov):
    """D as a dense matrix: the diagonal blocks of ``cov.R``, zero elsewhere."""
    d = np.zeros_like(cov.R)
    for sl in mcca.data.block_slices(cov.dims):
        d[sl, sl] = cov.R[sl, sl]
    return d


def covariance_two_pass(data, chunk_bytes=8 << 20):
    """R and the means of ``data`` by the plain two-pass method.

    The baseline whose rounding the package's one covariance kernel,
    ``CovarianceAccumulator``, must match (see :func:`covariance_exact`),
    in memory and over row batches alike. It is not that kernel's
    algorithm: no shift, no column of ones, and R symmetrized at the end.
    The column means come first, as numpy's ``mean(axis=0)`` (centered
    data keeps its ``means`` and is not shifted), then each row chunk of at
    most ``chunk_bytes`` is centered into a reused buffer and its Gram
    product added into R.
    """
    means = data.means if data.centered else [b.mean(axis=0) for b in data.sets]
    shifts = [0.0] * data.n_sets if data.centered else means
    rows = max(1, chunk_bytes // (8 * data.total_dim))
    buf = np.empty((min(rows, data.n_exemplars), data.total_dim))
    r = np.zeros((data.total_dim, data.total_dim))
    for a in range(0, data.n_exemplars, rows):
        chunk = buf[: min(rows, data.n_exemplars - a)]
        for block, shift, sl in zip(data.sets, shifts, mcca.data.block_slices(data.dims)):
            np.subtract(block[a : a + rows], shift, out=chunk[:, sl])
        r += chunk.T @ chunk
    return 0.5 * (r + r.T), means


def covariance_exact(data):
    """R and the column means of ``data`` in ``np.longdouble``: the two-pass
    formula with more bits than float64 (64 on x86-64), the reference that
    float64 covariances are measured against. Centered data is centered
    again, about its own column means."""
    x = np.hstack(data.sets).astype(np.longdouble)
    mean = x.mean(axis=0)
    xc = x - mean
    return xc.T @ xc, mean


def covariance_errors(got_r, got_means, data):
    """``(R error, means error)`` of a float64 covariance of ``data`` against
    :func:`covariance_exact`: max |R - R_exact| / max |R_exact| and
    max |mean - mean_exact| / max |x|."""
    r, mean = covariance_exact(data)
    scale = float(max(np.abs(s).max() for s in data.sets))
    r_err = float(np.abs(got_r - r).max() / np.abs(r).max())
    mean_err = float(np.abs(np.concatenate(got_means) - mean).max()) / scale
    return r_err, mean_err


def save_model_json_dump(model, path):
    """``save_model`` as one ``json.dump(indent=1)`` of ``tolist()`` copies.

    The byte oracle for the streaming writer: this is how model files were
    written before, and the files must not change.
    """
    rho_e = model.rho_empirical
    doc = {
        "schema_version": mcca.fileio.SCHEMA_VERSION,
        "method": model.method,
        "dims": list(model.dims),
        "means": [m.tolist() for m in model.means],
        "reg": {
            "gamma": model.reg.gamma,
            "rank_tol": model.reg.rank_tol,
            "ranks": list(model.reg.ranks),
        },
        "lambda": model.lambdas.tolist(),
        "rho_analytic": model.rho_analytic.tolist(),
        "rho_empirical": np.where(np.isnan(rho_e), None, rho_e).tolist(),
        "V": [model.V[sl, :].tolist() for sl in mcca.data.block_slices(model.dims)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_data_csv_csvwriter(path, array, header=None):
    """``write_data_csv``'s file written wholly by ``csv.writer``.

    The byte oracle for the joined-repr body: this is how data files were
    written before, and the files must not change. Takes a float64 array
    that ``write_data_csv`` accepts.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(row.tolist() for row in np.asarray(array, dtype=np.float64))


def read_data_csv_whole(path):
    """``read_data_csv`` converting the whole body in one ``np.array`` call.

    The oracle for the batched reader: this is how data files were read
    before, holding every record's text at once. Where conversion fails it
    parses row by row to name the first bad line, with the same messages.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise mcca.DataError(f"{path}: no data rows")

    def to_finite(rows):
        try:
            arr = np.array(rows, dtype=np.float64)
        except ValueError:
            return None
        return arr if np.isfinite(arr).all() else None

    body = rows if to_finite(rows[0][1]) is not None else rows[1:]
    if not body:
        raise mcca.DataError(f"{path}: header but no data rows")
    if (arr := to_finite([row for _, row in body])) is not None:
        return arr
    width = len(body[0][1])
    out = []
    for line, row in body:
        if len(row) != width:
            raise mcca.DataError(f"{path}: line {line} has {len(row)} fields, expected {width}")
        values = []
        for j, text in enumerate(row):
            try:
                value = float(text)
            except ValueError:
                raise mcca.DataError(
                    f"{path}: line {line}, column {j + 1}: {text!r} is not a number"
                ) from None
            if not np.isfinite(value):
                raise mcca.DataError(
                    f"{path}: line {line}, column {j + 1}: value {text!r} is not finite"
                )
            values.append(value)
        out.append(values)
    return np.array(out)


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
    parts = [v[sl] for sl in mcca.data.block_slices(cov.dims)]
    blocks = cov_blocks(cov)
    n = cov.n_sets
    r_within = 0.0
    r_total = 0.0
    for l in range(n):
        for k in range(n):
            q = float(parts[l] @ blocks[l][k] @ parts[k])
            r_total += q
            if l == k:
                r_within += q
    r_between = r_total - r_within
    floor = (
        np.finfo(np.float64).eps
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
    parts = [model.V[sl, n] for sl in mcca.data.block_slices(cov.dims)]
    blocks = cov_blocks(cov)
    n_sets = cov.n_sets
    worst = 0.0
    for l in range(n_sets):
        acc = np.zeros(cov.dims[l])
        for k in range(n_sets):
            if k != l:
                acc += blocks[l][k] @ parts[k]
        own = blocks[l][l] @ parts[l] + gamma * parts[l]
        worst = max(worst, float(np.abs(acc / (n_sets - 1) - own * rho).max()))
    scale = max(float(np.abs(cov.R).max()), gamma)
    vinf = float(np.abs(model.V[:, n]).max())
    return worst / max(scale * vinf, np.finfo(np.float64).tiny)


def orthonormalize_ties_loop(values, vectors, cov, gamma):
    """``solver._orthonormalize_ties`` as a walk over every eigenvalue.

    A cluster runs on while consecutive values differ by at most the tie
    tolerance; each cluster of two or more columns is replaced, in place,
    by its symmetric (D + gamma I)-orthonormalization.
    """
    n = values.shape[0]
    tol = mcca.solver.TIE_RTOL * max(abs(float(values[0])), abs(float(values[-1])))
    start = 0
    for i in range(1, n + 1):
        if i < n and values[i - 1] - values[i] <= tol:
            continue
        if i - start > 1:
            vc = vectors[:, start:i]
            gram = vc.T @ (cov.d_dot(vc) + gamma * vc)
            gram = 0.5 * (gram + gram.T)
            w, qmat = np.linalg.eigh(gram)
            if w[0] <= 1e-12 * w[-1]:
                raise mcca.DegeneracyError(
                    "linearly dependent eigenvectors in a degenerate cluster"
                )
            vectors[:, start:i] = vc @ (qmat / np.sqrt(w)) @ qmat.T
        start = i


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


_MASK64 = (1 << 64) - 1


def _rotl64(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


def next_u64(rng):
    """The next xoshiro256** output of ``rng``, stepping ``rng._s`` in place.

    The generator's scalar definition on Python ints (Blackman & Vigna,
    arXiv:1805.01407): the oracle for the library's lane-parallel step.
    """
    s = rng._s
    result = (_rotl64((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
    t = (s[1] << 17) & _MASK64
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl64(s[3], 45)
    return result


def uniform(rng):
    """The next uniform of ``rng`` in [0, 1): the top 53 bits of one output."""
    return (next_u64(rng) >> 11) * 2.0**-53


def normals_scalar(rng, count):
    """``rng.normals(count)`` by Box-Muller over one scalar ``uniform`` call per draw.

    The generator's documented definition, draw by draw: the oracle for its
    lane-parallel ``normals``.
    """
    pairs = (count + 1) // 2
    u = np.array([uniform(rng) for _ in range(2 * pairs)])
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]
