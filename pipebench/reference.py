"""Reference computations made apart from the program under test.

The correctness checks compare the program's outputs against these:

* closed-form van Genuchten, Brooks-Corey and Campbell curves evaluated on
  packed parameter rows (family code per row plus four parameters, the
  layout `ptf.predict_batch` returns);
* an exact simplex-constrained least-squares solve, the optimum that a
  calibrated weight vector is compared with;
* the bootstrap draw of one replica, redrawn from the seed path that the
  `ensemble` module documents: replica r of a calibration seeded with path
  p draws `default_rng(p + (r, 0)).integers(0, n, size=n)`.
"""

import zlib

import numpy as np

VG, BC, CMP = 0, 1, 2  # family codes of the packed parameter rows


def theta_closed_form(codes, rows, psi):
    """Water content of row i at suction psi[i] (cm), by family.

    van Genuchten: theta_r + (theta_s - theta_r) / (1 + (alpha psi)^n)^(1 - 1/n)
    Brooks-Corey:  theta_s up to psi_b, then theta_r + (theta_s - theta_r) (psi_b / psi)^lambda
    Campbell:      theta_s up to psi_e, then theta_s (psi_e / psi)^(1 / b)
    """
    codes = np.asarray(codes)
    rows = np.asarray(rows, dtype=np.float64)
    psi = np.broadcast_to(np.asarray(psi, dtype=np.float64), codes.shape)
    out = np.full(codes.shape, np.nan)
    for i in range(codes.size):
        c, p = int(codes[i]), float(psi[i])
        a, b, c2, d = (float(v) for v in rows[i])
        if c == VG:
            m = 1.0 - 1.0 / d
            out[i] = a + (b - a) / (1.0 + (c2 * p) ** d) ** m
        elif c == BC:
            out[i] = b if p <= c2 else a + (b - a) * (c2 / p) ** d
        elif c == CMP:
            out[i] = a if p <= b else a * (b / p) ** (1.0 / c2)
    return out


def member_thetas(batches, owner, psi):
    """(members, points) water contents: point k belongs to record owner[k]."""
    owner = np.asarray(owner, dtype=np.int64)
    return np.stack([theta_closed_form(b.codes[owner], b.rows[owner], psi)
                     for b in batches])


def chi2(weights, preds, observed):
    """Sum of squared residuals of the weighted ensemble, from residuals."""
    resid = np.asarray(weights, dtype=np.float64) @ preds - observed
    return float(resid @ resid)


def simplex_lsq(preds, observed):
    """Weights on the simplex that minimise ||w @ preds - observed||^2.

    Sequential least squares from the uniform mix, then an exact polish: on
    the support it found, the equality-constrained optimum is solved from
    its KKT system and kept when it stays non-negative and is no worse.
    Returns (weights, chi2).
    """
    from scipy.optimize import minimize

    preds = np.asarray(preds, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    m = preds.shape[0]
    gram = preds @ preds.T
    lin = preds @ observed

    def fun(w):
        resid = w @ preds - observed
        return float(resid @ resid), 2.0 * (preds @ resid)

    res = minimize(fun, np.full(m, 1.0 / m), jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * m,
                   constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones_like(w)}],
                   options={"ftol": 1e-16, "maxiter": 2000})
    best = np.clip(res.x, 0.0, None)
    best /= best.sum()
    best_chi2 = chi2(best, preds, observed)

    support = np.flatnonzero(best > 1e-9)
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = gram[np.ix_(support, support)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.append(lin[support], 1.0)
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return best, best_chi2
    polished = np.zeros(m)
    polished[support] = sol[:k]
    if np.all(polished >= 0.0):
        polished_chi2 = chi2(polished, preds, observed)
        if polished_chi2 < best_chi2:
            return polished, polished_chi2
    return best, best_chi2


def bootstrap_draw(seed_path, replica, n):
    """Sample indices drawn, with replacement, for one replica."""
    rng = np.random.default_rng(tuple(seed_path) + (replica, 0))
    return rng.integers(0, n, size=n)


def stratum_seed_path(seed_path, key):
    """Seed path of a stratum calibration: the master path plus crc32(key)."""
    return tuple(seed_path) + (zlib.crc32(key.encode("utf-8")),)
