"""Hot numeric kernels, vectorized with numpy.

Retention parameters are handled in packed form: an int8 family code per
record plus a float64 row of up to four parameters,

    family 0 (van Genuchten): theta_r, theta_s, alpha, n
    family 1 (Brooks-Corey):  theta_r, theta_s, psi_b, lambda
    family 2 (Campbell):      theta_s, psi_e, b, unused

theta_points is the one implementation of the three curve formulas; the
scalar evaluator retention.theta_at and every batch path call it.
"""

import numpy as np

FAMILY_VG = 0
FAMILY_BC = 1
FAMILY_CMP = 2


def theta_points(codes, params, psi):
    """Water content for record i at suction psi[i], vectorized per family."""
    psi = np.asarray(psi, dtype=np.float64)
    out = np.empty(psi.shape, dtype=np.float64)

    vg = codes == FAMILY_VG
    if vg.any():
        tr, ts = params[vg, 0], params[vg, 1]
        al, n = params[vg, 2], params[vg, 3]
        with np.errstate(over="ignore"):
            se = (1.0 + (al * psi[vg]) ** n) ** (1.0 / n - 1.0)
        # convex-combination form evaluates the endpoints exactly
        out[vg] = ts * se + tr * (1.0 - se)

    bc = codes == FAMILY_BC
    if bc.any():
        tr, ts = params[bc, 0], params[bc, 1]
        pb, lam = params[bc, 2], params[bc, 3]
        p = psi[bc]
        wet = p <= pb
        ratio = pb / np.where(wet, pb, p)
        se = ratio**lam
        out[bc] = np.where(wet, ts, ts * se + tr * (1.0 - se))

    cmp_ = codes == FAMILY_CMP
    if cmp_.any():
        ts, pe, b = params[cmp_, 0], params[cmp_, 1], params[cmp_, 2]
        p = psi[cmp_]
        wet = p <= pe
        ratio = pe / np.where(wet, pe, p)
        out[cmp_] = np.where(wet, ts, ts * ratio ** (1.0 / b))

    return out


def chi2_population(pop, preds, observed):
    """Sum of squared ensemble residuals for each weight genome in pop.

    pop: (n_genomes, n_members) nonnegative, normalized internally.
    preds: (n_members, n_points) member predictions.
    observed: (n_points,). All-zero genomes are treated as uniform weights.
    """
    s = pop.sum(axis=1)
    safe = np.where(s > 0.0, s, pop.shape[1])
    w = np.where(s[:, None] > 0.0, pop, 1.0) / safe[:, None]
    resid = w @ preds - observed
    return np.einsum("ij,ij->i", resid, resid)


def replica_mean_std(est):
    """Across-replica mean and sample standard deviation (ddof=1).

    est: (n_replicas, n_points) with n_replicas >= 2. Columns whose replicas
    all agree exactly report sd 0 and the shared value (the generic mean/std
    path would leave rounding residue there).
    """
    mean = est.mean(axis=0)
    sd = est.std(axis=0, ddof=1)
    same = est.min(axis=0) == est.max(axis=0)
    if same.any():
        mean[same] = est[0, same]
        sd[same] = 0.0
    return mean, sd

