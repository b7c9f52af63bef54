"""Hot numeric kernels, vectorized with numpy.

Retention parameters are handled in packed form: an int8 family code per
record plus a float64 row of four slots. COLUMNS is the one statement of each
family's packed columns, in row order; a family with fewer than four leaves
the last slots 0. The retention dataclasses, the clamps of ptf, the class-table
loader and the network output check all read their layout from it.

theta_points is the one entry to the curve formulas (_vg, _bc, _cmp): every
batch path (ptf.member_thetas, ensemble.point_matrix) calls it, and so does
retention.theta_at on one parameter set. At psi = 0 each formula gives
theta_s exactly, so a caller may read it (THETA_S_COLUMN, its index in
COLUMNS). weighted_sum is the one weighted sum of member water contents, for
predict, evaluate's ensemble row, calibrate's chi2 and pooled RMSE, and the
map's mean; replica_mean_std gives the map's replica spread in closed form
from the weights, one row of the triangular factor at a time.
"""

import numpy as np

FAMILY_VG = 0
FAMILY_BC = 1
FAMILY_CMP = 2
COLUMNS = {FAMILY_VG: ("theta_r", "theta_s", "alpha", "n"),
           FAMILY_BC: ("theta_r", "theta_s", "psi_b", "lambda"),
           FAMILY_CMP: ("theta_s", "psi_e", "b")}


def _vg(tr, ts, al, n, psi):
    with np.errstate(over="ignore"):
        se = (1.0 + (al * psi) ** n) ** (1.0 / n - 1.0)
    # convex-combination form evaluates the endpoints exactly
    return ts * se + tr * (1.0 - se)


def _bc(tr, ts, pb, lam, psi):
    wet = psi <= pb
    se = (pb / np.where(wet, pb, psi)) ** lam
    return np.where(wet, ts, ts * se + tr * (1.0 - se))


def _cmp(ts, pe, b, _, psi):
    wet = psi <= pe
    return np.where(wet, ts, ts * (pe / np.where(wet, pe, psi)) ** (1.0 / b))


_CURVES = {FAMILY_VG: _vg, FAMILY_BC: _bc, FAMILY_CMP: _cmp}
THETA_S_COLUMN = {code: columns.index("theta_s") for code, columns in COLUMNS.items()}


def theta_points(codes, params, psi):
    """Water content for record i at suction psi[i]. A one-family batch runs
    its formula on the parameter columns unmasked; a mixed one, per family."""
    psi = np.asarray(psi, dtype=np.float64)
    if codes.size and (codes == codes[0]).all():
        return _CURVES[codes[0]](*params.T, psi)
    out = np.empty(psi.shape, dtype=np.float64)
    for code, curve in _CURVES.items():
        mask = codes == code
        out[mask] = curve(*params[mask].T, psi[mask])
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


def weighted_sum(weights, thetas):
    """weights @ thetas (members x points), summed member by member: einsum
    without optimize never calls BLAS and sums C-ordered columns in member
    order, so a point's bytes depend neither on the BLAS thread count nor on
    its batch. It sums one column in another order, so that is done as two."""
    n_points = thetas.shape[1]
    thetas = np.ascontiguousarray(np.repeat(thetas, 2, axis=1) if n_points == 1 else thetas)
    return np.einsum("k,kj->j", weights, thetas)[:n_points]


def replica_mean_std(weights, thetas):
    """Across-replica mean and sample std (ddof=1) of weights @ thetas.

    weights: (n_replicas >= 2, n_members); thetas: (n_members, n_points).
    With D = QR the centred weights, the mean is mean_row @ theta and the sd
    ||R theta|| / sqrt(n_replicas - 1): O(m**2) per point, never negative.
    Row i of R theta is formed from R[i, i:] and thetas[i:] only (R is upper
    triangular) and its square added into one points-long sum, so neither a
    (replicas x points) nor a (members x points) matrix is held. Identical
    rows give sd 0 and row 0's estimate exactly (a float mean of identical
    rows can differ from the row). Every product is a weighted_sum."""
    if (weights == weights[0]).all():
        mean = weighted_sum(weights[0], thetas)
        return mean, np.zeros_like(mean)
    mean_row = weights.mean(axis=0)
    r_factor = np.linalg.qr(weights - mean_row, mode="r")
    sum_sq = np.zeros(thetas.shape[1])
    for i in range(len(r_factor)):
        row = weighted_sum(r_factor[i, i:], thetas[i:])  # row i of R theta
        row *= row
        sum_sq += row
    return weighted_sum(mean_row, thetas), np.sqrt(sum_sq / (len(weights) - 1))
