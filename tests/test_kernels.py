"""Numpy kernels against closed-form per-record references."""

import math

import numpy as np
import pytest

from ptfens import _kernels
from ptfens._kernels import FAMILY_BC, FAMILY_CMP, FAMILY_VG


def mixed_family_batch(rng, n):
    codes = rng.integers(0, 3, size=n).astype(np.int8)
    params = np.zeros((n, 4))
    vg = codes == FAMILY_VG
    params[vg, 0] = rng.uniform(0.0, 0.15, vg.sum())
    params[vg, 1] = rng.uniform(0.3, 0.55, vg.sum())
    params[vg, 2] = rng.uniform(0.001, 0.15, vg.sum())
    params[vg, 3] = rng.uniform(1.05, 2.8, vg.sum())
    bc = codes == FAMILY_BC
    params[bc, 0] = rng.uniform(0.0, 0.15, bc.sum())
    params[bc, 1] = rng.uniform(0.3, 0.55, bc.sum())
    params[bc, 2] = rng.uniform(1.0, 80.0, bc.sum())
    params[bc, 3] = rng.uniform(0.1, 1.2, bc.sum())
    cmp_ = codes == FAMILY_CMP
    params[cmp_, 0] = rng.uniform(0.3, 0.55, cmp_.sum())
    params[cmp_, 1] = rng.uniform(1.0, 40.0, cmp_.sum())
    params[cmp_, 2] = rng.uniform(2.0, 14.0, cmp_.sum())
    psi = 10.0 ** rng.uniform(-1.0, 4.5, size=n)
    psi[rng.random(n) < 0.1] = 0.0  # exercise the wet branches
    return codes, params, psi


def closed_form_theta(code, row, psi):
    """One record's water content, straight from the published formulas."""
    if code == FAMILY_VG:
        tr, ts, alpha, n = row
        return tr + (ts - tr) * (1.0 + (alpha * psi) ** n) ** (1.0 / n - 1.0)
    if code == FAMILY_BC:
        tr, ts, psi_b, lam = row
        return ts if psi <= psi_b else tr + (ts - tr) * (psi_b / psi) ** lam
    ts, psi_e, b, _ = row
    return ts if psi <= psi_e else ts * (psi_e / psi) ** (1.0 / b)


def test_theta_points_matches_closed_form():
    rng = np.random.default_rng(90)
    codes, params, psi = mixed_family_batch(rng, 5000)
    got = _kernels.theta_points(codes, params, psi)
    want = [closed_form_theta(int(c), tuple(r), float(p))
            for c, r, p in zip(codes, params.tolist(), psi)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert all(math.isfinite(v) for v in got)


def test_replica_mean_std_exact_column():
    rng = np.random.default_rng(92)
    est = rng.uniform(0.0, 0.6, size=(40, 300))
    est[:, 7] = 0.1  # generic std leaves rounding residue on a constant column
    mean, sd = _kernels.replica_mean_std(est)
    others = np.arange(est.shape[1]) != 7
    np.testing.assert_allclose(mean[others], est[:, others].mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(sd[others], est[:, others].std(axis=0, ddof=1), rtol=1e-13)
    assert sd[7] == 0.0 and mean[7] == 0.1


def test_zero_weight_genome_is_uniform():
    preds = np.array([[0.1, 0.1], [0.3, 0.3]])
    observed = np.array([0.2, 0.2])
    out = _kernels.chi2_population(np.zeros((1, 2)), preds, observed)
    assert out[0] == pytest.approx(0.0, abs=1e-30)  # uniform mix hits exactly
