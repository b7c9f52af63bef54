"""Numpy kernels against closed-form per-record references."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@st.composite
def spread_problems(draw):
    """Replica weights (R x m) and member values (m x n): R from 2 to 200 and
    m from 1 to 13 (R < m included); rows come from a pool of distinct rows,
    so replicas may repeat, and a pool of one makes every row identical."""
    n_replicas = draw(st.integers(2, 200))
    m = draw(st.integers(1, 13))
    n = draw(st.integers(1, 20))
    pool = draw(st.one_of(st.just(1), st.integers(2, n_replicas)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(0.0, 1.0, size=(pool, m))
    weights = rows[rng.integers(0, pool, size=n_replicas)]
    thetas = rng.uniform(0.0, 0.6, size=(m, n))
    return weights, thetas


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spread_problems())
# identical rows whose float mean is not row 0: only the explicit rule gives sd 0
@example((np.tile([0.1, 0.7, 0.2], (7, 1)),
          np.array([[0.3, 0.05], [0.45, 0.2], [0.1, 0.0]])))
def test_replica_mean_std_matches_explicit_estimates(problem):
    weights, thetas = problem
    mean, sd = _kernels.replica_mean_std(weights, thetas)
    # the explicit estimates, formed in extended precision: in float64 their
    # std is itself off by up to about 4e-12 relative where the CV is ~1e-4
    est = weights.astype(np.longdouble) @ thetas.astype(np.longdouble)
    np.testing.assert_allclose(mean, est.mean(axis=0), rtol=1e-12, atol=0.0)
    if (weights == weights[0]).all():
        # exact, where a generic std leaves rounding residue; row 0's estimate
        # is summed member by member, the order of the kernel's einsum
        assert np.all(sd == 0.0)
        row0 = weights[0, 0] * thetas[0]
        for k in range(1, len(thetas)):
            row0 = row0 + weights[0, k] * thetas[k]
        assert np.array_equal(mean, row0)
    else:
        np.testing.assert_allclose(sd, est.std(axis=0, ddof=1), rtol=1e-12, atol=0.0)


def full_matrix_mean_std(weights, thetas):
    """replica_mean_std formed with the whole (members x points) R theta."""
    if (weights == weights[0]).all():
        mean = np.einsum("k,kj->j", weights[0], thetas)
        return mean, np.zeros_like(mean)
    mean_row = weights.mean(axis=0)
    r_factor = np.linalg.qr(weights - mean_row, mode="r")
    spread = np.einsum("ik,kj->ij", r_factor, thetas)
    sd = np.sqrt(np.einsum("ij,ij->j", spread, spread) / (len(weights) - 1))
    return np.einsum("k,kj->j", mean_row, thetas), sd


@st.composite
def spread_problems_with_zeros(draw):
    """spread_problems with none, some or all member values set to zero."""
    weights, thetas = draw(spread_problems())
    share = draw(st.sampled_from((0.0, 0.3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return weights, np.where(rng.random(thetas.shape) < share, 0.0, thetas)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spread_problems_with_zeros())
@example((np.tile([0.1, 0.7, 0.2], (7, 1)),  # identical rows
          np.array([[0.3, 0.0], [0.45, 0.2], [0.0, 0.0]])))
@example((np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]),  # fewer replicas than members
          np.array([[0.3, 0.0, 0.1], [0.0, 0.2, 0.1], [0.4, 0.0, 0.0]])))
def test_replica_mean_std_triangular_equals_full_matrix(problem):
    weights, thetas = problem
    mean, sd = _kernels.replica_mean_std(weights, thetas)
    # the full-matrix einsums take another summation order on one column,
    # so they are the reference from two columns on
    if thetas.shape[1] >= 2:
        want_mean, want_sd = full_matrix_mean_std(weights, thetas)
        assert mean.tobytes() == want_mean.tobytes()
        assert sd.tobytes() == want_sd.tobytes()
    # a point's bytes do not depend on its batch or on the layout of thetas
    for batch in (thetas[:, -1:], np.asfortranarray(thetas),
                  np.repeat(thetas, 2, axis=1)[:, ::2]):
        got_mean, got_sd = _kernels.replica_mean_std(weights, batch)
        assert got_mean.tobytes() == mean[-batch.shape[1]:].tobytes()
        assert got_sd.tobytes() == sd[-batch.shape[1]:].tobytes()


def test_zero_weight_genome_is_uniform():
    preds = np.array([[0.1, 0.1], [0.3, 0.3]])
    observed = np.array([0.2, 0.2])
    out = _kernels.chi2_population(np.zeros((1, 2)), preds, observed)
    assert out[0] == pytest.approx(0.0, abs=1e-30)  # uniform mix hits exactly


# clamped extremes of the parameter domain (ptf._clamp_*), theta_r both zeros
EXTREMES = {
    FAMILY_VG: ([0.0, -0.0, 0.05], [1e-6, 0.4, 1.0], [1e-8, 0.02, 50.0],
                [1.0 + 1e-6, 1.5, 12.0]),
    FAMILY_BC: ([0.0, -0.0, 0.05], [1e-6, 0.4, 1.0], [1e-6, 20.0, 1e4],
                [1e-6, 0.4, 30.0]),
    FAMILY_CMP: ([1e-6, 0.4, 1.0], [1e-6, 20.0, 1e4], [1e-6, 5.0, 30.0], [0.0]),
}


@st.composite
def one_family_rows(draw):
    """A family code and 1-40 parameter rows drawn from its clamped domain,
    its extremes included."""
    code = draw(st.sampled_from((FAMILY_VG, FAMILY_BC, FAMILY_CMP)))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.column_stack([
        np.where(rng.random(n) < 0.3, rng.choice(ends, n),
                 rng.uniform(min(ends), max(ends), n)) for ends in EXTREMES[code]])
    if code != FAMILY_CMP:  # theta_r < theta_s, as the clamps keep it
        rows[:, 0] = np.where(rows[:, 0] < rows[:, 1], rows[:, 0], 0.0)
    return np.full(n, code, dtype=np.int8), rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(one_family_rows())
def test_theta_points_at_saturation_is_theta_s(batch):
    codes, rows = batch
    got = _kernels.theta_points(codes, rows, np.zeros(len(codes)))
    theta_s = rows[:, _kernels.THETA_S_COLUMN[codes[0]]]
    assert got.tobytes() == theta_s.tobytes()


def test_theta_points_mixed_batch_matches_per_family():
    rng = np.random.default_rng(91)
    codes, params, psi = mixed_family_batch(rng, 5000)
    got = _kernels.theta_points(codes, params, psi)
    for code in (FAMILY_VG, FAMILY_BC, FAMILY_CMP):
        own = codes == code
        alone = _kernels.theta_points(codes[own], params[own], psi[own])
        assert got[own].tobytes() == alone.tobytes()
