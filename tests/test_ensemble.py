"""Weighted-mean ensembles: objective, optimizer, bootstrap calibration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptfens import (
    ALL_PTFS,
    CalibrationResult,
    ConfigError,
    DataError,
    GaConfig,
    InputError,
    PtfId,
    WeightVector,
    calibrate,
    calibrate_stratified,
    chi2,
    clear_ann_registry,
    ensemble_theta,
    optimize_weights,
    predict,
    profile_arrays,
    read_replica_table,
    read_weights,
    register_ann,
    samples_theta,
    simplex_weights,
    simplex_weights_batch,
    theta_at,
    write_replica_table,
    write_weights,
)
from ptfens import ensemble as ensemble_module
from ptfens.dataset import bootstrap_split, stratum_indices
from ptfens.ptf import PREDICTOR_FIELDS, member_thetas
from ptfens.ensemble import GLOBAL_STRATUM, ReplicaResult, point_matrix
from helpers import (make_sample, population_records, random_net, sample_table,
                     spliced_text, synthetic_population)

MEMBERS = (PtfId.COSBY1, PtfId.CARSEL, PtfId.WOSTEN)


def grid_min_chi2(preds, observed, step=0.01):
    """Exhaustive simplex search; the brute-force yardstick for the GA."""
    m = preds.shape[0]
    best = np.inf
    ticks = int(round(1.0 / step))
    if m == 2:
        for i in range(ticks + 1):
            w = np.array([i * step, 1.0 - i * step])
            best = min(best, chi2(w, preds, observed))
        return best
    assert m == 3
    for i in range(ticks + 1):
        for j in range(ticks + 1 - i):
            w = np.array([i * step, j * step, 1.0 - (i + j) * step])
            best = min(best, chi2(w, preds, observed))
    return best


def test_weight_vector_invariants():
    wv = WeightVector(members=("a", "b"), weights=(0.25, 0.75))
    assert np.allclose(wv.as_array(), [0.25, 0.75])
    with pytest.raises(InputError):
        WeightVector(members=("a", "b"), weights=(0.5, 0.6))
    with pytest.raises(InputError):
        WeightVector(members=("a", "a"), weights=(0.5, 0.5))
    with pytest.raises(InputError):
        WeightVector(members=("a", "b"), weights=(-0.1, 1.1))


def test_weight_vector_normalized():
    wv = WeightVector.normalized(("a", "b", "c"), [2.0, 1.0, 1.0])
    assert np.allclose(wv.as_array(), [0.5, 0.25, 0.25])
    uniform = WeightVector.normalized(("a", "b"), [0.0, 0.0])
    assert np.allclose(uniform.as_array(), [0.5, 0.5])


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GaConfig(population=1)
    with pytest.raises(ConfigError):
        GaConfig(elitism=50, population=50)
    with pytest.raises(ConfigError):
        GaConfig(crossover_prob=1.5)


def test_chi2_hand_values():
    observed = np.array([0.2, 0.4])
    exact = np.vstack([observed, observed + 0.1])
    assert chi2(np.array([1.0, 0.0]), exact, observed) == 0.0
    straddle = np.vstack([observed - 0.05, observed + 0.05])
    assert chi2(np.array([0.5, 0.5]), straddle, observed) == pytest.approx(0.0,
                                                                           abs=1e-16)
    single = (observed + 0.1)[None, :]
    assert chi2(np.array([1.0]), single, observed) == pytest.approx(0.02)


def test_chi2_is_weighted_mean_not_weighted_residual():
    # the averaged prediction can beat every member; per-member residual
    # weighting could not
    observed = np.zeros(4)
    preds = np.vstack([np.full(4, 0.1), np.full(4, -0.1)])
    corner = min(chi2(np.array([1.0, 0.0]), preds, observed),
                 chi2(np.array([0.0, 1.0]), preds, observed))
    mixed = chi2(np.array([0.5, 0.5]), preds, observed)
    assert mixed < corner


def test_chi2_permutation_equivariance():
    rng = np.random.default_rng(51)
    preds = rng.uniform(0.0, 0.5, size=(4, 30))
    observed = rng.uniform(0.0, 0.5, size=30)
    w = rng.dirichlet(np.ones(4))
    perm = rng.permutation(4)
    assert chi2(w, preds, observed) == pytest.approx(
        chi2(w[perm], preds[perm], observed), rel=1e-12)


def test_chi2_shape_mismatch():
    with pytest.raises(InputError):
        chi2(np.array([1.0]), np.ones((2, 3)), np.zeros(3))


LOAM = dict(sand=40.0, silt=40.0, clay=20.0, bulk_density=1.35, organic_carbon=1.2)


def test_ensemble_theta_degenerate_and_mean():
    rec = profile_arrays(**LOAM)
    one_hot = WeightVector(members=(PtfId.COSBY1, PtfId.CARSEL),
                           weights=(1.0, 0.0))
    a = theta_at(predict(PtfId.COSBY1, **LOAM), 330.0)
    b = theta_at(predict(PtfId.CARSEL, **LOAM), 330.0)
    assert ensemble_theta(one_hot, [330.0], **rec).tolist() == [[a]]
    even = WeightVector(members=(PtfId.COSBY1, PtfId.CARSEL),
                        weights=(0.5, 0.5))
    theta = ensemble_theta(even, [330.0], **rec)[0, 0]
    assert theta == pytest.approx((a + b) / 2.0, rel=1e-14)
    assert min(a, b) <= theta <= max(a, b)


def test_ensemble_theta_vector_heads_nonincreasing():
    rec = profile_arrays(**LOAM)
    wv = WeightVector.normalized(MEMBERS, [1.0, 1.0, 1.0])
    theta = ensemble_theta(wv, np.array([0.0, 330.0, 15000.0]), **rec)
    assert theta.shape == (1, 3)
    assert theta[0, 0] >= theta[0, 1] >= theta[0, 2]
    square = ensemble_theta(wv, np.array([[0.0, 330.0], [15000.0, 330.0]]), **rec)
    np.testing.assert_array_equal(square, theta[:, [0, 1, 2, 1]])
    with pytest.raises(InputError):
        ensemble_theta(wv, [-1.0], **rec)


def test_optimizer_single_member():
    preds = np.array([[0.2, 0.3, 0.4]])
    observed = np.array([0.25, 0.3, 0.35])
    wv = optimize_weights(preds, observed)
    assert wv.weights == (1.0,)


def test_optimizer_finds_exact_member():
    rng = np.random.default_rng(52)
    observed = rng.uniform(0.05, 0.5, size=120)
    preds = np.vstack([observed,
                       observed + rng.normal(0.05, 0.02, size=120)])
    wv = optimize_weights(preds, observed, GaConfig(seed=1))
    assert wv.weights[0] >= 0.999


def test_optimizer_dominates_corners():
    rng = np.random.default_rng(53)
    observed = rng.uniform(0.05, 0.5, size=200)
    preds = observed + rng.normal(0.0, 0.05, size=(3, 200))
    wv = optimize_weights(preds, observed, GaConfig(seed=2))
    ga = chi2(wv, preds, observed)
    for k in range(3):
        one_hot = np.zeros(3)
        one_hot[k] = 1.0
        assert ga <= chi2(one_hot, preds, observed) * (1.0 + 1e-8)
    assert sum(wv.weights) == pytest.approx(1.0, abs=1e-12)


def test_optimizer_two_member_grid_bracket():
    rng = np.random.default_rng(54)
    observed = rng.uniform(0.05, 0.5, size=150)
    preds = observed + rng.normal(0.0, 0.04, size=(2, 150))
    wv = optimize_weights(preds, observed, GaConfig(seed=3))
    ga = chi2(wv, preds, observed)
    assert ga <= grid_min_chi2(preds, observed) + 1e-12  # continuum beats grid


def test_optimizer_three_member_vs_grid():
    rng = np.random.default_rng(55)
    for trial in range(5):
        observed = rng.uniform(0.05, 0.5, size=200)
        preds = observed + rng.normal(0.0, 0.05, size=(3, 200))
        wv = optimize_weights(preds, observed, GaConfig(seed=trial))
        ga = chi2(wv, preds, observed)
        assert ga <= 1.01 * grid_min_chi2(preds, observed)


def test_optimizer_deterministic():
    rng = np.random.default_rng(56)
    observed = rng.uniform(0.05, 0.5, size=100)
    preds = observed + rng.normal(0.0, 0.05, size=(3, 100))
    a = optimize_weights(preds, observed, GaConfig(seed=9))
    b = optimize_weights(preds, observed, GaConfig(seed=9))
    assert a == b


def test_optimizer_rejects_shape_mismatch():
    with pytest.raises(InputError):
        optimize_weights(np.ones((2, 3)), np.zeros(4))


def brute_force_chi2(preds, observed):
    """Best chi2 over every support: the equality-constrained least-squares
    optimum on each support, kept when its weights are non-negative."""
    m = preds.shape[0]
    gram = preds @ preds.T
    lin = preds @ observed
    best = np.inf
    for k in range(1, m + 1):
        for support in itertools.combinations(range(m), k):
            idx = list(support)
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = gram[np.ix_(idx, idx)]
            kkt[k, k] = 0.0
            z = np.linalg.lstsq(kkt, np.append(lin[idx], 1.0), rcond=None)[0][:k]
            if np.all(z >= 0.0):
                w = np.zeros(m)
                w[idx] = z
                best = min(best, float(np.sum((w @ preds - observed) ** 2)))
    return best


_THETA = st.integers(0, 600).map(lambda k: k / 1000.0)


@st.composite
def fit_problems(draw, members=st.integers(1, 6)):
    """(members, points) predictions and targets: water contents on a 0.001
    grid; targets are either free or a noisy mix of the members, and the
    last member may duplicate the first."""
    m = draw(members)
    n = draw(st.integers(1, 25))
    preds = np.array(draw(st.lists(_THETA, min_size=m * n, max_size=m * n)))
    preds = preds.reshape(m, n)
    if m > 1 and draw(st.booleans()):
        preds[-1] = preds[0]
    mix = np.array(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)), float)
    if mix.sum() > 0 and draw(st.booleans()):
        noise = np.array(draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)))
        observed = mix / mix.sum() @ preds + noise / 1000.0
    else:
        observed = np.array(draw(st.lists(_THETA, min_size=n, max_size=n)))
    return preds, observed


SOLVER_PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


@SOLVER_PROPERTIES
@given(fit_problems())
def test_simplex_weights_kkt_conditions(problem):
    preds, observed = problem
    w = simplex_weights(preds, observed).as_array()
    gram = preds @ preds.T
    grad = gram @ w - preds @ observed
    tol = 1e-10 * max(float(np.max(np.diag(gram))), 1e-300)
    on = w > 0.0
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    mu = grad[on].mean()
    assert np.all(np.abs(grad[on] - mu) <= tol)   # equal gradient on the support
    assert np.all(grad[~on] - mu >= -tol)          # non-negative multipliers off it


@SOLVER_PROPERTIES
@given(fit_problems())
def test_simplex_weights_matches_brute_force_and_beats_corners_and_ga(problem):
    preds, observed = problem
    wv = simplex_weights(preds, observed)
    got = chi2(wv, preds, observed)
    best = brute_force_chi2(preds, observed)
    # 1e-12 relative, plus the rounding of chi2 itself: a residual good to
    # about 1e-16 moves chi2 by about 2e-16 * sum|r| <= 2e-16 * sqrt(n chi2),
    # and on an exact fit chi2 is n residuals of rounding size (< 1e-13)
    n = observed.size
    assert abs(got - best) <= 1e-12 * best + 1e-14 * np.sqrt(n * best) + n * 1e-26
    assert got <= np.min(np.sum((preds - observed) ** 2, axis=1))
    ga = optimize_weights(preds, observed, GaConfig(population=8, generations=5, seed=0))
    assert got <= chi2(ga, preds, observed) * (1.0 + 1e-12) + 1e-300
    again = simplex_weights(preds, observed)
    assert again.as_array().tobytes() == wv.as_array().tobytes()


NETWORK_FREE = (PtfId.COSBY0, PtfId.CARSEL, PtfId.CLAPP, PtfId.ROSETTA_H1W, PtfId.COSBY1,
                PtfId.COSBY2, PtfId.RAWLS, PtfId.CAMPBELL, PtfId.WOSTEN, PtfId.WEYNANTS,
                PtfId.VEREECKEN)


@pytest.fixture(scope="module")
def calibration_points():
    """The 11 network-free members' predictions at the 1,200 observation
    points of 300 samples, and the observed water contents."""
    rng = np.random.default_rng(60)
    samples = synthetic_population(rng, 300, PtfId.WOSTEN, noise=0.02,
                                   heads=(100.0, 330.0, 1000.0, 15000.0))
    preds, observed, _ = point_matrix(NETWORK_FREE, samples)
    return preds, observed


def bootstrap_points(data, preds, observed):
    """A bootstrap draw of the points, as a calibration replica fits."""
    at = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
        0, observed.size, observed.size)
    return np.ascontiguousarray(preds[:, at]), observed[at]


FIT_RELATIONS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@FIT_RELATIONS
@given(st.data())
def test_simplex_weights_member_order_keeps_support_and_chi2(calibration_points, data):
    """Permuting the members gives the same support and a chi2 equal to
    1e-12 relative; the weights themselves move by rounding."""
    preds, observed = bootstrap_points(data, *calibration_points)
    order = data.draw(st.permutations(range(len(NETWORK_FREE))))
    members = tuple(m.value for m in NETWORK_FREE)
    fit = simplex_weights(preds, observed, members=members)
    permuted = simplex_weights(preds[order], observed, members=[members[k] for k in order])
    support = {m for m, w in zip(fit.members, fit.weights) if w > 0.0}
    assert {m for m, w in zip(permuted.members, permuted.weights) if w > 0.0} == support
    best = chi2(fit, preds, observed)
    assert chi2(permuted, preds[order], observed) == pytest.approx(best, rel=1e-12)


@FIT_RELATIONS
@given(st.data())
def test_simplex_weights_adding_a_member_never_raises_chi2(calibration_points, data):
    """The optimum over more members is over a larger simplex: adding one
    never raises chi2 beyond 1e-12 relative rounding."""
    preds, observed = bootstrap_points(data, *calibration_points)
    order = data.draw(st.permutations(range(len(NETWORK_FREE))))
    k = data.draw(st.integers(1, len(NETWORK_FREE) - 1))
    fewer, more = preds[order[:k]], preds[order[:k + 1]]
    before = chi2(simplex_weights(fewer, observed), fewer, observed)
    after = chi2(simplex_weights(more, observed), more, observed)
    assert after <= before * (1.0 + 1e-12)


@FIT_RELATIONS
@given(st.data())
def test_simplex_weights_batch_of_mixed_targets_equals_each_fit_alone(calibration_points, data):
    """Bootstrap draws of different sizes from 11 members, with targets a
    random mix of them: most fits step back in the same passes as others,
    and each still has the bytes of its fit solved alone."""
    preds, _ = calibration_points
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    observed = rng.dirichlet(np.ones(len(preds))) @ preds + rng.normal(0.0, 0.02, preds.shape[1])
    fits = []
    for size in data.draw(st.lists(st.integers(5, preds.shape[1]), min_size=2, max_size=8)):
        at = rng.integers(0, preds.shape[1], size)
        fits.append((np.ascontiguousarray(preds[:, at]), observed[at]))
    for (p, y), fitted in zip(fits, simplex_weights_batch(fits)):
        assert fitted.as_array().tobytes() == simplex_weights(p, y).as_array().tobytes()


def test_simplex_weights_edge_cases():
    rng = np.random.default_rng(58)
    p = rng.uniform(0.05, 0.5, size=(3, 40))
    y = 0.3 * p[0] + 0.7 * p[1] + rng.normal(0.0, 0.01, size=40)

    one = simplex_weights(p[:1], y, members=("only",))          # m = 1
    assert one.members == ("only",) and one.weights == (1.0,)

    exact = simplex_weights(p, p[2])                             # data = member 2
    assert exact.weights == (0.0, 0.0, 1.0)
    near = simplex_weights(p[:2], (1.0 - 1e-6) * p[0] + 1e-6 * p[1])  # barely off it
    assert near.weights[1] == pytest.approx(1e-6, rel=1e-6)

    dup = simplex_weights(np.vstack([p[0], p[0], p[1]]), y)     # duplicate members
    pair = simplex_weights(p[:2], y)
    assert dup.weights[0] + dup.weights[1] == pytest.approx(pair.weights[0], abs=1e-9)
    assert chi2(dup, np.vstack([p[0], p[0], p[1]]), y) == pytest.approx(
        chi2(pair, p[:2], y), rel=1e-12)

    few = rng.uniform(0.05, 0.5, size=(6, 3))                    # fewer points than members
    target = rng.uniform(0.05, 0.5, size=3)
    wv = simplex_weights(few, target)
    assert chi2(wv, few, target) <= brute_force_chi2(few, target) + 1e-15

    with pytest.raises(InputError):
        simplex_weights(np.ones((2, 3)), np.zeros(4))


@pytest.mark.parametrize("case", ["nan-target", "infinite-prediction", "no-points",
                                  "no-members"])
def test_simplex_weights_rejects_malformed_input(case):
    """Each case is an InputError before any solve. Unchecked, a NaN target
    failed in a reduction, an infinite prediction in the SVD, no points
    returned the first corner, and no members failed in an argmin."""
    preds = np.random.default_rng(70).uniform(0.05, 0.5, size=(3, 10))
    observed = preds.mean(axis=0)
    if case == "nan-target":
        observed[4] = np.nan
    elif case == "infinite-prediction":
        preds[1, 2] = np.inf
    elif case == "no-points":
        preds, observed = preds[:, :0], observed[:0]
    else:
        preds = preds[:0]
    with pytest.raises(InputError):
        simplex_weights(preds, observed)


@SOLVER_PROPERTIES
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    fit_problems(st.just(m)), min_size=2, max_size=5, unique_by=lambda fit: fit[1].size)))
def test_simplex_weights_batch_bytes_equal_each_fit_alone(fits):
    """A fit's weights have the same bytes in a batch as alone: fits with one
    member count and different point counts, among them duplicate members
    and fewer points than members, drop out of the batch at different passes."""
    batch = simplex_weights_batch(fits)
    assert len(batch) == len(fits)
    for (preds, observed), fitted in zip(fits, batch):
        alone = simplex_weights(preds, observed)
        assert fitted.as_array().tobytes() == alone.as_array().tobytes()


def test_kkt_solve_falls_back_per_fit_on_a_singular_stack():
    """A stack holding a singular system (three identical members on the
    support) solves that fit by least squares and every other fit as a stack
    of its own."""
    rng = np.random.default_rng(71)
    stats = []
    for n in (8, 12, 20):
        preds = rng.uniform(0.05, 0.5, size=(3, n))
        if n == 12:
            preds[:] = preds[0]
        stats.append(ensemble_module._normal_equations(preds, rng.uniform(0.05, 0.5, n)))
    gram, lin, _ = map(np.stack, zip(*stats))
    support = np.array([[True, False, True], [True, True, True], [True, True, True]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.block([[gram[1], np.ones((3, 1))], [np.ones((1, 3)), 0.0]]),
                        np.append(lin[1], 1.0))
    z = ensemble_module._kkt_solutions(gram, lin, support)
    for f in (0, 2):
        alone = ensemble_module._kkt_solutions(gram[f:f + 1], lin[f:f + 1], support[f:f + 1])
        assert z[f].tobytes() == alone[0].tobytes()
    assert z[1].tobytes() == ensemble_module._support_solution(
        gram[1], lin[1], np.arange(3)).tobytes()


def test_calibrate_default_is_simplex_weights():
    rng = np.random.default_rng(59)
    samples = synthetic_population(rng, 20, PtfId.WOSTEN, noise=0.02)
    result = calibrate(MEMBERS, samples, n_replicas=3, seed=21)
    preds, observed, _ = point_matrix(MEMBERS, samples)  # two points per sample
    for rep, fitted in zip(bootstrap_split(samples, 3, (21,)), result.replicas):
        cols = [2 * row + k for row in rep.calibration_rows for k in (0, 1)]
        assert fitted.weights == simplex_weights(preds[:, cols], observed[cols],
                                                 members=MEMBERS)


def test_calibrate_stratified_replicas_are_simplex_weights():
    """Every replica of every stratum, the global one included, is fitted in
    one batch and equals simplex_weights on that replica's drawn points."""
    rng = np.random.default_rng(59)
    samples = synthetic_population(rng, 60, PtfId.WOSTEN, noise=0.02)
    model = calibrate_stratified(MEMBERS, samples, "texture", n_replicas=3, seed=21,
                                 min_stratum_points=10)
    preds, observed, _ = point_matrix(MEMBERS, samples)  # two points per sample
    groups = stratum_indices(samples, "texture")
    assert len(model.strata) >= 2
    for key, result in model.calibrations.items():
        if key == GLOBAL_STRATUM:
            rows, seed = np.arange(len(samples)), (21,)
        else:
            rows, seed = groups[key], ensemble_module._stratum_seed((21,), key)
        for rep, fitted in zip(bootstrap_split(samples.take(rows), 3, seed), result.replicas):
            cols = [2 * row + k for row in rows[list(rep.calibration_rows)] for k in (0, 1)]
            assert fitted.weights == simplex_weights(preds[:, cols], observed[cols],
                                                     members=MEMBERS)


def test_point_matrix_shapes():
    rng = np.random.default_rng(57)
    samples = synthetic_population(rng, 10, PtfId.COSBY1, noise=0.01)
    preds, observed, psi = point_matrix(MEMBERS, samples)
    assert preds.shape == (3, 20)
    assert observed.shape == (20,) and psi.shape == (20,)
    assert set(np.unique(psi)) == {330.0, 15000.0}


def test_point_matrix_value_is_member_thetas_value():
    """A point's member value has the bytes member_thetas gives for its sample
    and head: a class-table, a regression and a network member."""
    rng = np.random.default_rng(63)
    heads = (0.0, 100.0, 330.0, 15000.0)
    samples = synthetic_population(rng, 40, PtfId.CARSEL, noise=0.01, heads=heads)
    members = (PtfId.CARSEL, PtfId.WOSTEN, PtfId.ROSETTA_H2W)
    register_ann(PtfId.ROSETTA_H2W, random_net(rng))
    try:
        preds, _, psi = point_matrix(members, samples)
        arrays = {f: getattr(samples, f) for f in PREDICTOR_FIELDS}
        thetas = member_thetas(members, heads, **arrays, topsoil=np.ones(len(samples)))
    finally:
        clear_ann_registry()
    want = thetas[:, np.searchsorted(heads, psi), samples.obs_owner]
    assert preds.shape == want.shape == (3, 160)
    assert preds.tobytes() == want.tobytes()


def test_point_matrix_missing_predictor():
    samples = sample_table([make_sample("A", 40, 40, 20, oc=None,
                                        obs=[(330, 0.3), (15000, 0.15)])])
    with pytest.raises(InputError) as err:
        point_matrix([PtfId.WOSTEN], samples)
    assert "organic_carbon" in str(err.value)


def test_sample_row_does_not_depend_on_its_batch():
    """A sample's predicted row has the same bytes in its full table, in a
    one-row take of the table and as a profile of scalars: the members
    are summed one by one in member order, not by BLAS, whose summation
    order changes with the batch size."""
    # every member that needs no trained network
    members = tuple(m for m in ALL_PTFS if m not in (PtfId.ROSETTA_H2W, PtfId.ROSETTA_H3W))
    rng = np.random.default_rng(62)
    table = synthetic_population(rng, 40, PtfId.COSBY1)
    vector = WeightVector.normalized(members, rng.uniform(0.1, 1.0, len(members)))
    heads = [0.0, 330.0, 15000.0]
    whole = samples_theta(vector, table, heads)
    for i in range(len(table)):
        rec = profile_arrays(**{f: getattr(table, f)[i].item() for f in PREDICTOR_FIELDS})
        np.testing.assert_array_equal(samples_theta(vector, table.take([i]), heads)[0],
                                      whole[i])
        np.testing.assert_array_equal(ensemble_theta(vector, heads, **rec)[0], whole[i])


def test_calibrate_prefers_true_model():
    rng = np.random.default_rng(58)
    samples = synthetic_population(rng, 40, PtfId.COSBY1, noise=0.01)
    result = calibrate(MEMBERS, samples, n_replicas=6, seed=4)
    weights = dict(zip(result.members, result.mean_weights.weights))
    assert weights[PtfId.COSBY1] > 0.8
    assert result.mean_cal_rmse < 0.02


def test_calibrate_replica_bookkeeping():
    rng = np.random.default_rng(59)
    samples = synthetic_population(rng, 25, PtfId.CARSEL, noise=0.02)
    result = calibrate(MEMBERS, samples, n_replicas=5, seed=5)
    assert isinstance(result, CalibrationResult)
    assert len(result.replicas) == 5
    assert result.n_points == 50
    assert sum(result.mean_weights.weights) == pytest.approx(1.0, abs=1e-12)
    assert all(s >= 0.0 for s in result.weight_std)
    for rep in result.replicas:
        assert sum(rep.weights.weights) == pytest.approx(1.0, abs=1e-12)
        assert rep.val_rmse is None or rep.val_rmse > 0.0
    assert [rep.index for rep in result.replicas] == list(range(5))


def test_calibrate_deterministic():
    rng = np.random.default_rng(60)
    samples = synthetic_population(rng, 20, PtfId.COSBY1, noise=0.02)
    a = calibrate(MEMBERS, samples, n_replicas=4, seed=6)
    b = calibrate(MEMBERS, samples, n_replicas=4, seed=6)
    assert a.mean_weights == b.mean_weights
    assert [r.cal_rmse for r in a.replicas] == [r.cal_rmse for r in b.replicas]
    c = calibrate(MEMBERS, samples, n_replicas=4, seed=7)
    assert [r.cal_rmse for r in a.replicas] != [r.cal_rmse for r in c.replicas]


def test_calibrate_dominance_per_replica():
    rng = np.random.default_rng(61)
    samples = synthetic_population(rng, 30, PtfId.CARSEL, noise=0.03)
    seed = 8
    n_replicas = 6
    result = calibrate(MEMBERS, samples, n_replicas=n_replicas, seed=seed)

    preds, observed, _ = point_matrix(MEMBERS, samples)  # a point per observation
    replicas = bootstrap_split(samples, n_replicas, (seed,))
    for rep, rr in zip(replicas, result.replicas):
        idx = samples.obs_index(rep.calibration_rows)
        member_rmse = np.sqrt(np.mean((preds[:, idx] - observed[idx]) ** 2,
                                      axis=1))
        assert rr.cal_rmse <= member_rmse.min() + 1e-6


def two_class_population(rng):
    """30 sand-class samples from one true model, 30 clay-class from another."""
    sa_sand = rng.uniform(92, 96, 30)
    sa_silt = rng.uniform(1, 2, 30)
    sandy = population_records(rng, 30, PtfId.COSBY1, noise=0.01, prefix="sa",
                               sand=sa_sand, silt=sa_silt, clay=100.0 - sa_sand - sa_silt)
    cl_sand = rng.uniform(10, 20, 30)
    cl_silt = rng.uniform(10, 20, 30)
    clayey = population_records(rng, 30, PtfId.CARSEL, noise=0.01, prefix="cl",
                                sand=cl_sand, silt=cl_silt, clay=100.0 - cl_sand - cl_silt)
    return sample_table(sandy + clayey)


def test_stratified_two_population_improvement():
    rng = np.random.default_rng(62)
    samples = two_class_population(rng)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "texture", n_replicas=4, seed=9,
        min_stratum_points=40)
    assert set(model.strata) == {"texture:sand", "texture:clay"}
    w_sand = dict(zip(model.members, model.strata["texture:sand"].weights))
    w_clay = dict(zip(model.members, model.strata["texture:clay"].weights))
    assert w_sand[PtfId.COSBY1] > 0.8
    assert w_clay[PtfId.CARSEL] > 0.8
    assert model.pooled_rmse_stratified < model.pooled_rmse_global


def test_stratified_below_threshold_falls_back():
    rng = np.random.default_rng(63)
    samples = synthetic_population(rng, 12, PtfId.COSBY1, noise=0.02)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "texture", n_replicas=3, seed=10,
        min_stratum_points=10**6)
    assert model.strata == {}
    assert model.below_threshold
    assert model.fallback == model.calibrations[GLOBAL_STRATUM].mean_weights
    assert model.pooled_rmse_stratified == pytest.approx(
        model.pooled_rmse_global, rel=1e-12)


def test_stratified_pressure_scheme():
    rng = np.random.default_rng(64)
    samples = synthetic_population(rng, 40, PtfId.COSBY1, noise=0.02)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "pressure", n_replicas=3, seed=11,
        min_stratum_points=20)
    assert set(model.strata) == {"psi:330", "psi:15000"}
    assert model.n_params == 2 * 2


def test_stratified_oc_edges_are_checked_before_any_fit(monkeypatch):
    rng = np.random.default_rng(68)
    samples = synthetic_population(rng, 12, PtfId.COSBY1, noise=0.02)
    draws = []
    monkeypatch.setattr(ensemble_module, "bootstrap_split", lambda *a: draws.append(a))
    for edges in ((2.0, 0.5, 1.0), (0.1, float("nan")), (0.3, 0.3)):
        with pytest.raises(ConfigError) as err:
            calibrate_stratified((PtfId.COSBY1, PtfId.CARSEL), samples, "oc",
                                 n_replicas=2, oc_edges=edges)
        assert "finite and strictly increasing" in str(err.value)
    assert draws == []


@pytest.mark.parametrize("points", [0, -1])
def test_stratified_min_points_below_one_is_a_config_error(points):
    samples = synthetic_population(np.random.default_rng(69), 12, PtfId.COSBY1)
    with pytest.raises(ConfigError) as err:
        calibrate_stratified((PtfId.COSBY1, PtfId.CARSEL), samples, "pressure",
                             n_replicas=2, min_stratum_points=points)
    assert str(err.value) == f"min_stratum_points must be at least 1, got {points}"


def test_weight_file_round_trip(tmp_path):
    wv = WeightVector.normalized(MEMBERS, [0.61, 0.09, 0.30])
    path = tmp_path / "weights.tsv"
    write_weights(path, wv, meta={"scheme": "global", "seed": 4})
    loaded, meta = read_weights(path)
    assert loaded.members == tuple(m.value for m in MEMBERS)
    assert np.allclose(loaded.as_array(), wv.as_array(), rtol=0, atol=0)
    assert meta["scheme"] == "global"
    bad = tmp_path / "junk.tsv"
    bad.write_text("hello\nworld\n")
    with pytest.raises(InputError):
        read_weights(bad)


WEIGHTS_TEXT = """\
# members = cosby1,carsel,wosten
# replicas = 5
# scheme = global
# mean_cal_rmse = 0.0213
# mean_val_rmse = None
ptf_id\tweight
cosby1\t0.5
carsel\t0.125
wosten\t0.375
"""

REPLICA_TEXT = """\
# members = cosby1,carsel
# seed = 3
stratum\treplica\tcal_rmse\tval_rmse\tw_cosby1\tw_carsel
global\t0\t0.021\t0.025\t0.25\t0.75
global\t1\t0.02\t\t1.0\t0.0
texture:sand\t0\t0.01\t0.03\t0.5\t0.5
"""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("reader, text", [(read_weights, WEIGHTS_TEXT),
                                          (read_replica_table, REPLICA_TEXT)],
                         ids=["weights", "replicas"])
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_weight_table_token_splice_fuzz(fuzz_dir, reader, text, data):
    """A spliced weight or replica table reads or raises a DataError;
    nothing else escapes."""
    path = fuzz_dir / "table.tsv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data.draw(spliced_text(text)))
    try:
        reader(path)
    except DataError:
        pass


def test_replica_table_round_trip(tmp_path):
    rng = np.random.default_rng(67)
    samples = synthetic_population(rng, 15, PtfId.COSBY1, noise=0.02)
    result = calibrate(MEMBERS, samples, n_replicas=3, seed=14)
    path = tmp_path / "replicas.tsv"
    write_replica_table(path, {GLOBAL_STRATUM: result}, meta={"seed": 14})
    members, strata, meta = read_replica_table(path)
    assert members == tuple(m.value for m in MEMBERS)
    assert meta["seed"] == "14"
    loaded = strata[GLOBAL_STRATUM]
    assert len(loaded) == 3
    for orig, back in zip(result.replicas, loaded):
        assert back.index == orig.index
        assert back.cal_rmse == orig.cal_rmse
        assert back.val_rmse == orig.val_rmse
        assert np.allclose(back.weights.as_array(),
                           orig.weights.as_array(), rtol=0, atol=1e-15)


ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_UNIT = st.floats(0.0, 1.0)
_PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=16)


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.tsv"


@st.composite
def weight_vectors(draw, members=None):
    if members is None:
        members = draw(st.lists(st.sampled_from(list(PtfId)), min_size=1, max_size=13,
                                unique=True))
    raw = draw(st.lists(_UNIT, min_size=len(members), max_size=len(members)))
    return WeightVector.normalized(members, raw)


@st.composite
def table_meta(draw):
    """The metadata calibrate writes (oc_edges and a None val_rmse included)
    plus free key = value lines."""
    edges = sorted(set(draw(st.lists(st.floats(1e-6, 100.0), min_size=1, max_size=8))))
    meta = {"members": "cosby1,carsel", "replicas": draw(st.integers(1, 10**6)),
            "seed": draw(st.integers(0, 2**63)), "scheme": "oc",
            "oc_edges": ",".join(map(repr, edges)),
            "mean_cal_rmse": draw(_UNIT), "mean_val_rmse": draw(st.none() | _UNIT)}
    extra = draw(st.dictionaries(st.from_regex(r"x_[a-z_]{1,10}", fullmatch=True),
                                 st.one_of(st.integers(), st.floats(), _PRINTABLE.map(str.strip)),
                                 max_size=3))
    return {**meta, **extra}, tuple(edges)


def check_meta(read_back, written):
    meta, edges = written
    assert read_back == {key: str(value) for key, value in meta.items()}
    assert tuple(float(e) for e in read_back["oc_edges"].split(",")) == edges
    assert float(read_back["mean_cal_rmse"]) == meta["mean_cal_rmse"]
    if meta["mean_val_rmse"] is None:
        assert read_back["mean_val_rmse"] == "None"


@ROUND_TRIP
@given(weight_vectors(), table_meta())
def test_weight_file_round_trip_property(table_file, vector, meta):
    write_weights(table_file, vector, meta=meta[0])
    back, read_meta = read_weights(table_file)
    assert back == vector  # members and every weight bit
    check_meta(read_meta, meta)


@st.composite
def calibration_sets(draw):
    """Stratum key -> CalibrationResult over one member list, the global
    stratum first, with val_rmse None on some replicas."""
    members = tuple(draw(st.lists(st.sampled_from(list(PtfId)), min_size=1, max_size=13,
                                  unique=True)))
    keys = draw(st.lists(st.from_regex(r"(texture|oc|psi):[a-z0-9][a-z0-9 .]{0,11}",
                                       fullmatch=True), max_size=3, unique=True))
    calibrations = {}
    for key in [GLOBAL_STRATUM, *keys]:
        replicas = tuple(
            ReplicaResult(index=r, weights=draw(weight_vectors(members)),
                          cal_rmse=draw(_UNIT), val_rmse=draw(st.none() | _UNIT))
            for r in range(draw(st.integers(1, 4))))
        calibrations[key] = CalibrationResult(
            members=members, replicas=replicas, mean_weights=replicas[0].weights,
            weight_std=(0.0,) * len(members), n_points=draw(st.integers(1, 10**6)))
    return calibrations


@ROUND_TRIP
@given(calibration_sets(), table_meta())
def test_replica_table_round_trip_property(table_file, calibrations, meta):
    write_replica_table(table_file, calibrations, meta=meta[0])
    members, strata, read_meta = read_replica_table(table_file)
    assert members == next(iter(calibrations.values())).members
    assert list(strata) == list(calibrations)
    # the reader normalizes each row again: a written row sums to 1 within
    # about one rounding per member, so a weight may move by as much
    rtol = 2.3e-16 * (len(members) + 1)
    for key, result in calibrations.items():
        assert len(strata[key]) == len(result.replicas)
        for back, orig in zip(strata[key], result.replicas):
            assert (back.index, back.cal_rmse, back.val_rmse) == \
                (orig.index, orig.cal_rmse, orig.val_rmse)
            assert back.weights.members == orig.weights.members
            np.testing.assert_allclose(back.weights.as_array(), orig.weights.as_array(),
                                       rtol=rtol, atol=0.0)
    check_meta(read_meta, meta)
