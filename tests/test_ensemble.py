"""Weighted-mean ensembles: objective, optimizer, bootstrap calibration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptfens import (
    CalibrationResult,
    ConfigError,
    GaConfig,
    InputError,
    PredictorRecord,
    PtfId,
    WeightVector,
    calibrate,
    calibrate_stratified,
    chi2,
    ensemble_theta,
    optimize_weights,
    predict_theta,
    predict_with_model,
    read_replica_table,
    read_weights,
    samples_theta,
    simplex_weights,
    write_replica_table,
    write_weights,
)
from ptfens.dataset import SampleTable, bootstrap_split
from ptfens.ensemble import GLOBAL_STRATUM, point_matrix, resolve_stratum
from helpers import make_sample, synthetic_population

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


def test_ensemble_theta_degenerate_and_mean():
    rec = PredictorRecord(sand=40.0, silt=40.0, clay=20.0,
                          bulk_density=1.35, organic_carbon=1.2)
    one_hot = WeightVector(members=(PtfId.COSBY1, PtfId.CARSEL),
                           weights=(1.0, 0.0))
    assert ensemble_theta(one_hot, rec, 330.0) == \
        predict_theta(PtfId.COSBY1, rec, 330.0)
    even = WeightVector(members=(PtfId.COSBY1, PtfId.CARSEL),
                        weights=(0.5, 0.5))
    a = predict_theta(PtfId.COSBY1, rec, 330.0)
    b = predict_theta(PtfId.CARSEL, rec, 330.0)
    theta = ensemble_theta(even, rec, 330.0)
    assert theta == pytest.approx((a + b) / 2.0, rel=1e-14)
    assert min(a, b) <= theta <= max(a, b)


def test_ensemble_theta_vector_heads_nonincreasing():
    rec = PredictorRecord(sand=40.0, silt=40.0, clay=20.0,
                          bulk_density=1.35, organic_carbon=1.2)
    wv = WeightVector.normalized(MEMBERS, [1.0, 1.0, 1.0])
    theta = ensemble_theta(wv, rec, np.array([0.0, 330.0, 15000.0]))
    assert theta.shape == (3,)
    assert theta[0] >= theta[1] >= theta[2]


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
def fit_problems(draw):
    """(members, points) predictions and targets: water contents on a 0.001
    grid; targets are either free or a noisy mix of the members, and the
    last member may duplicate the first."""
    m = draw(st.integers(1, 6))
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


def test_calibrate_default_is_simplex_weights():
    rng = np.random.default_rng(59)
    samples = synthetic_population(rng, 20, PtfId.WOSTEN, noise=0.02)
    result = calibrate(MEMBERS, samples, n_replicas=3, seed=21)
    preds, observed, _ = point_matrix(MEMBERS, samples)  # two points per sample
    index = {s.sample_id: i for i, s in enumerate(samples)}
    for rep, fitted in zip(bootstrap_split(samples, 3, (21,)), result.replicas):
        cols = [2 * index[sid] + k for sid in rep.calibration_ids for k in (0, 1)]
        assert fitted.weights == simplex_weights(preds[:, cols], observed[cols],
                                                 members=MEMBERS)


def test_point_matrix_shapes():
    rng = np.random.default_rng(57)
    samples = synthetic_population(rng, 10, PtfId.COSBY1, noise=0.01)
    preds, observed, psi = point_matrix(MEMBERS, samples)
    assert preds.shape == (3, 20)
    assert observed.shape == (20,) and psi.shape == (20,)
    assert set(np.unique(psi)) == {330.0, 15000.0}


def test_point_matrix_missing_predictor():
    samples = [make_sample("A", 40, 40, 20, oc=None,
                           obs=[(330, 0.3), (15000, 0.15)])]
    with pytest.raises(InputError) as err:
        point_matrix([PtfId.WOSTEN], samples)
    assert "organic_carbon" in str(err.value)


def test_consumers_read_a_table_or_any_sequence_alike():
    rng = np.random.default_rng(61)
    samples = synthetic_population(rng, 30, PtfId.COSBY1, noise=0.02,
                                   heads=(100.0, 330.0, 15000.0))
    samples[4] = make_sample("bare", 40, 40, 20, obs=[])  # resampled, but no points
    table = SampleTable.from_samples(samples)
    for a, b in zip(point_matrix(MEMBERS, samples), point_matrix(MEMBERS, iter(table))):
        np.testing.assert_array_equal(a, b)
    assert bootstrap_split(samples, 4, 9) == bootstrap_split(table, 4, 9)
    assert calibrate(MEMBERS, samples, n_replicas=3, seed=4) == \
        calibrate(MEMBERS, table, n_replicas=3, seed=4)
    for scheme in ("texture", "pressure"):
        assert calibrate_stratified(MEMBERS, samples, scheme, n_replicas=2, seed=4,
                                    min_stratum_points=10) == \
            calibrate_stratified(MEMBERS, table, scheme, n_replicas=2, seed=4,
                                 min_stratum_points=10)
    vector = WeightVector(members=MEMBERS, weights=(0.2, 0.3, 0.5))
    np.testing.assert_array_equal(samples_theta(vector, samples, [330.0, 15000.0]),
                                  samples_theta(vector, table, [330.0, 15000.0]))


def test_calibrate_prefers_true_model():
    rng = np.random.default_rng(58)
    samples = synthetic_population(rng, 40, PtfId.COSBY1, noise=0.01)
    result = calibrate(MEMBERS, samples, n_replicas=6,
                       ga=GaConfig(population=30, generations=60), seed=4)
    weights = dict(zip(result.members, result.mean_weights.weights))
    assert weights[PtfId.COSBY1] > 0.8
    assert result.mean_cal_rmse < 0.02


def test_calibrate_replica_bookkeeping():
    rng = np.random.default_rng(59)
    samples = synthetic_population(rng, 25, PtfId.CARSEL, noise=0.02)
    result = calibrate(MEMBERS, samples, n_replicas=5,
                       ga=GaConfig(population=24, generations=40), seed=5)
    assert isinstance(result, CalibrationResult)
    assert len(result.replicas) == 5
    assert result.n_points == 50
    assert sum(result.mean_weights.weights) == pytest.approx(1.0, abs=1e-12)
    assert all(s >= 0.0 for s in result.weight_std)
    for rep in result.replicas:
        assert sum(rep.weights.weights) == pytest.approx(1.0, abs=1e-12)
        assert rep.val_rmse is None or rep.val_rmse > 0.0
        assert rep.n_cal_points + rep.n_val_points <= 4 * len(samples)


def test_calibrate_deterministic():
    rng = np.random.default_rng(60)
    samples = synthetic_population(rng, 20, PtfId.COSBY1, noise=0.02)
    a = calibrate(MEMBERS, samples, n_replicas=4,
                  ga=GaConfig(population=20, generations=30), seed=6)
    b = calibrate(MEMBERS, samples, n_replicas=4,
                  ga=GaConfig(population=20, generations=30), seed=6)
    assert a.mean_weights == b.mean_weights
    assert [r.cal_rmse for r in a.replicas] == [r.cal_rmse for r in b.replicas]
    c = calibrate(MEMBERS, samples, n_replicas=4,
                  ga=GaConfig(population=20, generations=30), seed=7)
    assert [r.cal_rmse for r in a.replicas] != [r.cal_rmse for r in c.replicas]


def test_calibrate_dominance_per_replica():
    rng = np.random.default_rng(61)
    samples = synthetic_population(rng, 30, PtfId.CARSEL, noise=0.03)
    seed = 8
    n_replicas = 6
    result = calibrate(MEMBERS, samples, n_replicas=n_replicas,
                       ga=GaConfig(population=24, generations=40), seed=seed)

    preds, observed, _ = point_matrix(MEMBERS, samples)
    offsets = {}
    start = 0
    for s in samples:
        offsets[s.sample_id] = np.arange(start, start + len(s.observations))
        start += len(s.observations)
    replicas = bootstrap_split(samples, n_replicas, (seed,))
    for rep, rr in zip(replicas, result.replicas):
        idx = np.concatenate([offsets[sid] for sid in rep.calibration_ids])
        member_rmse = np.sqrt(np.mean((preds[:, idx] - observed[idx]) ** 2,
                                      axis=1))
        assert rr.cal_rmse <= member_rmse.min() + 1e-6


def two_class_population(rng):
    """30 sand-class samples from one true model, 30 clay-class from another."""
    sa_sand = rng.uniform(92, 96, 30)
    sa_silt = rng.uniform(1, 2, 30)
    sandy = synthetic_population(rng, 30, PtfId.COSBY1, noise=0.01, prefix="sa",
                                 sand=sa_sand, silt=sa_silt,
                                 clay=100.0 - sa_sand - sa_silt)
    cl_sand = rng.uniform(10, 20, 30)
    cl_silt = rng.uniform(10, 20, 30)
    clayey = synthetic_population(rng, 30, PtfId.CARSEL, noise=0.01, prefix="cl",
                                  sand=cl_sand, silt=cl_silt,
                                  clay=100.0 - cl_sand - cl_silt)
    return sandy + clayey


def test_stratified_two_population_improvement():
    rng = np.random.default_rng(62)
    samples = two_class_population(rng)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "texture", n_replicas=4,
        ga=GaConfig(population=24, generations=40), seed=9,
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
        (PtfId.COSBY1, PtfId.CARSEL), samples, "texture", n_replicas=3,
        ga=GaConfig(population=16, generations=20), seed=10,
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
        (PtfId.COSBY1, PtfId.CARSEL), samples, "pressure", n_replicas=3,
        ga=GaConfig(population=16, generations=25), seed=11,
        min_stratum_points=20)
    assert set(model.strata) == {"psi:330", "psi:15000"}
    assert model.n_params == 2 * 2


def test_predict_with_model_dispatch():
    rng = np.random.default_rng(65)
    samples = synthetic_population(rng, 30, PtfId.COSBY1, noise=0.02)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "pressure", n_replicas=3,
        ga=GaConfig(population=16, generations=25), seed=12,
        min_stratum_points=10)
    rec = PredictorRecord(sand=40.0, silt=40.0, clay=20.0, bulk_density=1.4,
                          organic_carbon=1.0)

    fc = predict_with_model(model, rec, 330.0)
    assert fc.stratum == "psi:330"
    assert not fc.used_fallback
    assert fc.theta == pytest.approx(
        ensemble_theta(model.strata["psi:330"], rec, 330.0), rel=1e-14)

    sat = predict_with_model(model, rec, 0.0)  # no stratum for this head
    assert sat.used_fallback
    assert sat.theta == pytest.approx(
        ensemble_theta(model.fallback, rec, 0.0), rel=1e-14)

    plain = predict_with_model(model.fallback, rec, 330.0)
    assert plain.theta == pytest.approx(
        ensemble_theta(model.fallback, rec, 330.0), rel=1e-14)
    assert plain.stratum == GLOBAL_STRATUM


def test_resolve_stratum_texture_and_hint():
    rng = np.random.default_rng(66)
    samples = synthetic_population(rng, 30, PtfId.COSBY1, noise=0.02)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "texture", n_replicas=3,
        ga=GaConfig(population=16, generations=25), seed=13,
        min_stratum_points=1)
    rec = PredictorRecord(sand=40.0, silt=40.0, clay=20.0)
    assert resolve_stratum(model, rec=rec) == "texture:loam"
    # bare hints gain the scheme prefix; qualified hints pass through
    assert resolve_stratum(model, stratum="clay") == "texture:clay"
    assert resolve_stratum(model, stratum="texture:clay") == "texture:clay"
    # hints for uncalibrated strata resolve but predict via the fallback
    uncal = predict_with_model(model, rec, 330.0, stratum="texture:quux")
    assert uncal.used_fallback
    assert uncal.theta == pytest.approx(
        ensemble_theta(model.fallback, rec, 330.0), rel=1e-14)


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


def test_replica_table_round_trip(tmp_path):
    rng = np.random.default_rng(67)
    samples = synthetic_population(rng, 15, PtfId.COSBY1, noise=0.02)
    result = calibrate(MEMBERS, samples, n_replicas=3,
                       ga=GaConfig(population=16, generations=20), seed=14)
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
