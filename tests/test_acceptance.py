"""Acceptance gate: eight desk-scale criteria plus an optional full-scale run.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible with
pytest -s or in captured output) before asserting, and criteria with a
runtime budget enforce it.
"""

import math
import os
import time

import numpy as np
import pytest

from ptfens import (
    ALL_PTFS,
    BrooksCoreyParams,
    CampbellParams,
    FitSummary,
    GROUPS,
    GaConfig,
    PtfId,
    SelectionContext,
    VanGenuchtenParams,
    WeightVector,
    aic,
    aicc,
    apply_ensemble_map,
    bootstrap_split,
    calibrate,
    calibrate_stratified,
    chi2,
    load_rosetta_weights,
    optimize_weights,
    qa_filter,
    read_samples,
    simplex_weights,
)
from ptfens import _kernels
from ptfens.errors import DataError
from ptfens.ensemble import point_matrix, write_replica_table, write_weights
from ptfens.metrics import rmse
from ptfens.retention import FAMILY_CODES

from helpers import make_sample, member_curves, sample_table
from test_dataset import qa_fixture
from test_ensemble import two_class_population
from test_mapping import MEMBERS as MAP_MEMBERS
from test_mapping import REPLICAS as MAP_REPLICAS
from test_mapping import layer_stack
from test_metrics import N_POINTS, REFERENCE_AIC, REFERENCE_ENSEMBLE_AIC, SIGMA2


def report(number, name, ok, elapsed=None, limit=None):
    stamp = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({name}) failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s: {elapsed:.2f}s"


def random_parameter_sets(rng, n):
    vg = [VanGenuchtenParams(theta_r=tr, theta_s=ts, alpha=al, n=en)
          for tr, ts, al, en in zip(rng.uniform(0.0, 0.2, n),
                                    rng.uniform(0.25, 0.6, n),
                                    rng.uniform(1e-3, 0.2, n),
                                    rng.uniform(1.01, 3.5, n))]
    bc = [BrooksCoreyParams(theta_r=tr, theta_s=ts, psi_b=pb, lambda_=lam)
          for tr, ts, pb, lam in zip(rng.uniform(0.0, 0.2, n),
                                     rng.uniform(0.25, 0.6, n),
                                     rng.uniform(0.5, 100.0, n),
                                     rng.uniform(0.05, 2.0, n))]
    cmp_ = [CampbellParams(theta_s=ts, psi_e=pe, b=b)
            for ts, pe, b in zip(rng.uniform(0.25, 0.6, n),
                                 rng.uniform(0.5, 60.0, n),
                                 rng.uniform(1.5, 20.0, n))]
    return {"vg": vg, "bc": bc, "cmp": cmp_}


def test_acceptance_1_retention_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    n = 10_000
    grid = np.concatenate([[0.0], np.logspace(-2.0, 7.0, 24)])
    ok = True
    for family, params in random_parameter_sets(rng, n).items():
        codes = np.full(n, FAMILY_CODES[family], dtype=np.int8)
        rows = np.array([p.packed() for p in params])
        thetas = np.empty((n, grid.size))
        for g, psi in enumerate(grid):
            thetas[:, g] = _kernels.theta_points(codes, rows, np.full(n, psi))
        theta_s = rows[:, 0] if family == "cmp" else rows[:, 1]
        floor = np.zeros(n) if family == "cmp" else rows[:, 0]
        ok &= bool(np.all(thetas[:, 0] == theta_s))            # saturation exact
        ok &= bool(np.all(np.diff(thetas, axis=1) <= 1e-15))   # non-increasing
        ok &= bool(np.all(thetas <= theta_s[:, None] + 1e-15))
        ok &= bool(np.all(thetas >= floor[:, None] - 1e-15))
        if family == "vg":
            near_zero = _kernels.theta_points(codes, rows, np.full(n, 1e-6))
        else:
            air_entry = rows[:, 2] if family == "bc" else rows[:, 1]
            near_zero = _kernels.theta_points(codes, rows, air_entry + 1e-6)
        ok &= bool(np.all(np.abs(near_zero - theta_s) < 1e-5))  # continuity
    elapsed = time.perf_counter() - t0
    report(1, "retention-invariants", ok, elapsed, 10.0)


def test_acceptance_2_selection_scores_match_reference():
    t0 = time.perf_counter()
    ctx = SelectionContext(j_star=SIGMA2 * N_POINTS, sigma_hat2=SIGMA2)
    ok = True
    for model, (r, expected) in REFERENCE_AIC.items():
        fit = FitSummary.from_rmse(r, N_POINTS, 1)
        ok &= abs(aic(fit, ctx) - expected) <= 250.0
    texture_gap = None
    for r, n_z, n_k, expected_aic, expected_aicc in REFERENCE_ENSEMBLE_AIC:
        fit = FitSummary.from_rmse(r, n_z, n_k)
        ok &= abs(aic(fit, ctx) - expected_aic) <= 250.0
        ok &= abs(aicc(fit, ctx) - expected_aicc) <= 250.0
        if n_k == 156 and n_z == N_POINTS:  # the texture-stratified model
            texture_gap = aicc(fit, ctx) - aic(fit, ctx)
    ok &= texture_gap is not None and abs(texture_gap - 0.41) <= 0.01
    elapsed = time.perf_counter() - t0
    report(2, "selection-scores", ok, elapsed, 1.0)


def simplex_grid(step=0.01):
    ticks = int(round(1.0 / step))
    combos = [(i, j, ticks - i - j)
              for i in range(ticks + 1) for j in range(ticks + 1 - i)]
    return np.asarray(combos, dtype=np.float64) / ticks


def test_acceptance_3_optimizer_vs_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    grid = simplex_grid(0.01)
    ok = True
    for trial in range(20):
        observed = rng.uniform(0.05, 0.55, 200)
        spread = rng.uniform(0.02, 0.08)
        preds = observed + rng.normal(0.0, spread, size=(3, 200))
        oracle = float(_kernels.chi2_population(grid, preds, observed).min())
        # the exact solver is at or below every grid point, the GA within 1%
        exact = chi2(simplex_weights(preds, observed), preds, observed)
        ok &= exact <= oracle * (1.0 + 1e-12)
        wv = optimize_weights(preds, observed, GaConfig(seed=trial))
        ga = chi2(wv, preds, observed)
        ok &= ga <= 1.01 * oracle + 1e-12
    elapsed = time.perf_counter() - t0
    report(3, "optimizer-vs-grid", ok, elapsed, 60.0)


def synthetic_samples(rng, n, true_ptf, noise):
    from helpers import synthetic_population

    return synthetic_population(rng, n, true_ptf, noise=noise)


def test_acceptance_4_ensemble_dominance():
    rng = np.random.default_rng(1004)
    samples = synthetic_samples(rng, 30, PtfId.CARSEL, noise=0.03)
    members = (PtfId.COSBY1, PtfId.CARSEL, PtfId.WOSTEN)
    seed, n_replicas = 44, 10
    result = calibrate(members, samples, n_replicas=n_replicas, seed=seed)

    preds, observed, _ = point_matrix(members, samples)  # a point per observation
    ok = True
    for rep, rr in zip(bootstrap_split(samples, n_replicas, (seed,)),
                       result.replicas):
        idx = samples.obs_index(rep.calibration_rows)
        member_rmse = np.sqrt(np.mean((preds[:, idx] - observed[idx]) ** 2,
                                      axis=1))
        assert rr.cal_rmse <= member_rmse.min() + 1e-6  # the hard guarantee
        ok &= rr.cal_rmse <= member_rmse.min() + 1e-6
    report(4, "ensemble-dominance", ok)


def test_acceptance_5_bootstrap_statistics():
    t0 = time.perf_counter()
    samples = sample_table([make_sample(f"b{i:04d}", 40, 40, 20,
                                        obs=[(330.0, 0.30), (15000.0, 0.15)])
                            for i in range(1000)])
    first = bootstrap_split(samples, 100, 12345)
    oob = float(np.mean([len(r.validation_rows) for r in first])) / 1000.0
    ok = abs(oob - math.exp(-1.0)) <= 0.02

    second = bootstrap_split(samples, 100, 12345)
    ok &= first == second

    # artifact files from two same-seed calibrations are byte-identical
    rng = np.random.default_rng(1005)
    cal_samples = synthetic_samples(rng, 25, PtfId.COSBY1, noise=0.02)
    members = (PtfId.COSBY1, PtfId.CARSEL, PtfId.WOSTEN)
    import tempfile

    blobs = []
    for run in range(2):
        result = calibrate(members, cal_samples, n_replicas=6, seed=77)
        with tempfile.TemporaryDirectory() as tmp:
            wpath = os.path.join(tmp, "weights.tsv")
            rpath = os.path.join(tmp, "replicas.tsv")
            write_weights(wpath, result.mean_weights, meta={"seed": 77})
            write_replica_table(rpath, {"global": result}, meta={"seed": 77})
            with open(wpath, "rb") as fh:
                wbytes = fh.read()
            with open(rpath, "rb") as fh:
                rbytes = fh.read()
        blobs.append((wbytes, rbytes))
    ok &= blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    report(5, "bootstrap-statistics", ok, elapsed, 30.0)


def test_acceptance_6_stratification_benefit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    samples = two_class_population(rng)
    model = calibrate_stratified(
        (PtfId.COSBY1, PtfId.CARSEL), samples, "texture", n_replicas=4, seed=19,
        min_stratum_points=40)
    ok = model.pooled_rmse_stratified < model.pooled_rmse_global
    elapsed = time.perf_counter() - t0
    report(6, "stratification-benefit", ok, elapsed, 60.0)


def test_acceptance_7_mapping_oracle():
    t0 = time.perf_counter()
    from ptfens.mapping import DEFAULT_NODATA, MAP_HEADS

    layers = layer_stack()
    product = apply_ensemble_map(layers, MAP_REPLICAS)
    weight_matrix = np.stack([wv.as_array() for wv in MAP_REPLICAS])
    ok = product.n_valid_cells == 9
    for r in range(3):
        for c in range(3):
            member = member_curves(MAP_MEMBERS, MAP_HEADS, sand=layers.sand.values[r, c],
                                   silt=layers.silt.values[r, c],
                                   clay=layers.clay.values[r, c])
            estimates = weight_matrix @ member
            for t, head in enumerate(MAP_HEADS):
                want_mean = estimates[:, t].mean()
                want_cv = estimates[:, t].std(ddof=1) / want_mean
                got_mean = product.mean[head].values[r, c]
                got_cv = product.cv[head].values[r, c]
                ok &= abs(got_mean - want_mean) <= 1e-12 * abs(want_mean)
                ok &= abs(got_cv - want_cv) <= 1e-12 * max(abs(want_cv), 1e-300)

    same = [WeightVector(members=MAP_MEMBERS, weights=(0.6, 0.4))] * 3
    flat = apply_ensemble_map(layers, same)
    for head in MAP_HEADS:
        ok &= bool(np.all(flat.cv[head].values == 0.0))

    holed = apply_ensemble_map(layer_stack(nodata_cell=(1, 2)), MAP_REPLICAS)
    ok &= holed.n_valid_cells == 8
    for head in MAP_HEADS:
        ok &= holed.mean[head].values[1, 2] == DEFAULT_NODATA
        ok &= holed.cv[head].values[1, 2] == DEFAULT_NODATA
    elapsed = time.perf_counter() - t0
    report(7, "mapping-oracle", ok, elapsed, 1.0)


def test_acceptance_8_qa_partition():
    t0 = time.perf_counter()
    result = qa_filter(sample_table(qa_fixture()))
    kept = list(result.kept.ids)
    sample_removals = {e.sample_id: e.reason_code for e in result.removals
                       if e.reason_code in ("BD_RANGE", "FC_LT_WP",
                                            "NO_OBSERVATIONS")}
    obs_removals = sorted((e.sample_id, e.reason_code) for e in result.removals
                          if e.reason_code.startswith("THETA"))
    ok = kept == ["Q01", "Q04", "Q05", "Q06", "Q10", "Q11", "Q12"]
    ok &= sample_removals == {"Q02": "BD_RANGE", "Q03": "BD_RANGE",
                              "Q07": "FC_LT_WP", "Q08": "NO_OBSERVATIONS",
                              "Q09": "NO_OBSERVATIONS"}
    ok &= obs_removals == [("Q04", "THETA_GT_ONE"), ("Q05", "THETA_GT_0_6"),
                           ("Q08", "THETA_GT_ONE"), ("Q09", "THETA_GT_0_6"),
                           ("Q10", "THETA_GT_0_6")]
    elapsed = time.perf_counter() - t0
    report(8, "qa-partition", ok, elapsed, 1.0)


NCSS_DATA = os.environ.get("PTFENS_NCSS_DATA")


@pytest.mark.skipif(not NCSS_DATA,
                    reason="full-scale retention data not supplied "
                           "(set PTFENS_NCSS_DATA to a canonical sample file)")
def test_acceptance_9_full_scale_optional():
    samples = read_samples(NCSS_DATA)
    rosetta_dir = os.environ.get("PTFENS_ROSETTA_DIR")
    if rosetta_dir:
        load_rosetta_weights(rosetta_dir)

    available = []
    scores = {}
    for m in ALL_PTFS:
        try:
            preds, observed, _ = point_matrix([m], samples)
        except DataError:
            continue
        available.append(m)
        scores[m.value] = rmse(preds[0], observed)

    ok = True
    for model, value in scores.items():
        ok &= abs(value - REFERENCE_AIC[model][0]) <= 0.005

    overall = calibrate(tuple(available), samples, n_replicas=5, seed=0)
    preds, observed, _ = point_matrix(tuple(available), samples)
    ens_rmse = float(np.sqrt(
        chi2(overall.mean_weights, preds, observed) / observed.size))
    ok &= ens_rmse <= 0.055

    group_a = calibrate(GROUPS["A"], samples, n_replicas=5, seed=0)
    dominant = max(zip(group_a.mean_weights.weights, group_a.members))[1]
    ok &= dominant == PtfId.CLAPP
    report(9, "full-scale-reference", ok)
