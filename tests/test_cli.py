"""End-to-end command line runs against temporary files."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ptfens
from ptfens import (
    Grid,
    GridFormatError,
    PtfId,
    SampleTable,
    USDA_CLASSES,
    WeightVector,
    calibrate,
    classify_texture_array,
    predict,
    profile_arrays,
    read_grid,
    read_samples,
    theta_at,
    write_grid,
    write_samples,
    write_ann_file,
    write_weights,
)
from ptfens import _kernels, ensemble, mapping
from ptfens.cli import main, read_config
from ptfens.ensemble import GLOBAL_STRATUM, ensemble_theta, point_matrix
from ptfens.metrics import FitSummary
from ptfens.ptf import member_thetas, predict_batch
from helpers import (constant_net, drop_class, make_sample, sample_table, spliced_text,
                     synthetic_population)

SCHEMA_TEXT = """\
sample_id = pedon
sand = sa
silt = si
clay = cl
bulk_density = db
organic_carbon = c_org
theta_330 = w330
theta_15000 = w15000
"""

RAW_CSV = """\
pedon,sa,si,cl,db,c_org,w330,w15000
P1,40,40,20,1.4,1.2,0.30,0.15
P2,40,40,20,2.5,1.0,0.31,0.16
P3,40,40,20,1.3,0.8,0.70,0.20
"""

@pytest.fixture
def ingest_dir(tmp_path):
    (tmp_path / "raw.csv").write_text(RAW_CSV)
    (tmp_path / "schema.txt").write_text(SCHEMA_TEXT)
    return tmp_path


@pytest.fixture
def sample_file(tmp_path):
    rng = np.random.default_rng(80)
    samples = synthetic_population(rng, 15, PtfId.CARSEL, noise=0.01)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_and_version(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "--version")[0] == 0
    code, _, err = run(capsys)
    assert code == 1 and "subcommand" in err


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--data", tmp_path / "nope.csv",
                       "--schema", tmp_path / "nope.txt")
    assert code == 1
    code, _, err = run(capsys, "evaluate", "--data", tmp_path / "nope.csv")
    assert code == 1 and "not found" in err
    code, _, err = run(capsys, "calibrate", "--seed", "-1")
    assert code == 1 and "seed" in err


def test_ingest_products(capsys, ingest_dir):
    out = ingest_dir / "out"
    code, stdout, _ = run(capsys, "ingest", "--data", ingest_dir / "raw.csv",
                          "--schema", ingest_dir / "schema.txt", "--out", out)
    assert code == 0
    assert "rows=3" in stdout and "kept=2" in stdout

    kept = read_samples(out / "samples.csv")
    assert kept.ids == ("P1", "P3")
    assert kept.obs_index([1]).size == 1  # the theta > 0.6 point is gone

    removed = (out / "removed.csv").read_text()
    assert removed.splitlines()[0] == "sample_id,stage,reason_code,detail"
    assert "BD_RANGE" in removed and "P2" in removed
    assert "THETA_GT_0_6" in removed and "P3" in removed

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert set(manifest["input_hashes"]) == {str(ingest_dir / "raw.csv"),
                                             str(ingest_dir / "schema.txt")}
    assert len(manifest["coefficient_files"]) >= 11


def test_evaluate_group(capsys, sample_file, tmp_path):
    out = tmp_path / "eval"
    code, stdout, _ = run(capsys, "evaluate", "--data", sample_file,
                          "--group", "A", "--out", out)
    assert code == 0
    assert "n_points=30" in stdout and "sigma_hat2=" in stdout

    lines = (out / "report.tsv").read_text().splitlines()
    assert lines[0].split("\t")[:2] == ["model", "n_points"]
    body = [ln.split("\t") for ln in lines[1:]]
    assert [row[0] for row in body] == \
        ["cosby0", "carsel", "clapp", "rosetta_h1w"]
    rmse = {row[0]: float(row[3]) for row in body}
    assert min(rmse, key=rmse.get) == "carsel"  # the generating model wins


def test_evaluate_not_evaluable_member(capsys, sample_file, tmp_path):
    code, stdout, _ = run(capsys, "evaluate", "--data", sample_file,
                          "--members", "cosby1,rosetta_h2w",
                          "--out", tmp_path / "eval2")
    assert code == 0
    assert "not_evaluable" in stdout and "network" in stdout
    report = (tmp_path / "eval2" / "report.tsv").read_text()
    assert "not_evaluable" in report


def test_evaluate_weights_predicts_each_member_once(capsys, monkeypatch, sample_file,
                                                   tmp_path):
    vector = WeightVector(members=(PtfId.CARSEL, PtfId.RAWLS, PtfId.COSBY1),
                          weights=(0.5, 0.2, 0.3))
    weights = tmp_path / "weights.tsv"
    write_weights(weights, vector)
    calls = []

    def counted(members, samples):
        calls.append(tuple(members))
        return point_matrix(members, samples)

    monkeypatch.setattr(ensemble, "point_matrix", counted)
    out = tmp_path / "eval"
    code, _, _ = run(capsys, "evaluate", "--data", sample_file, "--members",
                     "cosby1,carsel", "--weights", weights, "--out", out)
    assert code == 0
    # rawls is not selected, so it is the only member predicted for the ensemble
    assert calls == [(PtfId.COSBY1,), (PtfId.CARSEL,), (PtfId.RAWLS,)]

    preds, observed, _ = point_matrix(vector.members, read_samples(sample_file))
    fit = FitSummary.from_predictions(vector.as_array() @ preds, observed, n_params=3)
    row = (out / "report.tsv").read_text().splitlines()[-1].split("\t")
    assert row[:5] == ["ensemble", str(fit.n_points), "3", f"{fit.rmse:.6f}", f"{fit.j:.6f}"]

    # a weight member that is not evaluable still fails the run
    write_weights(weights, WeightVector(members=(PtfId.COSBY1, PtfId.ROSETTA_H2W),
                                        weights=(0.5, 0.5)))
    code, _, err = run(capsys, "evaluate", "--data", sample_file, "--members",
                       "cosby1,rosetta_h2w", "--weights", weights, "--out", out)
    assert code == 2 and "rosetta_h2w" in err


# every member that needs no trained network
NETWORK_FREE = ("cosby0", "carsel", "clapp", "rosetta_h1w", "cosby1", "cosby2", "rawls",
                "campbell", "wosten", "weynants", "vereecken")


@pytest.fixture(scope="module")
def evaluate_dir(tmp_path_factory):
    """A sample file and the report.tsv rows of evaluate over every
    network-free member and rosetta_h2w (not evaluable without a network),
    by model."""
    path = tmp_path_factory.mktemp("evaluate")
    write_samples(path / "samples.csv", synthetic_population(
        np.random.default_rng(82), 15, PtfId.WOSTEN, noise=0.02))
    return path, evaluate_report(path, NETWORK_FREE + ("rosetta_h2w",))


def evaluate_report(path, members):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--data", str(path / "samples.csv"),
                     "--members", ",".join(members), "--out", str(path / "out")])
    assert code == 0
    rows = [line.split("\t") for line in
            (path / "out" / "report.tsv").read_text().splitlines()[1:]]
    return {row[0]: row[1:] for row in rows}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(NETWORK_FREE + ("rosetta_h2w",)), min_size=1, unique=True)
       .filter(lambda members: members != ["rosetta_h2w"]))
def test_evaluate_member_fit_does_not_depend_on_the_selection(evaluate_dir, members):
    """A member's n_points, n_params, RMSE and j (and a member that is not
    evaluable) read the same whichever other members are selected, in any
    order; its AIC may differ, through j*, the mean j of the selection."""
    path, everyone = evaluate_dir
    report = evaluate_report(path, members)
    assert list(report) == members
    for member, row in report.items():
        assert row[:4] == everyone[member][:4], member


def test_evaluate_bad_member_name(capsys, sample_file, tmp_path):
    code, _, err = run(capsys, "evaluate", "--data", sample_file,
                       "--members", "bogus", "--out", tmp_path)
    assert code == 1 and "bogus" in err
    code, _, err = run(capsys, "evaluate", "--data", sample_file,
                       "--group", "Z", "--out", tmp_path)
    assert code == 1


def test_calibrate_outputs_and_determinism(capsys, sample_file, tmp_path):
    argv = ("calibrate", "--data", sample_file, "--members", "cosby1,carsel",
            "--replicas", "3", "--seed", "3")
    code, stdout, _ = run(capsys, *argv, "--out", tmp_path / "a")
    assert code == 0
    assert "stratum=global" in stdout and "cal_rmse=" in stdout
    code, _, _ = run(capsys, *argv, "--out", tmp_path / "b")
    assert code == 0

    for name in ("weights_global.tsv", "replicas.tsv", "summary.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    table = (tmp_path / "a" / "replicas.tsv").read_text().splitlines()
    rows = [ln for ln in table if not ln.startswith("#")]
    assert rows[0].split("\t")[:4] == ["stratum", "replica", "cal_rmse", "val_rmse"]
    assert len(rows) == 1 + 3  # header + one row per replica

    summary = (tmp_path / "a" / "summary.tsv").read_text().splitlines()
    assert summary[0] == "stratum\tptf_id\tmean_weight\tweight_std"
    assert len(summary) == 1 + 2


def test_calibrate_flag_beats_config(capsys, sample_file, tmp_path):
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("replicas = 3\n")
    code, _, _ = run(capsys, "calibrate", "--data", sample_file,
                     "--members", "cosby1,carsel", "--config", cfg,
                     "--replicas", "2", "--seed", "1", "--out", tmp_path / "c")
    assert code == 0
    rows = [ln for ln in (tmp_path / "c" / "replicas.tsv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 1 + 2  # the explicit flag won

    code, _, _ = run(capsys, "calibrate", "--data", sample_file,
                     "--members", "cosby1,carsel", "--config", cfg,
                     "--seed", "1", "--out", tmp_path / "d")
    assert code == 0
    rows = [ln for ln in (tmp_path / "d" / "replicas.tsv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 1 + 3  # config value used when no flag given


def test_calibrate_stratified_outputs(capsys, tmp_path):
    rng = np.random.default_rng(81)
    samples = synthetic_population(rng, 20, PtfId.COSBY1, noise=0.02)
    data = tmp_path / "samples.csv"
    write_samples(data, samples)
    out = tmp_path / "strat"
    code, stdout, _ = run(capsys, "calibrate", "--data", data,
                          "--members", "cosby1,carsel", "--scheme", "pressure",
                          "--replicas", "2", "--min-stratum-points", "10",
                          "--seed", "2", "--out", out)
    assert code == 0
    assert "pooled_rmse_stratified=" in stdout and "n_params=4" in stdout
    assert (out / "weights_global.tsv").exists()
    assert (out / "weights_psi_330.tsv").exists()
    assert (out / "weights_psi_15000.tsv").exists()
    table = (out / "replicas.tsv").read_text()
    assert "psi:330" in table and "psi:15000" in table
    for key, points in ((GLOBAL_STRATUM, 40), ("psi:330", 20), ("psi:15000", 20)):
        _, meta = ensemble.read_weights(out / f"weights_{key.replace(':', '_')}.tsv")
        assert meta["stratum"] == key and float(meta["mean_cal_rmse"]) > 0.0
        assert f"stratum={key} points={points} cal_rmse=" in stdout


def test_calibrate_summary_columns_are_numbers(capsys, tmp_path):
    """Every summary.tsv field after ptf_id parses with float(), and a
    member's mean_weight has the text of its weights_<stratum>.tsv row
    (numpy 2 scalars written with repr read np.float64(...))."""
    rng = np.random.default_rng(81)
    data = tmp_path / "samples.csv"
    write_samples(data, synthetic_population(rng, 20, PtfId.COSBY1, noise=0.02))
    out = tmp_path / "strat"
    code, _, _ = run(capsys, "calibrate", "--data", data, "--members", "cosby1,carsel",
                     "--scheme", "pressure", "--replicas", "3",
                     "--min-stratum-points", "10", "--seed", "2", "--out", out)
    assert code == 0
    header, *rows = (out / "summary.tsv").read_text().splitlines()
    assert header == "stratum\tptf_id\tmean_weight\tweight_std"
    assert {row.split("\t")[0] for row in rows} == {GLOBAL_STRATUM, "psi:330", "psi:15000"}
    for row in rows:
        stratum, ptf_id, mean_weight, weight_std = row.split("\t")
        float(mean_weight), float(weight_std)
        weights = (out / f"weights_{stratum.replace(':', '_')}.tsv").read_text().splitlines()
        assert f"{ptf_id}\t{mean_weight}" in weights


@pytest.mark.parametrize("edges, recorded", [(None, "0.1,0.3,0.6,1.0,2.0,4.0,8.0"),
                                             ("0.5,2", "0.5,2.0")])
def test_calibrate_oc_files_record_the_edges(capsys, sample_file, tmp_path, edges,
                                             recorded):
    out = tmp_path / "oc"
    flags = () if edges is None else ("--oc-edges", edges)
    code, _, _ = run(capsys, "calibrate", "--data", sample_file, "--members", "cosby1,carsel",
                     "--scheme", "oc", *flags, "--min-stratum-points", "1",
                     "--replicas", "2", "--out", out)
    assert code == 0
    files = sorted(out.glob("weights_oc_*.tsv"))
    assert files
    for path in [out / "weights_global.tsv", *files]:
        assert ensemble.read_weights(path)[1]["oc_edges"] == recorded
    assert ensemble.read_replica_table(out / "replicas.tsv")[2]["oc_edges"] == recorded


@pytest.mark.parametrize("edges, shown", [("0.1,abc", "'0.1,abc'"),
                                          ("2.0,0.5,1.0", "2.0,0.5,1.0"), ("nan", "nan")])
def test_calibrate_rejects_bad_oc_edges(capsys, sample_file, tmp_path, edges, shown):
    out = tmp_path / "oc"
    code, _, err = run(capsys, "calibrate", "--data", sample_file, "--members", "cosby1,carsel",
                       "--scheme", "oc", "--oc-edges", edges, "--replicas", "2", "--out", out)
    assert code == 1
    assert err.startswith("error: ") and shown in err
    assert not list(out.glob("weights_*.tsv"))


@pytest.mark.parametrize("count, in_config", [("0", False), ("-3", False), ("0", True)],
                         ids=["zero", "negative", "config"])
def test_calibrate_rejects_a_replica_count_below_one(capsys, sample_file, tmp_path,
                                                     count, in_config):
    out = tmp_path / "cal"
    if in_config:
        config = tmp_path / "cal.cfg"
        config.write_text(f"replicas = {count}\n")
        flags = ("--config", config)
    else:
        flags = ("--replicas", count)
    code, stdout, err = run(capsys, "calibrate", "--data", sample_file,
                            "--members", "cosby1,carsel", *flags, "--out", out)
    assert (code, stdout) == (1, "")
    assert err == f"error: --replicas must be at least 1, got {count}\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("count, in_config", [("0", False), ("-3", False), ("0", True)],
                         ids=["zero", "negative", "config"])
def test_calibrate_rejects_min_stratum_points_below_one(capsys, tmp_path, count, in_config):
    """Checked before the samples are read: the data file here does not exist."""
    out = tmp_path / "cal"
    if in_config:
        config = tmp_path / "cal.cfg"
        config.write_text(f"min_stratum_points = {count}\n")
        flags = ("--config", config)
    else:
        flags = ("--min-stratum-points", count)
    code, stdout, err = run(capsys, "calibrate", "--data", tmp_path / "absent.csv",
                            "--scheme", "pressure", *flags, "--out", out)
    assert (code, stdout) == (1, "")
    assert err == f"error: --min-stratum-points must be at least 1, got {count}\n"
    assert not list(out.iterdir())


def test_ingest_rejects_negative_water_contents(capsys, ingest_dir):
    (ingest_dir / "raw.csv").write_text(RAW_CSV + "P4,40,40,20,1.4,1.0,0.30,-0.05\n"
                                                  "P5,40,40,20,1.4,1.0,-0.2,\n")
    out = ingest_dir / "out"
    code, stdout, _ = run(capsys, "ingest", "--data", ingest_dir / "raw.csv",
                          "--schema", ingest_dir / "schema.txt", "--out", out)
    assert code == 0 and "kept=2 removed_ingest=2" in stdout
    assert read_samples(out / "samples.csv").ids == ("P1", "P3")
    removed = (out / "removed.csv").read_text().splitlines()
    assert removed[1:3] == [
        "P4,ingest,BAD_NUMBER,water content at psi=15000 is negative: '-0.05'",
        "P5,ingest,BAD_NUMBER,water content at psi=330 is negative: '-0.2'"]


def replica_weights(path):
    """Replica weight rows of a replicas.tsv, as floats."""
    rows = [ln.split("\t") for ln in path.read_text().splitlines()
            if not ln.startswith("#")]
    return [[float(w) for w in row[4:]] for row in rows[1:]]


def test_calibrate_matches_library_and_reruns_identically(capsys, sample_file, tmp_path):
    argv = ("calibrate", "--data", sample_file, "--members", "cosby1,carsel,wosten",
            "--replicas", "3", "--seed", "3")
    names = ("weights_global.tsv", "replicas.tsv", "summary.tsv", "manifest.json")
    outputs = []
    for _ in range(2):  # the manifest records --out, so both runs write to one place
        code, _, _ = run(capsys, *argv, "--out", tmp_path / "a")
        assert code == 0
        outputs.append([(tmp_path / "a" / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]

    members = (PtfId.COSBY1, PtfId.CARSEL, PtfId.WOSTEN)
    result = calibrate(members, read_samples(sample_file), n_replicas=3, seed=3)
    assert replica_weights(tmp_path / "a" / "replicas.tsv") == \
        [list(r.weights.weights) for r in result.replicas]


def test_predict_single_record(capsys, tmp_path):
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector(members=(PtfId.CARSEL, PtfId.COSBY1),
                                        weights=(1.0, 0.0)))
    out = tmp_path / "pred"
    code, stdout, _ = run(capsys, "predict", "--weights", weights,
                          "--sand", "40", "--silt", "40", "--clay", "20",
                          "--out", out)
    assert code == 0
    lines = (out / "predictions.tsv").read_text().splitlines()
    assert lines[0] == "sample_id\tpsi\ttheta"
    rows = [ln.split("\t") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["0", "330", "15000"]  # the default heads
    params = predict(PtfId.CARSEL, sand=40.0, silt=40.0, clay=20.0)
    for r in rows:
        assert float(r[2]) == theta_at(params, float(r[1]))
    theta = [float(r[2]) for r in rows]
    assert theta[0] >= theta[1] >= theta[2]
    assert "theta=" in stdout


def test_predict_batch_and_missing_predictor(capsys, sample_file, tmp_path):
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector(members=(PtfId.COSBY1,), weights=(1.0,)))
    out = tmp_path / "predb"
    code, _, _ = run(capsys, "predict", "--weights", weights,
                     "--data", sample_file, "--psi", "330", "--out", out)
    assert code == 0
    lines = (out / "predictions.tsv").read_text().splitlines()
    assert len(lines) == 1 + 15  # one row per sample at the single head

    needs_oc = tmp_path / "needs_oc.tsv"
    write_weights(needs_oc, WeightVector(members=(PtfId.WOSTEN,), weights=(1.0,)))
    code, _, err = run(capsys, "predict", "--weights", needs_oc,
                       "--sand", "40", "--silt", "40", "--clay", "20",
                       "--out", tmp_path / "predc")
    assert code == 2
    assert "wosten" in err

    no_oc = tmp_path / "no_oc.csv"
    write_samples(no_oc, sample_table([
        make_sample("has_oc", 40, 40, 20, obs=[(330.0, 0.3)]),
        make_sample("lacks_oc", 40, 40, 20, oc=None, obs=[(330.0, 0.3)])]))
    code, _, err = run(capsys, "predict", "--weights", needs_oc, "--data", no_oc,
                       "--out", tmp_path / "predd")
    assert code == 2
    assert "'lacks_oc'" in err and "organic_carbon" in err


def test_predict_data_is_the_batch_path(capsys, sample_file, tmp_path):
    vector = WeightVector(members=(PtfId.COSBY1, PtfId.CARSEL, PtfId.RAWLS,
                                   PtfId.WOSTEN), weights=(0.4, 0.3, 0.2, 0.1))
    weights = tmp_path / "weights.tsv"
    write_weights(weights, vector)
    out = tmp_path / "pred"
    code, _, _ = run(capsys, "predict", "--weights", weights, "--data", sample_file,
                     "--psi", "330,15000", "--out", out)
    assert code == 0
    rows = [ln.split("\t") for ln in (out / "predictions.tsv").read_text().splitlines()[1:]]
    got = np.array([float(r[2]) for r in rows])

    # one predict_batch per member, theta_points on the sample-major points
    samples = read_samples(sample_file)
    fields = ("sand", "silt", "clay", "bulk_density", "organic_carbon")
    arrays = {f: getattr(samples, f) for f in fields}
    owner = np.repeat(np.arange(len(samples)), 2)
    psi = np.tile([330.0, 15000.0], len(samples))
    preds = np.empty((4, psi.size))
    for k, m in enumerate(vector.members):
        batch = predict_batch(m, **arrays)
        preds[k] = _kernels.theta_points(batch.codes[owner], batch.rows[owner], psi)
    eval_preds, _, eval_psi = point_matrix(vector.members, samples)  # what evaluate uses
    assert np.array_equal(eval_psi, psi) and np.array_equal(eval_preds, preds)
    assert [r[0] for r in rows] == [sid for sid in samples.ids for _ in range(2)]
    # weighted member by member, in member order (not BLAS's order)
    assert np.array_equal(got, sum(w * row for w, row in zip(vector.weights, preds)))

    per_profile = [ensemble_theta(vector, [330.0, 15000.0], **profile_arrays(
        **{f: arrays[f][i].item() for f in fields}))[0] for i in range(len(samples))]
    np.testing.assert_array_equal(got, np.concatenate(per_profile))


def test_predict_texture_class_record(capsys, tmp_path):
    vector = WeightVector(members=(PtfId.COSBY0, PtfId.CARSEL), weights=(0.35, 0.65))
    weights = tmp_path / "weights.tsv"
    write_weights(weights, vector)
    code, _, _ = run(capsys, "predict", "--weights", weights, "--texture-class", "loam",
                     "--out", tmp_path / "pred")
    assert code == 0
    rows = [ln.split("\t") for ln in
            (tmp_path / "pred" / "predictions.tsv").read_text().splitlines()[1:]]
    params = [predict(m, texture_class="loam") for m in vector.members]
    assert [r[0] for r in rows] == ["record"] * 3
    for r in rows:
        psi = float(r[1])
        assert float(r[2]) == sum(w * theta_at(p, psi)
                                  for p, w in zip(params, vector.weights))

    # a texture class serves class-table members only
    write_weights(weights, WeightVector(members=(PtfId.COSBY0, PtfId.CARSEL, PtfId.COSBY1),
                                        weights=(0.3, 0.3, 0.4)))
    code, stdout, err = run(capsys, "predict", "--weights", weights,
                            "--texture-class", "loam", "--out", tmp_path / "pred2")
    assert (code, stdout) == (2, "")
    assert err == "data error: member cosby1: missing required predictor 'sand'\n"
    assert not (tmp_path / "pred2" / "predictions.tsv").exists()


# the class-table members
CLASS_TABLE = ("cosby0", "carsel", "clapp", "rosetta_h1w")
PROFILE_HEADS = "0,10,330,15000"


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory):
    """Twelve profiles of varied texture, weight files over every
    network-free member and over the class-table members, and each weight
    file's predict --data rows of the profiles."""
    path = tmp_path_factory.mktemp("profiles")
    rng = np.random.default_rng(91)
    write_samples(path / "samples.csv", synthetic_population(rng, 12, PtfId.WOSTEN))
    for name, members in (("all", NETWORK_FREE), ("classes", CLASS_TABLE)):
        write_weights(path / f"{name}.tsv", WeightVector.normalized(
            tuple(map(PtfId, members)), rng.uniform(0.1, 1.0, len(members))))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["predict", "--weights", str(path / f"{name}.tsv"), "--data",
                         str(path / "samples.csv"), "--psi", PROFILE_HEADS,
                         "--out", str(path / name)]) == 0
    return path


def prediction_rows(directory):
    return (directory / "predictions.tsv").read_text().splitlines()[1:]


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.permutations(range(12)))
def test_predict_data_rows_follow_a_shuffle(profile_dir, order):
    """predict --data on the sample table with its rows shuffled writes the
    same predictions.tsv rows, shuffled the same way, byte for byte."""
    shuffled = profile_dir / "shuffled.csv"
    write_samples(shuffled, read_samples(profile_dir / "samples.csv").take(order))
    out = profile_dir / "shuffled_out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["predict", "--weights", str(profile_dir / "all.tsv"), "--data",
                     str(shuffled), "--psi", PROFILE_HEADS, "--out", str(out)]) == 0
    heads = len(PROFILE_HEADS.split(","))
    rows = prediction_rows(profile_dir / "all")
    assert prediction_rows(out) == [row for i in order
                                    for row in rows[i * heads:(i + 1) * heads]]


def test_profile_flags_give_their_table_rows_bytes(capsys, profile_dir, tmp_path):
    """A single-profile predict, with all five predictor flags or with only
    --texture-class, writes the theta bytes of that profile's row under
    --data."""
    samples = read_samples(profile_dir / "samples.csv")
    heads = len(PROFILE_HEADS.split(","))
    codes = classify_texture_array(samples.sand, samples.silt, samples.clay)
    for i in range(len(samples)):
        five = [(f"--{f.replace('_', '-')}", repr(getattr(samples, f)[i].item()))
                for f in ("sand", "silt", "clay", "bulk_density", "organic_carbon")]
        for name, flags in (("all", [a for pair in five for a in pair]),
                            ("classes", ["--texture-class", USDA_CLASSES[codes[i]]])):
            out = tmp_path / f"{name}_{i}"
            code, _, err = run(capsys, "predict", "--weights", profile_dir / f"{name}.tsv",
                               *flags, "--psi", PROFILE_HEADS, "--out", out)
            assert (code, err) == (0, "")
            want = prediction_rows(profile_dir / name)[i * heads:(i + 1) * heads]
            assert [row.split("\t")[1:] for row in prediction_rows(out)] == \
                [row.split("\t")[1:] for row in want], (name, samples.ids[i])


@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
@pytest.mark.parametrize("flags, config, message", [
    (("--members=",), "", "bad --members '': no PTF id given"),
    ((), "members =\n", "bad --members '': no PTF id given"),
    (("--group=",), "", "bad --group '': choose from"),
    ((), "group =\n", "bad --group '': choose from"),
    (("--members", "cosby1,cosby1"), "",
     "bad --members 'cosby1,cosby1': cosby1 is given twice"),
    ((), "members = carsel, cosby1 ,carsel\n",
     "bad --members 'carsel, cosby1 ,carsel': carsel is given twice"),
])
def test_member_selection_rejects_empty_and_repeated(capsys, sample_file, tmp_path, command,
                                                     flags, config, message):
    """An empty --members or --group, on the command line or in a config
    file, selects nothing rather than every member, and a repeated id is not
    a second member: each is a usage error naming the flag, and no output
    is written."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    out = tmp_path / "out"
    replicas = ("--replicas", "2") if command == "calibrate" else ()
    code, stdout, err = run(capsys, command, "--data", sample_file, "--config", cfg,
                            *flags, *replicas, "--out", out)
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {message}"), err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("members, flags, flag", [
    ("cosby1", ("--sand", "inf", "--silt", "40", "--clay", "20"), "--sand"),
    ("cosby1", ("--sand", "-10", "--silt", "60", "--clay", "50"), "--sand"),
    ("cosby1", ("--sand", "40", "--silt", "nan", "--clay", "20"), "--silt"),
    ("cosby1", ("--sand", "40", "--silt", "40", "--clay", "40"), "--sand/--silt/--clay"),
    ("cosby0", ("--sand", "-1"), "--sand"),
    ("cosby1,wosten", ("--sand", "40", "--silt", "40", "--clay", "20",
                       "--bulk-density", "-1", "--organic-carbon", "1"), "--bulk-density"),
    ("cosby1,wosten", ("--sand", "40", "--silt", "40", "--clay", "20",
                       "--bulk-density", "2.7", "--organic-carbon", "1"), "--bulk-density"),
    ("cosby1,wosten", ("--sand", "40", "--silt", "40", "--clay", "20",
                       "--bulk-density", "1.3", "--organic-carbon", "1e6"), "--organic-carbon"),
    ("cosby0", ("--texture-class", "muck"), "--texture-class"),
])
def test_predict_rejects_impossible_record(capsys, tmp_path, members, flags, flag):
    """Record values that ingest rejects or map makes nodata are a usage
    error naming the flag, before any member runs."""
    names = members.split(",")
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector.normalized([PtfId(m) for m in names],
                                                   [1.0] * len(names)))
    code, stdout, err = run(capsys, "predict", "--weights", weights, *flags,
                            "--out", tmp_path / "pred")
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: bad {flag} ")
    assert not (tmp_path / "pred" / "predictions.tsv").exists()


@pytest.mark.parametrize("body, message", [
    ("ptf_id\tweight\ncosby1\n", ":2: expected 2 tab-separated fields"),
    ("ptf_id\tweight\ncosby1\tabc\n", ":2: bad weight 'abc'"),
    ("# seed = 0\nptf_id\tweight\ncosby1\t0.5\ncarsel\tx\n", ":4: bad weight 'x'"),
    ("ptf_id\tweight\nbogus\t1.0\n", ":2: bad ptf_id 'bogus'"),
    ("ptf_id\tweight\ncosby1\tnan\n", "weights must lie in [0, 1]"),
    ("ptf_id\tweight\ncosby1\t1.0\udcff\n", "not UTF-8 text"),
])
def test_predict_malformed_weight_file(capsys, tmp_path, body, message):
    weights = tmp_path / "weights.tsv"
    weights.write_bytes(body.encode("utf-8", "surrogateescape"))
    code, _, err = run(capsys, "predict", "--weights", weights, "--sand", "40",
                       "--silt", "40", "--clay", "20", "--out", tmp_path / "pred")
    assert code == 2
    assert str(weights) in err and message in err


def test_predict_malformed_network_file(capsys, tmp_path):
    (tmp_path / "nets").mkdir()
    net = tmp_path / "nets" / "rosetta_h2w.ann"
    net.write_text("layers 3x 6 4\n")
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector(members=(PtfId.COSBY1,), weights=(1.0,)))
    code, _, err = run(capsys, "predict", "--weights", weights, "--sand", "40",
                       "--silt", "40", "--clay", "20", "--rosetta-dir", tmp_path / "nets",
                       "--out", tmp_path / "pred")
    assert code == 2
    assert err == (f"data error: {net}: line 1: 'layers' needs positive integers, "
                   "got '3x 6 4'\n")



def test_networks_do_not_outlive_their_run(capsys, tmp_path):
    (tmp_path / "nets").mkdir()
    write_ann_file(tmp_path / "nets" / "rosetta_h2w.ann", constant_net(("sand", "silt", "clay"), (0.05, 0.45, 0.02, 1.4)))
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector(members=(PtfId.ROSETTA_H2W, PtfId.COSBY1),
                                        weights=(0.5, 0.5)))
    argv = ("predict", "--weights", weights, "--sand", "40", "--silt", "40", "--clay", "20",
            "--out", tmp_path / "pred")
    codes = [run(capsys, *argv)[0], run(capsys, *argv, "--rosetta-dir", tmp_path / "nets")[0],
             run(capsys, *argv)[0]]
    assert codes == [2, 0, 2]  # only the second run has the network


def test_manifest_hashes_networks_and_inputs_by_path(capsys, tmp_path):
    write_layer_grids(tmp_path)
    grids = []
    for flag, name, where in (("--sand-grid", "sand", "a"), ("--silt-grid", "silt", "b"),
                              ("--clay-grid", "clay", "c")):
        (tmp_path / where).mkdir()
        os.replace(tmp_path / f"{name}.asc", tmp_path / where / "x.asc")
        grids += [flag, tmp_path / where / "x.asc"]
    (tmp_path / "replicas.tsv").write_text(REPLICA_TABLE)
    (tmp_path / "nets").mkdir()
    write_ann_file(tmp_path / "nets" / "rosetta_h2w.ann", constant_net(("sand", "silt", "clay"), (0.05, 0.45, 0.02, 1.4)))
    out = tmp_path / "maps"
    code, _, _ = run(capsys, "map", "--weights", tmp_path / "replicas.tsv", *grids,
                     "--rosetta-dir", tmp_path / "nets", "--out", out)
    assert code == 0
    inputs = [tmp_path / "replicas.tsv", *grids[1::2], tmp_path / "nets" / "rosetta_h2w.ann"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_hashes"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}


@pytest.mark.parametrize("psi", ["", ",", " , "])
def test_predict_empty_psi_list(capsys, tmp_path, psi):
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector(members=(PtfId.COSBY1,), weights=(1.0,)))
    out = tmp_path / "pred"
    code, _, err = run(capsys, "predict", "--weights", weights, "--sand", "40",
                       "--silt", "40", "--clay", "20", "--psi", psi, "--out", out)
    assert code == 1
    assert err == f"error: bad --psi list {psi!r}: no suction given\n"
    assert not (out / "predictions.tsv").exists()


@pytest.mark.parametrize("psi", ["-5", "nan", "inf", "1e400"])
@pytest.mark.parametrize("with_data", [False, True], ids=["record", "data"])
def test_predict_bad_suction_is_a_config_error(capsys, tmp_path, sample_file, psi,
                                               with_data):
    weights = tmp_path / "weights.tsv"
    write_weights(weights, WeightVector(members=(PtfId.COSBY1,), weights=(1.0,)))
    out = tmp_path / "pred"
    inputs = ("--data", sample_file) if with_data else ("--sand", "40", "--silt", "40",
                                                        "--clay", "20")
    code, _, err = run(capsys, "predict", "--weights", weights, *inputs, "--psi", psi,
                       "--out", out)
    assert code == 1
    assert err == (f"error: bad --psi list {psi!r}: suction must be finite "
                   "and >= 0 cm\n")
    assert not (out / "predictions.tsv").exists()


REPLICA_TABLE = ("stratum\treplica\tcal_rmse\tval_rmse\tw_cosby1\tw_carsel\n"
                 "global\t0\t0.01\t\t0.5\t0.5\nglobal\t1\t0.01\t\t0.4\t0.6\n")


def _non_utf8_case(reader, tmp_path, sample_file):
    """(argv, file given the bad byte, expected exit code) for one reader."""
    (tmp_path / "raw.csv").write_text(RAW_CSV)
    (tmp_path / "schema.txt").write_text(SCHEMA_TEXT)
    (tmp_path / "replicas.tsv").write_text(REPLICA_TABLE)
    (tmp_path / "nets").mkdir()
    (tmp_path / "nets" / "rosetta_h2w.ann").write_text("layers 3 2 4\n")
    (tmp_path / "cfg.txt").write_text("replicas = 2\n")
    write_layer_grids(tmp_path)
    grids = ("--sand-grid", tmp_path / "sand.asc", "--silt-grid", tmp_path / "silt.asc",
             "--clay-grid", tmp_path / "clay.asc")
    out = ("--out", tmp_path / "out")
    return {
        "samples": (("evaluate", "--data", sample_file, *out), sample_file, 2),
        "ingest": (("ingest", "--data", tmp_path / "raw.csv",
                    "--schema", tmp_path / "schema.txt", *out), tmp_path / "raw.csv", 2),
        "schema": (("ingest", "--data", tmp_path / "raw.csv",
                    "--schema", tmp_path / "schema.txt", *out), tmp_path / "schema.txt", 2),
        "grid": (("map", "--weights", tmp_path / "replicas.tsv", *grids, *out),
                 tmp_path / "silt.asc", 2),
        "ann": (("evaluate", "--data", sample_file, "--rosetta-dir", tmp_path / "nets",
                 *out), tmp_path / "nets" / "rosetta_h2w.ann", 2),
        "config": (("calibrate", "--data", sample_file, "--config", tmp_path / "cfg.txt",
                    *out), tmp_path / "cfg.txt", 1),
    }[reader]


@pytest.mark.parametrize("reader", ["samples", "ingest", "schema", "grid", "ann", "config"])
def test_non_utf8_input_is_a_reported_error(capsys, tmp_path, sample_file, reader):
    argv, bad, expected = _non_utf8_case(reader, tmp_path, sample_file)
    text = bad.read_bytes()
    offset = text.index(b"\n") + 1  # first byte of the second line
    bad.write_bytes(text[:offset] + b"\xff" + text[offset:])
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert f"{bad}: not UTF-8 text (invalid start byte at byte {offset})" in err


OUTPUT_FILES = ["samples.csv", "report.tsv", "replicas.tsv", "predictions.tsv",
                "mean_sat.asc", "manifest.json"]


@pytest.mark.parametrize("case", ["out", "data", "schema", "config", "weights", "bd-grid",
                                  "oc-grid", "network", *OUTPUT_FILES])
def test_path_problems_are_reported_errors(capsys, tmp_path, sample_file, case):
    """A file that is missing or a directory, an --out that is a file, or an
    output file that cannot be written (here a directory) exits 1 (a network
    file that cannot be read: 2) naming the path."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "nets" / "rosetta_h2w.ann").mkdir(parents=True)
    (tmp_path / "file").write_text("")
    (tmp_path / "raw.csv").write_text(RAW_CSV)
    (tmp_path / "schema.txt").write_text(SCHEMA_TEXT)
    (tmp_path / "replicas.tsv").write_text(REPLICA_TABLE)
    write_weights(tmp_path / "weights.tsv",
                  WeightVector(members=(PtfId.COSBY1,), weights=(1.0,)))
    write_layer_grids(tmp_path)
    d, raw, schema = tmp_path / "dir", tmp_path / "raw.csv", tmp_path / "schema.txt"
    record = ("--sand", "40", "--silt", "40", "--clay", "20")
    predict = ("predict", "--weights", tmp_path / "weights.tsv", *record)
    grids = ("map", "--weights", tmp_path / "replicas.tsv",
             *(arg for n in ("sand", "silt", "clay")
               for arg in (f"--{n}-grid", tmp_path / f"{n}.asc")))
    written = tmp_path / "out" / case  # an output file, made a directory below
    argv, path, expected = {
        "out": (("ingest", "--data", raw, "--schema", schema), tmp_path / "file", 1),
        "data": (("ingest", "--data", d, "--schema", schema), d, 1),
        "schema": (("ingest", "--data", raw, "--schema", d), d, 1),
        "config": ((*predict, "--config", d), d, 1),
        "weights": (("predict", "--weights", d, *record), d, 1),
        "bd-grid": ((*grids, "--bd-grid", tmp_path / "absent.asc"), tmp_path / "absent.asc", 1),
        "oc-grid": ((*grids, "--oc-grid", d), d, 1),
        "network": ((*predict, "--rosetta-dir", tmp_path / "nets"),
                    tmp_path / "nets" / "rosetta_h2w.ann", 2),
        "samples.csv": (("ingest", "--data", raw, "--schema", schema), written, 1),
        "report.tsv": (("evaluate", "--data", sample_file, "--members", "cosby1,carsel"),
                       written, 1),
        "replicas.tsv": (("calibrate", "--data", sample_file, "--members", "cosby1,carsel",
                          "--replicas", "2"), written, 1),
        "predictions.tsv": (predict, written, 1),
        "mean_sat.asc": (grids, written, 1),
        "manifest.json": (("predict", "--weights", tmp_path / "weights.tsv",
                           "--data", sample_file), written, 1),
    }[case]
    if path == written:
        written.mkdir(parents=True)
    out = tmp_path / ("file" if case == "out" else "out")
    code, _, err = run(capsys, *argv, "--out", out)
    assert code == expected and str(path) in err, err


PREDICT_CONFIG = """\
# a single-record prediction
sand = 40
silt = 40
clay = 20
bulk_density = 1.4
organic_carbon = 1.2
texture_class = loam
topsoil = 1
psi = 0,330,15000
seed = 3
"""


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("config")
    write_weights(path / "weights.tsv", WeightVector(
        members=(PtfId.COSBY0, PtfId.COSBY1, PtfId.WOSTEN), weights=(0.2, 0.3, 0.5)))
    return path


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text(PREDICT_CONFIG))
def test_config_token_splice_fuzz(config_dir, text):
    """A run with a spliced config file succeeds or exits 1 or 2; none exits 3."""
    cfg = config_dir / "cfg.txt"
    with open(cfg, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["predict", "--config", str(cfg), "--weights",
                     str(config_dir / "weights.tsv"), "--out", str(config_dir / "out")])
    assert code in (0, 1, 2), err.getvalue()


CALIBRATE_CONFIG = """\
# a stratified calibration
members = cosby1,carsel,wosten
scheme = oc
oc_edges = 0.5,1.5
min_stratum_points = 5
seed = 3
"""


@pytest.fixture(scope="module")
def calibrate_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("calibrate")
    rng = np.random.default_rng(80)
    write_samples(path / "samples.csv", synthetic_population(rng, 15, PtfId.CARSEL, noise=0.01))
    return path


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text(CALIBRATE_CONFIG))
def test_calibrate_config_token_splice_fuzz(calibrate_dir, text):
    """A calibrate run with a spliced config file succeeds or exits 1 or 2;
    none exits 3. The replica count is appended after the spliced text, so
    no splice can make it huge."""
    cfg = calibrate_dir / "cfg.txt"
    with open(cfg, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\nreplicas = 2\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["calibrate", "--config", str(cfg), "--data",
                     str(calibrate_dir / "samples.csv"), "--out", str(calibrate_dir / "out")])
    assert code in (0, 1, 2), err.getvalue()


def write_layer_grids(tmp_path):
    sand = np.array([[40.0, 65.0], [82.0, 10.0]])
    clay = np.array([[20.0, 10.0], [6.0, 57.0]])
    silt = 100.0 - sand - clay
    for name, values in (("sand", sand), ("silt", silt), ("clay", clay)):
        grid = Grid(ncols=2, nrows=2, xllcorner=0.0, yllcorner=0.0,
                    cellsize=100.0, nodata=-9999.0, values=values)
        write_grid(tmp_path / f"{name}.asc", grid)


def test_map_end_to_end(capsys, sample_file, tmp_path):
    cal = tmp_path / "cal"
    code, _, _ = run(capsys, "calibrate", "--data", sample_file,
                     "--members", "cosby1,carsel", "--replicas", "3",
                     "--seed", "5", "--out", cal)
    assert code == 0

    write_layer_grids(tmp_path)
    out = tmp_path / "maps"
    code, stdout, _ = run(capsys, "map", "--weights", cal / "replicas.tsv",
                          "--sand-grid", tmp_path / "sand.asc",
                          "--silt-grid", tmp_path / "silt.asc",
                          "--clay-grid", tmp_path / "clay.asc", "--out", out)
    assert code == 0
    assert "stratum=global replicas=3 valid_cells=4" in stdout
    for label in ("sat", "fc", "wp"):
        mean = read_grid(out / f"mean_{label}.asc")
        cv = read_grid(out / f"cv_{label}.asc")
        assert mean.values.shape == (2, 2)
        assert np.all(mean.valid_mask()) and np.all(cv.values >= 0.0)

    code, _, err = run(capsys, "map", "--weights", cal / "replicas.tsv",
                       "--stratum", "texture:clay",
                       "--sand-grid", tmp_path / "sand.asc",
                       "--silt-grid", tmp_path / "silt.asc",
                       "--clay-grid", tmp_path / "clay.asc",
                       "--out", tmp_path / "maps2")
    assert code == 2 and "texture:clay" in err


def map_argv(cal, tmp_path, out):
    return ("map", "--weights", cal / "replicas.tsv",
            "--sand-grid", tmp_path / "sand.asc", "--silt-grid", tmp_path / "silt.asc",
            "--clay-grid", tmp_path / "clay.asc", "--out", out)


# an output that is a directory fails once every band has succeeded, when the
# outputs are put together, and the serial rerun meets it again
@pytest.mark.parametrize("bad", ["mean_sat.asc", "cv_sat.asc"], ids=["parent", "child"])
def test_map_output_failure_matches_serial(capsys, monkeypatch, sample_file, tmp_path, bad):
    cal = tmp_path / "cal"
    assert run(capsys, "calibrate", "--data", sample_file, "--members", "cosby1,carsel",
               "--replicas", "3", "--seed", "5", "--out", cal)[0] == 0
    write_layer_grids(tmp_path)
    outcomes = []
    for cpus in (1, 2):
        out = tmp_path / f"maps{cpus}"
        (out / bad).mkdir(parents=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        code, stdout, err = run(capsys, *map_argv(cal, tmp_path, out))
        with pytest.raises(ChildProcessError):  # every writer was reaped
            os.waitpid(-1, os.WNOHANG)
        outcomes.append((code, stdout, err.replace(str(out), "<out>")))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (1, "", f"error: <out>/{bad}: Is a directory\n")


CHEAP_TABLE = ("stratum\treplica\tcal_rmse\tval_rmse\tw_cosby1\tw_cosby2\n"
               "global\t0\t0.01\t\t0.5\t0.5\nglobal\t1\t0.01\t\t0.3\t0.7\n"
               "global\t2\t0.01\t\t0.8\t0.2\n")


def textured_grid_args(directory, nrows, ncols):
    """The --sand/silt/clay-grid arguments of grid files of nrows x ncols
    cells over the texture triangle, written to directory."""
    fractions = np.random.default_rng(nrows).dirichlet((2.0, 2.0, 2.0), (nrows, ncols)) * 100.0
    args = []
    for k, name in enumerate(("sand", "silt", "clay")):
        write_grid(directory / f"{name}.asc", Grid(ncols=ncols, nrows=nrows, xllcorner=0.0,
                                                   yllcorner=0.0, cellsize=1.0, nodata=-9999.0,
                                                   values=fractions[..., k]))
        args += [f"--{name}-grid", directory / f"{name}.asc"]
    return args


def test_map_memory_flat_in_raster_height(monkeypatch, tmp_path):
    """With one band, the traced peak of map on a raster 20 blocks tall
    (1,280 x 64 cells) stays within 10% of that on one block (64 x 64):
    map streams rows, so its memory depends on the block budget, not on
    the raster. Holding the inputs and outputs whole, the peak went from
    1.5 MB to 10.5 MB. Children are out of tracemalloc's sight, hence one
    band."""
    monkeypatch.setattr(mapping, "_usable_cpus", lambda: 1)
    (tmp_path / "replicas.tsv").write_text(CHEAP_TABLE)
    peaks = []
    for run_index, nrows in enumerate((64, 64, 1280)):  # the first run fills caches
        directory = tmp_path / f"run{run_index}"
        directory.mkdir()
        argv = ["map", "--weights", tmp_path / "replicas.tsv",
                *textured_grid_args(directory, nrows, 64), "--out", directory / "maps"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([str(a) for a in argv]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_block, twenty_blocks = peaks[1:]
    assert abs(twenty_blocks - one_block) <= 0.1 * one_block, peaks


# three blocks of 64 rows, the last one 22 rows
@pytest.mark.parametrize("cpus", [1, 2])
def test_map_malformed_row_in_the_last_block(capsys, monkeypatch, tmp_path, cpus):
    """One malformed row in the last block of one input exits 2 with the
    message read_grid gives for that file; the grids of an earlier run stay
    byte-unchanged, and no band file is left in --out."""
    (tmp_path / "replicas.tsv").write_text(CHEAP_TABLE)
    argv = ("map", "--weights", tmp_path / "replicas.tsv",
            *textured_grid_args(tmp_path, 150, 64), "--out", tmp_path / "maps")
    assert run(capsys, *argv)[0] == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "maps").iterdir()}
    assert len(before) == 7  # six grids and the manifest
    silt = tmp_path / "silt.asc"
    lines = silt.read_text().splitlines()
    lines[6 + 140] = lines[6 + 140].replace(" ", " 1.5.5 ", 1).rsplit(" ", 1)[0]
    silt.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError) as want:
        read_grid(silt)
    assert str(want.value) == f"{silt}: line 147: could not convert string to float: '1.5.5'"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    code, stdout, err = run(capsys, *argv)
    with pytest.raises(ChildProcessError):  # every band was reaped
        os.waitpid(-1, os.WNOHANG)
    assert (code, stdout, err) == (2, "", f"data error: {want.value}\n")
    assert {p.name: p.read_bytes() for p in (tmp_path / "maps").iterdir()} == before


def package_env(**extra):
    """The environment of a subprocess that imports this checkout's ptfens."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptfens.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra}


def test_map_subprocess_prints_summary_once(capsys, sample_file, tmp_path):
    cal = tmp_path / "cal"
    assert run(capsys, "calibrate", "--data", sample_file, "--members", "cosby1,carsel",
               "--replicas", "3", "--seed", "5", "--out", cal)[0] == 0
    write_layer_grids(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "ptfens",
                           *map(str, map_argv(cal, tmp_path, tmp_path / "maps"))],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=package_env(), timeout=120, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("stratum=global replicas=3 valid_cells=4 ")
    assert proc.stdout.count("\n") == 1
    assert len(list((tmp_path / "maps").glob("*.asc"))) == 6


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs 2 usable CPUs for a threaded BLAS")
def test_map_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A 300 x 220 map (66,000 cells, nine blocks of 37 rows) writes the
    same bytes with one and two OpenBLAS threads: the replica mean and
    spread sum over members without BLAS, whose threads split a product
    differently."""
    rng = np.random.default_rng(3)
    fractions = rng.dirichlet((2.0, 2.0, 2.0), size=(300, 220)) * 100.0
    layers = {"sand": fractions[..., 0], "silt": fractions[..., 1],
              "clay": fractions[..., 2], "bd": rng.uniform(1.0, 1.8, (300, 220)),
              "oc": rng.uniform(0.1, 4.0, (300, 220))}
    argv = ["map", "--weights", str(tmp_path / "replicas.tsv")]
    for name, values in layers.items():
        write_grid(tmp_path / f"{name}.asc", Grid(ncols=220, nrows=300, xllcorner=0.0,
                                                  yllcorner=0.0, cellsize=1.0,
                                                  nodata=-9999.0, values=values))
        argv += [f"--{name}-grid", str(tmp_path / f"{name}.asc")]
    members = ("cosby0", "carsel", "clapp", "rosetta_h1w", "cosby1", "cosby2", "rawls",
               "campbell", "wosten", "weynants", "vereecken")
    rows = ["\t".join(["global", str(r), "0.01", ""]
                      + [repr(w) for w in rng.dirichlet(np.ones(len(members))).tolist()])
            for r in range(8)]
    (tmp_path / "replicas.tsv").write_text(
        "\t".join(["stratum", "replica", "cal_rmse", "val_rmse"]
                  + [f"w_{m}" for m in members]) + "\n" + "\n".join(rows) + "\n")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"maps_{threads}"
        proc = subprocess.run([sys.executable, "-m", "ptfens", *argv, "--out", str(out)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=package_env(OPENBLAS_NUM_THREADS=threads),
                              timeout=300, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.asc"))})
    assert len(written[0]) == 6
    assert [name for name in written[0] if written[0][name] != written[1][name]] == []


def calibrate_evaluate_bytes_by_blas_threads(tmp_path, replicas):
    """{file name: bytes} of the .tsv files that calibrate --scheme texture
    and then evaluate --weights leave on tmp_path/samples.csv, under one
    and under two OpenBLAS threads."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"run_{threads}"
        for argv in (["calibrate", "--members", ",".join(NETWORK_FREE), "--scheme", "texture",
                      "--replicas", str(replicas), "--out", str(out)],
                     ["evaluate", "--members", ",".join(NETWORK_FREE),
                      "--weights", str(out / "weights_global.tsv"), "--out", str(out)]):
            proc = subprocess.run([sys.executable, "-m", "ptfens", *argv,
                                   "--data", str(tmp_path / "samples.csv")],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  env=package_env(OPENBLAS_NUM_THREADS=threads),
                                  timeout=300, check=False)
            assert (proc.returncode, proc.stderr) == (0, "")
        written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
    return written


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs 2 usable CPUs for a threaded BLAS")
def test_calibrate_and_evaluate_bytes_do_not_depend_on_blas_threads(tmp_path):
    """calibrate (replicas.tsv, summary.tsv, weights_*.tsv) and evaluate
    --weights (report.tsv) write the same bytes with one and two OpenBLAS
    threads on 3,200 points, with every texture stratum calibrated.
    evaluate's ensemble row is a weighted_sum, and calibrate's weight solve
    and RMSEs are einsums, none of them BLAS; the size at which OpenBLAS
    splits a product over threads is tested at 50,000 points below."""
    rng = np.random.default_rng(4)
    write_samples(tmp_path / "samples.csv", synthetic_population(
        rng, 800, PtfId.WOSTEN, noise=0.02, heads=(100.0, 330.0, 1000.0, 15000.0)))
    written = calibrate_evaluate_bytes_by_blas_threads(tmp_path, replicas=3)
    assert {"replicas.tsv", "summary.tsv", "weights_global.tsv", "report.tsv"} <= set(written[0])
    assert len([name for name in written[0] if name.startswith("weights_texture")]) > 3
    assert [name for name in written[0] if written[0][name] != written[1][name]] == []


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs 2 usable CPUs for a threaded BLAS")
def test_calibrate_bytes_do_not_depend_on_blas_threads_at_50000_points(tmp_path):
    """calibrate and evaluate on 12,500 samples, 50,000 points, write the
    same bytes with one and two OpenBLAS threads. OpenBLAS 0.3.31 (x86-64)
    splits an 11 x 50,000 matrix-vector product over its threads; with G =
    PP', b = Py and chi2 as BLAS products, replicas.tsv, summary.tsv and
    weights_global.tsv differed."""
    n, heads = 12500, (100.0, 330.0, 1000.0, 15000.0)
    rng = np.random.default_rng(4)
    fractions = rng.dirichlet((2.0, 2.0, 2.0), size=n) * 100.0
    predictors = {"sand": fractions[:, 0], "silt": fractions[:, 1], "clay": fractions[:, 2],
                  "bulk_density": rng.uniform(0.9, 1.8, n),
                  "organic_carbon": rng.uniform(0.2, 4.0, n)}
    theta = member_thetas([PtfId.WOSTEN], heads, topsoil=np.ones(n), **predictors)[0]
    theta = np.clip(theta + rng.normal(0.0, 0.02, theta.shape), 0.01, 0.59)
    theta = np.minimum.accumulate(theta, axis=0)  # a drier head is never wetter
    write_samples(tmp_path / "samples.csv", SampleTable(
        ids=tuple(f"s{i}" for i in range(n)), latitude=np.full(n, np.nan),
        longitude=np.full(n, np.nan), **predictors, soil_order=(None,) * n,
        temperature_regime=(None,) * n, obs_owner=np.repeat(np.arange(n), len(heads)),
        obs_psi=np.tile(heads, n), obs_theta=theta.T.ravel()))
    written = calibrate_evaluate_bytes_by_blas_threads(tmp_path, replicas=2)
    assert {"replicas.tsv", "summary.tsv", "weights_global.tsv", "report.tsv"} <= set(written[0])
    assert [name for name in written[0] if written[0][name] != written[1][name]] == []


REPLICA_HEADER = "stratum\treplica\tcal_rmse\tval_rmse\tw_cosby1\tw_carsel\n"


@pytest.mark.parametrize("row, message", [
    ("global\tfirst\t0.01\t\t0.7\t0.3\n", ":3: bad replica index 'first'"),
    ("global\t1\t0.01\t\t0.7\tabc\n", ":3: bad weight 'abc'"),
    ("global\t1\t0.01\t\t0.7\n", ":3: expected 6 tab-separated fields"),
    ("global\t1\t0.01\t\t0\t0\n", ":3: weights must sum to 1, got 0"),
    ("global\t1\t0.01\t\t0.3\t0.9\n", ":3: weights must sum to 1, got 1.2"),
])
def test_map_malformed_replica_table(capsys, tmp_path, row, message):
    table = tmp_path / "replicas.tsv"
    table.write_text(REPLICA_HEADER + "global\t0\t0.01\t\t0.5\t0.5\n" + row)
    write_layer_grids(tmp_path)
    code, _, err = run(capsys, "map", "--weights", table,
                       "--sand-grid", tmp_path / "sand.asc",
                       "--silt-grid", tmp_path / "silt.asc",
                       "--clay-grid", tmp_path / "clay.asc", "--out", tmp_path / "maps")
    assert code == 2
    assert str(table) in err and message in err


def test_map_negative_fraction_cell_is_nodata(capsys, tmp_path):
    table = tmp_path / "replicas.tsv"
    table.write_text(REPLICA_HEADER + "global\t0\t0.01\t\t0.7\t0.3\n"
                     "global\t1\t0.01\t\t0.5\t0.5\n")
    # the right cell sums to 100 but has a negative sand fraction
    for name, values in (("sand", [40.0, -0.5]), ("silt", [40.0, 50.5]),
                         ("clay", [20.0, 50.0])):
        write_grid(tmp_path / f"{name}.asc", Grid(
            ncols=2, nrows=1, xllcorner=0.0, yllcorner=0.0, cellsize=100.0,
            nodata=-9999.0, values=np.array([values])))
    out = tmp_path / "maps"
    code, stdout, _ = run(capsys, "map", "--weights", table,
                          "--sand-grid", tmp_path / "sand.asc",
                          "--silt-grid", tmp_path / "silt.asc",
                          "--clay-grid", tmp_path / "clay.asc", "--out", out)
    assert code == 0
    assert ("valid_cells=1 missing_layer_cells=0 texture_sum_cells=0 "
            "negative_fraction_cells=1 out_of_range_cells=0 zero_mean_cv_cells=0") in stdout
    for kind in ("mean", "cv"):
        for label in ("sat", "fc", "wp"):
            grid = read_grid(out / f"{kind}_{label}.asc")
            assert grid.valid_mask().tolist() == [[True, False]]
            assert grid.values[0, 1] == -9999.0


def test_map_negative_bulk_density_cell_is_nodata(capsys, tmp_path):
    table = tmp_path / "replicas.tsv"
    table.write_text("stratum\treplica\tcal_rmse\tval_rmse\tw_cosby1\tw_campbell\n"
                     "global\t0\t0.01\t\t0.7\t0.3\n"
                     "global\t1\t0.01\t\t0.5\t0.5\n")
    # the right cell's bulk density is negative: campbell's curve is NaN there
    for name, values in (("sand", [40.0, 40.0]), ("silt", [40.0, 40.0]),
                         ("clay", [20.0, 20.0]), ("bd", [1.3, -1.2])):
        write_grid(tmp_path / f"{name}.asc", Grid(
            ncols=2, nrows=1, xllcorner=0.0, yllcorner=0.0, cellsize=100.0,
            nodata=-9999.0, values=np.array([values])))
    out = tmp_path / "maps"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "map", "--weights", table,
                                "--sand-grid", tmp_path / "sand.asc",
                                "--silt-grid", tmp_path / "silt.asc",
                                "--clay-grid", tmp_path / "clay.asc",
                                "--bd-grid", tmp_path / "bd.asc", "--out", out)
    assert (code, err) == (0, "")
    assert ("valid_cells=1 missing_layer_cells=0 texture_sum_cells=0 "
            "negative_fraction_cells=0 out_of_range_cells=1 zero_mean_cv_cells=0") in stdout
    for kind in ("mean", "cv"):
        for label in ("sat", "fc", "wp"):
            grid = read_grid(out / f"{kind}_{label}.asc")
            assert grid.valid_mask().tolist() == [[True, False]]


def test_map_class_table_lacking_a_present_class(capsys, monkeypatch, tmp_path):
    (tmp_path / "replicas.tsv").write_text(REPLICA_TABLE)
    write_layer_grids(tmp_path)
    drop_class(monkeypatch, PtfId.CARSEL, "loam")  # the top-left cell's class
    code, stdout, err = run(capsys, *map_argv(tmp_path, tmp_path, tmp_path / "maps"))
    assert (code, stdout) == (2, "")
    assert err == ("data error: member carsel: PTF carsel has no entry for "
                   "texture class(es): loam\n")
    assert not (tmp_path / "maps" / "mean_sat.asc").exists()


def test_map_refuses_single_replica(capsys, sample_file, tmp_path):
    cal = tmp_path / "cal1"
    code, _, _ = run(capsys, "calibrate", "--data", sample_file,
                     "--members", "cosby1,carsel", "--replicas", "1",
                     "--seed", "5", "--out", cal)
    assert code == 0
    write_layer_grids(tmp_path)
    code, _, err = run(capsys, "map", "--weights", cal / "replicas.tsv",
                       "--sand-grid", tmp_path / "sand.asc",
                       "--silt-grid", tmp_path / "silt.asc",
                       "--clay-grid", tmp_path / "clay.asc",
                       "--out", tmp_path / "maps3")
    assert code == 2 and "two replica" in err


def test_read_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("replicas 3\n")
    from ptfens.errors import ConfigError
    with pytest.raises(ConfigError) as err:
        read_config(path)
    assert ":1:" in str(err.value)
    good = tmp_path / "good.cfg"
    good.write_text("# comment\n\nreplicas = 3\nscheme = texture\n")
    assert read_config(good) == {"replicas": "3", "scheme": "texture"}
