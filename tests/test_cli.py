"""End-to-end command line runs against temporary files."""

import json

import numpy as np
import pytest

from ptfens import (
    Grid,
    PredictorRecord,
    PtfId,
    WeightVector,
    predict_theta,
    read_grid,
    read_samples,
    write_grid,
    write_samples,
    write_weights,
)
from ptfens import _kernels
from ptfens.cli import main, read_config
from ptfens.ensemble import GLOBAL_STRATUM, ensemble_theta, point_matrix
from ptfens.ptf import predict_batch
from helpers import make_sample, synthetic_population

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

GA_FAST = """\
ga_population = 12
ga_generations = 8
ga_stall_generations = 5
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
    code, _, err = run(capsys, "calibrate", "--threads", "0")
    assert code == 1 and "threads" in err


def test_ingest_products(capsys, ingest_dir):
    out = ingest_dir / "out"
    code, stdout, _ = run(capsys, "ingest", "--data", ingest_dir / "raw.csv",
                          "--schema", ingest_dir / "schema.txt", "--out", out)
    assert code == 0
    assert "rows=3" in stdout and "kept=2" in stdout

    kept = read_samples(out / "samples.csv")
    assert [s.sample_id for s in kept] == ["P1", "P3"]
    assert len(kept[1].observations) == 1  # the theta > 0.6 point is gone

    removed = (out / "removed.csv").read_text()
    assert removed.splitlines()[0] == "sample_id,stage,reason_code,detail"
    assert "BD_RANGE" in removed and "P2" in removed
    assert "THETA_GT_0_6" in removed and "P3" in removed

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert set(manifest["input_hashes"]) == {"raw.csv", "schema.txt"}
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


def test_evaluate_bad_member_name(capsys, sample_file, tmp_path):
    code, _, err = run(capsys, "evaluate", "--data", sample_file,
                       "--members", "bogus", "--out", tmp_path)
    assert code == 1 and "bogus" in err
    code, _, err = run(capsys, "evaluate", "--data", sample_file,
                       "--group", "Z", "--out", tmp_path)
    assert code == 1


def test_calibrate_outputs_and_determinism(capsys, sample_file, tmp_path):
    cfg = tmp_path / "ga.cfg"
    cfg.write_text(GA_FAST)
    argv = ("calibrate", "--data", sample_file, "--members", "cosby1,carsel",
            "--replicas", "3", "--seed", "3", "--config", cfg)
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
    cfg = tmp_path / "ga.cfg"
    cfg.write_text(GA_FAST + "replicas = 3\n")
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
    cfg = tmp_path / "ga.cfg"
    cfg.write_text(GA_FAST)
    out = tmp_path / "strat"
    code, stdout, _ = run(capsys, "calibrate", "--data", data,
                          "--members", "cosby1,carsel", "--scheme", "pressure",
                          "--replicas", "2", "--min-stratum-points", "10",
                          "--seed", "2", "--config", cfg, "--out", out)
    assert code == 0
    assert "pooled_rmse_stratified=" in stdout and "n_params=4" in stdout
    assert (out / "weights_global.tsv").exists()
    assert (out / "weights_psi_330.tsv").exists()
    assert (out / "weights_psi_15000.tsv").exists()
    table = (out / "replicas.tsv").read_text()
    assert "psi:330" in table and "psi:15000" in table


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
    rec = PredictorRecord(sand=40.0, silt=40.0, clay=20.0)
    for r in rows:
        assert float(r[2]) == predict_theta(PtfId.CARSEL, rec, float(r[1]))
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
    write_samples(no_oc, [make_sample("has_oc", 40, 40, 20, obs=[(330.0, 0.3)]),
                          make_sample("lacks_oc", 40, 40, 20, oc=None,
                                      obs=[(330.0, 0.3)])])
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
    arrays = {f: np.array([getattr(s, f) for s in samples])
              for f in ("sand", "silt", "clay", "bulk_density", "organic_carbon")}
    owner = np.repeat(np.arange(len(samples)), 2)
    psi = np.tile([330.0, 15000.0], len(samples))
    preds = np.empty((4, psi.size))
    for k, m in enumerate(vector.members):
        batch = predict_batch(m, **arrays)
        preds[k] = _kernels.theta_points(batch.codes[owner], batch.rows[owner], psi)
    eval_preds, _, eval_psi = point_matrix(vector.members, samples)  # what evaluate uses
    assert np.array_equal(eval_psi, psi) and np.array_equal(eval_preds, preds)
    assert [r[0] for r in rows] == [s.sample_id for s in samples for _ in range(2)]
    assert np.array_equal(got, vector.as_array() @ preds)

    per_record = [ensemble_theta(vector, PredictorRecord(
        sand=s.sand, silt=s.silt, clay=s.clay, bulk_density=s.bulk_density,
        organic_carbon=s.organic_carbon), h) for s in samples for h in (330.0, 15000.0)]
    np.testing.assert_array_max_ulp(got, np.array(per_record), maxulp=1)


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


def write_layer_grids(tmp_path):
    sand = np.array([[40.0, 65.0], [82.0, 10.0]])
    clay = np.array([[20.0, 10.0], [6.0, 57.0]])
    silt = 100.0 - sand - clay
    for name, values in (("sand", sand), ("silt", silt), ("clay", clay)):
        grid = Grid(ncols=2, nrows=2, xllcorner=0.0, yllcorner=0.0,
                    cellsize=100.0, nodata=-9999.0, values=values)
        write_grid(tmp_path / f"{name}.asc", grid)


def test_map_end_to_end(capsys, sample_file, tmp_path):
    cfg = tmp_path / "ga.cfg"
    cfg.write_text(GA_FAST)
    cal = tmp_path / "cal"
    code, _, _ = run(capsys, "calibrate", "--data", sample_file,
                     "--members", "cosby1,carsel", "--replicas", "3",
                     "--seed", "5", "--config", cfg, "--out", cal)
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


REPLICA_HEADER = "stratum\treplica\tcal_rmse\tval_rmse\tw_cosby1\tw_carsel\n"


@pytest.mark.parametrize("row, message", [
    ("global\tfirst\t0.01\t\t0.7\t0.3\n", ":3: bad replica index 'first'"),
    ("global\t1\t0.01\t\t0.7\tabc\n", ":3: bad weight 'abc'"),
    ("global\t1\t0.01\t\t0.7\n", ":3: expected 6 tab-separated fields"),
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
    assert "valid_cells=1 " in stdout
    for kind in ("mean", "cv"):
        for label in ("sat", "fc", "wp"):
            grid = read_grid(out / f"{kind}_{label}.asc")
            assert grid.valid_mask().tolist() == [[True, False]]
            assert grid.values[0, 1] == -9999.0


def test_map_refuses_single_replica(capsys, sample_file, tmp_path):
    cfg = tmp_path / "ga.cfg"
    cfg.write_text(GA_FAST)
    cal = tmp_path / "cal1"
    code, _, _ = run(capsys, "calibrate", "--data", sample_file,
                     "--members", "cosby1,carsel", "--replicas", "1",
                     "--seed", "5", "--config", cfg, "--out", cal)
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
