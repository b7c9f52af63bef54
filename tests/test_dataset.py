"""Ingestion, quality filtering, stratification and bootstrap resampling."""

from dataclasses import replace

import numpy as np
import pytest

from ptfens import ConfigError, InputError, SchemaError
from ptfens.dataset import (
    DEFAULT_OC_EDGES,
    Schema,
    bootstrap_split,
    canonical_schema,
    gravimetric_to_volumetric,
    ingest,
    oc_bin,
    qa_filter,
    read_samples,
    read_schema,
    stratify,
    stratum_key,
    write_removals,
    write_samples,
)
from ptfens.texture import classify_texture
from helpers import make_sample

SCHEMA = Schema(
    columns={"sample_id": "pedon", "sand": "sa", "silt": "si", "clay": "cl",
             "bulk_density": "db", "organic_carbon": "c_org"},
    theta_columns={330.0: "w330", 15000.0: "w15000"},
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


HEADER = ("pedon", "sa", "si", "cl", "db", "c_org", "w330", "w15000")


def test_ingest_clean_rows(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        HEADER,
        ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
        ("P2", 10, 60, 30, 1.2, 2.0, 0.35, 0.20),
        ("P3", 80, 12, 8, 1.6, 0.5, 0.18, 0.08),
    ])
    result = ingest(path, SCHEMA)
    assert result.n_rows == 3
    assert len(result.samples) == 3
    assert result.removals == ()
    assert [s.sample_id for s in result.samples] == ["P1", "P2", "P3"]
    assert result.samples[0].theta_at_head(330.0) == 0.30
    assert result.samples[0].observations[0].psi == 330.0


def test_ingest_rejections(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        HEADER,
        ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
        ("P2", 90, 40, 20, 1.4, 1.0, 0.30, 0.15),   # sum 150
        ("P3", 40, 40, "", 1.4, 1.0, 0.30, 0.15),   # missing clay
        ("P4", 40, 40, "x", 1.4, 1.0, 0.30, 0.15),  # non-numeric
        ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),   # duplicate id
        ("P5", 40, 40, 20, 1.4, 1.0, "", ""),       # no observations
    ])
    result = ingest(path, SCHEMA)
    assert [s.sample_id for s in result.samples] == ["P1"]
    reasons = {e.sample_id: e.reason_code for e in result.removals}
    assert reasons == {"P2": "TEXTURE_SUM", "P3": "MISSING_FIELD",
                       "P4": "BAD_NUMBER", "P1": "DUPLICATE_ID",
                       "P5": "NO_OBSERVATIONS"}
    sum_entry = next(e for e in result.removals if e.reason_code == "TEXTURE_SUM")
    assert "150" in sum_entry.detail
    assert all(e.stage == "ingest" for e in result.removals)


def test_ingest_missing_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        ("pedon", "sa", "si", "cl", "db", "c_org", "w330"),
        ("P1", 40, 40, 20, 1.4, 1.0, 0.30),
    ])
    with pytest.raises(SchemaError) as err:
        ingest(path, SCHEMA)
    assert "w15000" in str(err.value)


def test_ingest_tab_delimited_sniffing(tmp_path):
    path = tmp_path / "d.tsv"
    rows = [HEADER, ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15)]
    path.write_text("\n".join("\t".join(str(v) for v in row) for row in rows) + "\n")
    result = ingest(path, SCHEMA)
    assert len(result.samples) == 1


def test_gravimetric_conversion(tmp_path):
    assert gravimetric_to_volumetric(0.2, 1.5) == pytest.approx(0.30, abs=1e-15)
    assert gravimetric_to_volumetric(0.0, 1.0) == 0.0
    with pytest.raises(InputError):
        gravimetric_to_volumetric(0.2, 2.5)
    with pytest.raises(InputError):
        gravimetric_to_volumetric(-0.1, 1.5)

    schema = Schema(
        columns=dict(SCHEMA.columns),
        theta_columns=dict(SCHEMA.theta_columns),
        theta_units="gravimetric",
    )
    path = write_csv(tmp_path / "d.csv", [
        HEADER,
        ("P1", 40, 40, 20, 1.5, 1.0, 0.20, 0.10),
    ])
    result = ingest(path, schema)
    s = result.samples[0]
    assert s.theta_at_head(330.0) == pytest.approx(0.20 * 1.5, abs=1e-15)
    assert s.theta_at_head(15000.0) == pytest.approx(0.10 * 1.5, abs=1e-15)


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "s.schema"
    path.write_text(
        "# mapping for the test export\n"
        "sample_id = pedon\n"
        "sand = sa\n"
        "silt = si\n"
        "clay = cl\n"
        "bulk_density = db\n"
        "organic_carbon = c_org\n"
        "theta_330 = w330\n"
        "theta_15000 = w15000\n"
        "theta_units = volumetric\n"
    )
    schema = read_schema(path)
    assert schema.columns["sand"] == "sa"
    assert schema.theta_columns[330.0] == "w330"
    assert schema.theta_units == "volumetric"


def test_schema_unknown_key_has_line_number(tmp_path):
    path = tmp_path / "s.schema"
    path.write_text("sand = sa\nwibble = x\n")
    with pytest.raises(SchemaError) as err:
        read_schema(path)
    assert "2" in str(err.value)


def test_schema_unknown_head(tmp_path):
    path = tmp_path / "s.schema"
    path.write_text("sand = sa\nsilt = si\nclay = cl\n"
                    "bulk_density = db\ntheta_777 = w\n")
    with pytest.raises(SchemaError):
        read_schema(path)


# the twelve-row quality fixture; expected survivors and removals are frozen
def qa_fixture():
    return [
        make_sample("Q01", 40, 40, 20, bd=1.4, obs=[(330, 0.30), (15000, 0.15)]),
        make_sample("Q02", 40, 40, 20, bd=0.4, obs=[(330, 0.30), (15000, 0.15)]),
        make_sample("Q03", 40, 40, 20, bd=2.3, obs=[(330, 0.30), (15000, 0.15)]),
        make_sample("Q04", 40, 40, 20, bd=1.4,
                    obs=[(60, 1.2), (330, 0.30), (15000, 0.15)]),
        make_sample("Q05", 40, 40, 20, bd=1.4,
                    obs=[(330, 0.65), (1000, 0.22)]),
        make_sample("Q06", 40, 40, 20, bd=1.4, obs=[(60, 0.70), (330, 0.45)]),
        make_sample("Q07", 40, 40, 20, bd=1.4, obs=[(330, 0.25), (15000, 0.30)]),
        make_sample("Q08", 40, 40, 20, bd=1.4, obs=[(330, 1.5)]),
        make_sample("Q09", 40, 40, 20, bd=1.4, obs=[(15000, 0.62)]),
        make_sample("Q10", 40, 40, 20, bd=1.4,
                    obs=[(60, 0.50), (330, 0.65), (15000, 0.30)]),
        make_sample("Q11", 40, 40, 20, bd=None, obs=[(330, 0.30), (15000, 0.15)]),
        make_sample("Q12", 40, 40, 20, bd=1.4, obs=[(330, 0.30), (15000, 0.30)]),
    ]


def test_qa_partition():
    result = qa_filter(qa_fixture())
    kept = [s.sample_id for s in result.kept]
    assert kept == ["Q01", "Q04", "Q05", "Q06", "Q10", "Q11", "Q12"]
    sample_removals = {e.sample_id: e.reason_code for e in result.removals
                       if e.reason_code in ("BD_RANGE", "FC_LT_WP",
                                            "NO_OBSERVATIONS")}
    assert sample_removals == {"Q02": "BD_RANGE", "Q03": "BD_RANGE",
                               "Q07": "FC_LT_WP", "Q08": "NO_OBSERVATIONS",
                               "Q09": "NO_OBSERVATIONS"}
    obs_removals = sorted((e.sample_id, e.reason_code) for e in result.removals
                          if e.reason_code in ("THETA_GT_ONE", "THETA_GT_0_6"))
    assert obs_removals == [("Q04", "THETA_GT_ONE"), ("Q05", "THETA_GT_0_6"),
                            ("Q08", "THETA_GT_ONE"), ("Q09", "THETA_GT_0_6"),
                            ("Q10", "THETA_GT_0_6")]


def test_qa_trims_observations_but_keeps_sample():
    result = qa_filter(qa_fixture())
    by_id = {s.sample_id: s for s in result.kept}
    assert [o.psi for o in by_id["Q04"].observations] == [330.0, 15000.0]
    assert [o.psi for o in by_id["Q05"].observations] == [1000.0]
    # theta > 0.6 is allowed away from the two dry heads
    assert [o.psi for o in by_id["Q06"].observations] == [60.0, 330.0]
    assert [o.psi for o in by_id["Q10"].observations] == [60.0, 15000.0]


def test_qa_idempotent():
    once = qa_filter(qa_fixture())
    twice = qa_filter(once.kept)
    assert twice.removals == ()
    assert twice.kept == once.kept


def test_stratify_texture():
    samples = [
        make_sample("A", 95, 3, 2, obs=[(330, 0.1)]),
        make_sample("B", 94, 4, 2, obs=[(330, 0.1)]),
        make_sample("C", 20, 20, 60, obs=[(330, 0.4)]),
    ]
    groups = stratify(samples, "texture")
    assert {k: len(v) for k, v in groups.items()} == \
        {"texture:sand": 2, "texture:clay": 1}


def test_stratify_texture_matches_per_sample_classification():
    rng = np.random.default_rng(32)
    samples = []
    for i in range(40):
        f = rng.dirichlet((2, 2, 2)) * 100
        samples.append(make_sample(f"S{i}", *f, obs=[(330, 0.3)]))
    samples[3] = replace(samples[3], sand=None)                  # missing
    samples[7] = make_sample("neg", -0.5, 50.5, 50, obs=[(330, 0.3)])
    samples[11] = make_sample("off", 40, 40, 25, obs=[(330, 0.3)])  # sums to 105
    samples[12] = make_sample("edge", 40, 40, 20.9, obs=[(330, 0.3)])  # 100.9, kept
    samples[19] = make_sample("nan", float("nan"), 50, 50, obs=[(330, 0.3)])
    samples[23] = make_sample("inf", float("inf"), 50, 50, obs=[(330, 0.3)])

    expected = {}
    for s in samples:  # the per-sample reference
        try:
            key = stratum_key("texture", classify_texture(s.sand, s.silt, s.clay))
        except InputError:
            key = "unassigned"
        expected.setdefault(key, []).append(s.sample_id)
    groups = stratify(samples, "texture")
    assert {k: [s.sample_id for s in v] for k, v in groups.items()} == expected
    assert [s.sample_id for s in groups["unassigned"]] == ["S3", "neg", "off", "nan", "inf"]


def test_stratify_oc_bins():
    samples = [
        make_sample("A", 40, 40, 20, oc=0.05, obs=[(330, 0.3)]),
        make_sample("B", 40, 40, 20, oc=5.0, obs=[(330, 0.3)]),
    ]
    groups = stratify(samples, "oc")
    assert set(groups) == {"oc:0", "oc:6"}


def test_stratify_unassigned_bucket():
    samples = [
        make_sample("A", 40, 40, 20, order="mollisols", obs=[(330, 0.3)]),
        make_sample("B", 40, 40, 20, order=None, obs=[(330, 0.3)]),
    ]
    groups = stratify(samples, "order")
    assert [s.sample_id for s in groups["order:mollisols"]] == ["A"]
    assert [s.sample_id for s in groups["unassigned"]] == ["B"]


def test_stratify_is_a_partition():
    rng = np.random.default_rng(31)
    samples = []
    for i in range(60):
        f = rng.dirichlet((2, 2, 2)) * 100
        samples.append(make_sample(f"S{i}", *f, oc=rng.uniform(0.01, 12.0),
                                   obs=[(330, 0.3)]))
    for scheme in ("texture", "oc"):
        groups = stratify(samples, scheme)
        pooled = [s.sample_id for members in groups.values() for s in members]
        assert sorted(pooled) == sorted(s.sample_id for s in samples)


def test_stratify_rejects_unknown_and_pressure():
    samples = [make_sample("A", 40, 40, 20, obs=[(330, 0.3)])]
    with pytest.raises(ConfigError):
        stratify(samples, "depth")
    with pytest.raises(ConfigError):
        stratify(samples, "pressure")  # handled by the stratified calibrator


def test_oc_bin_edges():
    assert oc_bin(0.05) == 0
    assert oc_bin(0.1) == 1  # right-closed bin edges
    assert oc_bin(0.2) == 1
    assert oc_bin(5.0) == 6
    assert oc_bin(10.0) == 7
    assert oc_bin(None) is None
    assert len(DEFAULT_OC_EDGES) == 7  # eight bins
    assert stratum_key("oc", 3) == "oc:3"


def test_bootstrap_single_sample():
    samples = [make_sample("only", 40, 40, 20, obs=[(330, 0.3)])]
    (rep,) = bootstrap_split(samples, 1, seed=0)
    assert rep.calibration_ids == ("only",)
    assert rep.validation_ids == ()


def test_bootstrap_deterministic_and_sized():
    rng = np.random.default_rng(32)
    samples = [make_sample(f"S{i}", 40, 40, 20, obs=[(330, 0.3)])
               for i in range(50)]
    a = bootstrap_split(samples, 10, seed=7)
    b = bootstrap_split(samples, 10, seed=7)
    assert a == b
    c = bootstrap_split(samples, 10, seed=8)
    assert a != c
    ids = {s.sample_id for s in samples}
    for rep in a:
        assert len(rep.calibration_ids) == 50  # multiset size = source size
        assert set(rep.calibration_ids) | set(rep.validation_ids) == ids
        assert set(rep.calibration_ids) & set(rep.validation_ids) == set()


def test_bootstrap_oob_fraction():
    samples = [make_sample(f"S{i}", 40, 40, 20, obs=[(330, 0.3)])
               for i in range(400)]
    reps = bootstrap_split(samples, 40, seed=3)
    oob = np.mean([len(r.validation_ids) / 400 for r in reps])
    assert abs(oob - np.exp(-1.0)) < 0.03


def test_bootstrap_errors():
    with pytest.raises(InputError):
        bootstrap_split([], 5, seed=0)
    dup = [make_sample("X", 40, 40, 20, obs=[(330, 0.3)]),
           make_sample("X", 30, 50, 20, obs=[(330, 0.3)])]
    with pytest.raises(InputError):
        bootstrap_split(dup, 5, seed=0)
    ok = [make_sample("X", 40, 40, 20, obs=[(330, 0.3)])]
    with pytest.raises(InputError):
        bootstrap_split(ok, 0, seed=0)


def test_sample_file_round_trip(tmp_path):
    samples = qa_filter(qa_fixture()).kept
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    again = read_samples(path)
    assert len(again) == len(samples)
    for a, b in zip(again, samples):
        assert a.sample_id == b.sample_id
        assert a.sand == b.sand and a.bulk_density == b.bulk_density
        assert a.observations == b.observations
    assert canonical_schema().theta_columns  # readable by the same schema


def test_removal_log_format(tmp_path):
    result = qa_filter(qa_fixture())
    path = tmp_path / "removed.csv"
    write_removals(path, result.removals)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,stage,reason_code,detail"
    assert any(line.startswith("Q02,qa,BD_RANGE") for line in lines[1:])
