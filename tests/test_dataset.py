"""Ingestion, quality filtering, stratification and bootstrap resampling."""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptfens import ConfigError, InputError, SchemaError
from ptfens.dataset import (
    ALLOWED_HEADS,
    DEFAULT_OC_EDGES,
    SOIL_ORDERS,
    TEMPERATURE_REGIMES,
    RetentionObservation,
    SampleTable,
    Schema,
    SoilSample,
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
        ("P6", "x", 40, "", 1.4, 1.0, "y", ""),     # several faults: sand comes first
    ])
    result = ingest(path, SCHEMA)
    assert [s.sample_id for s in result.samples] == ["P1"]
    reasons = {e.sample_id: e.reason_code for e in result.removals}
    assert reasons == {"P2": "TEXTURE_SUM", "P3": "MISSING_FIELD",
                       "P4": "BAD_NUMBER", "P1": "DUPLICATE_ID",
                       "P5": "NO_OBSERVATIONS", "P6": "BAD_NUMBER"}
    sum_entry = next(e for e in result.removals if e.reason_code == "TEXTURE_SUM")
    assert "150" in sum_entry.detail
    assert all(e.stage == "ingest" for e in result.removals)
    assert [e.sample_id for e in result.removals] == ["P2", "P3", "P4", "P1", "P5", "P6"]
    assert result.removals[-1].detail == "field 'sand' is not numeric: 'x'"
    assert [e.line for e in result.removals] == [3, 4, 5, 6, 7, 8]


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


def test_ingest_first_fault_in_field_order(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        HEADER,
        ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
        ("P1", "", 40, "x", 1.4, 1.0, "", ""),      # a duplicate before anything else
        ("P2", "", 40, "x", 1.4, 1.0, 0.30, 0.15),  # missing sand before bad clay
        ("P3", 90, 40, 20, "x", 1.0, 0.30, 0.15),   # bad density before the sum
        ("P4", 90, 40, 20, 1.4, 1.0, "y", 0.15),    # the sum before a bad water content
        ("P5", 40, 40, 20, 1.4, 1.0, 0.30, "y"),    # a duplicate of a rejected id is not one
        ("P5", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
    ])
    result = ingest(path, SCHEMA)
    assert [(e.sample_id, e.reason_code, e.detail) for e in result.removals] == [
        ("P1", "DUPLICATE_ID", "sample id 'P1' already seen"),
        ("P2", "MISSING_FIELD", "missing required field 'sand'"),
        ("P3", "BAD_NUMBER", "field 'bulk_density' is not numeric: 'x'"),
        ("P4", "TEXTURE_SUM", "texture sum = 150"),
        ("P5", "BAD_NUMBER", "water content at psi=15000 is not numeric: 'y'"),
    ]
    assert result.samples.ids == ("P1", "P5")


NON_FINITE_ROWS = [
    # (the faulty row, the detail its removal must carry)
    (("P2", "nan", 50, 50, 1.4, 1.0, 0.30, 0.15), "field 'sand' is not finite: 'nan'"),
    (("P2", 40, 40, 20, 1.4, "-inf", 0.30, 0.15),
     "field 'organic_carbon' is not finite: '-inf'"),
    (("P2", 40, 40, 20, 1.4, 1.0, "nan", 0.15),
     "water content at psi=330 is not finite: 'nan'"),
    (("P2", 40, 40, 20, 1.4, 1.0, 0.30, "Infinity"),
     "water content at psi=15000 is not finite: 'Infinity'"),
    (("P2", -10, 70, 40, 1.4, 1.0, 0.30, 0.15), "field 'sand' is negative: '-10'"),
]


@pytest.mark.parametrize("row,detail", NON_FINITE_ROWS)
def test_ingest_non_finite_and_negative_values_are_bad_number(tmp_path, row, detail):
    path = write_csv(tmp_path / "d.csv", [
        HEADER,
        ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
        row,
        ("P3", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
    ])
    result = ingest(path, SCHEMA)
    assert result.samples.ids == ("P1", "P3")
    assert [(e.sample_id, e.reason_code, e.detail, e.line) for e in result.removals] == \
        [("P2", "BAD_NUMBER", detail, 3)]


@pytest.mark.parametrize("row,detail", NON_FINITE_ROWS)
def test_read_samples_rejects_non_finite_and_negative_values(tmp_path, row, detail):
    good = make_sample("P1", 40, 40, 20, obs=[(330, 0.30), (15000, 0.15)])
    path = tmp_path / "samples.csv"
    write_samples(path, [good])
    sid, sand, silt, clay, bd, oc, w330, w15000 = row
    canonical = {"sample_id": sid, "sand": sand, "silt": silt, "clay": clay,
                 "bulk_density": bd, "organic_carbon": oc,
                 "theta_330": w330, "theta_15000": w15000}
    header = path.read_text().splitlines()[0].split(",")
    with path.open("a") as fh:
        fh.write(",".join(str(canonical.get(col, "")) for col in header) + "\n")
    with pytest.raises(InputError) as err:
        read_samples(path)
    assert str(err.value) == f"{path}:3: bad canonical row P2: {detail}"


def test_read_samples_error_names_file_and_line(tmp_path):
    samples = [make_sample(f"S{i}", 40, 40, 20, obs=[(330, 0.3)]) for i in range(5)]
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace("40.0,40.0,20.0", "40.0,4O.0,20.0")  # S2, line 4
    path.write_text("".join(lines))
    with pytest.raises(InputError) as err:
        read_samples(path)
    assert str(err.value) == \
        f"{path}:4: bad canonical row S2: field 'silt' is not numeric: '4O.0'"


def test_ingest_short_rows_and_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",".join(HEADER) + "\n"
                    "P1,40,40,20,1.4,1.0,0.30\n"   # no trailing 15000 cm field
                    "\n"
                    "P2,40,40,20\n"                # no density, carbon or water content
                    ",40,40,20,1.4,1.0,0.30,0.15\n")
    result = ingest(path, SCHEMA)
    assert result.n_rows == 3
    assert [(s.sample_id, [o.psi for o in s.observations]) for s in result.samples] == \
        [("P1", [330.0]), ("r4", [330.0, 15000.0])]  # blank lines do not count
    (removal,) = result.removals
    assert (removal.sample_id, removal.reason_code, removal.line) == \
        ("P2", "MISSING_FIELD", 4)
    assert removal.detail == "missing required field 'bulk_density'"


# ---------------------------------------------------------------------------
# the columnar table

def table_fixture():
    return [
        make_sample("A", 40, 40, 20, bd=None, oc=2.0, order="mollisols",
                    obs=[(330, 0.30), (15000, 0.15)]),
        make_sample("B", 10, 60, 30, bd=1.2, oc=None, regime="mesic", obs=[]),
        make_sample("C", 80, 12, 8, obs=[(60, 0.40), (100, 0.35), (1000, 0.2)]),
    ]


def test_sample_table_rows_are_the_samples():
    samples = table_fixture()
    table = SampleTable.from_samples(samples)
    assert SampleTable.from_samples(table) is table
    assert len(table) == 3 and table.ids == ("A", "B", "C")
    assert table == samples and table == tuple(samples) and samples == table
    assert list(table) == samples
    assert table[-1] == samples[2] and table[1].observations == ()
    assert table[0].bulk_density is None and table[0].organic_carbon == 2.0
    assert table[0].theta_at_head(15000.0) == 0.15
    assert np.isnan(table.bulk_density[0]) and table.organic_carbon[0] == 2.0
    assert table.obs_owner.tolist() == [0, 0, 2, 2, 2]
    assert table.obs_offsets.tolist() == [0, 2, 2, 5]
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(ValueError):
        table.sand[0] = 1.0  # columns are read-only
    assert table != SampleTable.from_samples(samples[:2])


def test_sample_table_take_and_obs_index():
    samples = table_fixture()
    table = SampleTable.from_samples(samples)
    assert table.obs_index([2, 0, 2]).tolist() == [2, 3, 4, 0, 1, 2, 3, 4]
    assert table.obs_index([]).tolist() == []
    sub = table.take([2, 0])
    assert sub == [samples[2], samples[0]]
    assert sub.obs_owner.tolist() == [0, 0, 0, 1, 1]
    assert table[::2] == [samples[0], samples[2]]
    assert table.take([]) == []


def test_sample_table_rejects_inconsistent_columns():
    table = SampleTable.from_samples(table_fixture())
    columns = {f: getattr(table, f) for f in (
        "ids", "latitude", "longitude", "sand", "silt", "clay", "bulk_density",
        "organic_carbon", "soil_order", "temperature_regime", "obs_owner", "obs_psi",
        "obs_theta")}
    assert SampleTable(**columns) == table
    for bad in ({"sand": table.sand[:2]}, {"obs_owner": [0, 2, 0, 2, 2]},
                {"obs_owner": [0, 0, 2, 2, 3]}, {"obs_theta": [0.3, np.nan, 0.4, 0.35, 0.2]}):
        with pytest.raises(InputError):
            SampleTable(**{**columns, **bad})


def test_stratify_returns_the_callers_items():
    samples = table_fixture()
    groups = stratify(samples, "order")
    assert groups["order:mollisols"][0] is samples[0]
    assert [s.sample_id for s in groups["unassigned"]] == ["B", "C"]
    assert list(groups) == ["order:mollisols", "unassigned"]  # first appearance
    from_table = stratify(SampleTable.from_samples(samples), "order")
    assert from_table == groups
    assert stratify([], "texture") == {}


# ---------------------------------------------------------------------------
# canonical round trip over random sample sets

def _optional_float(low, high):
    return st.none() | st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def canonical_samples(draw):
    """Samples as read_samples returns them: ids that need CSV quoting,
    lower-case descriptors, ascending heads, optional fields missing."""
    ids = draw(st.lists(st.text(st.sampled_from('ab1,"\n\r é'), min_size=1, max_size=6)
                        .map(str.strip).filter(bool), min_size=1, max_size=8, unique=True))
    samples = []
    for sid in ids:
        sand = draw(st.floats(0.0, 100.0))
        silt = draw(st.floats(0.0, 100.0 - sand))
        heads = draw(st.lists(st.sampled_from(ALLOWED_HEADS), min_size=1, max_size=6,
                              unique=True))
        thetas = draw(st.lists(st.floats(-1.0, 2.0), min_size=len(heads),
                               max_size=len(heads)))
        samples.append(SoilSample(
            sample_id=sid, sand=sand, silt=silt, clay=100.0 - sand - silt,
            bulk_density=draw(_optional_float(0.1, 3.0)),
            organic_carbon=draw(_optional_float(0.0, 60.0)),
            latitude=draw(_optional_float(-90.0, 90.0)),
            longitude=draw(_optional_float(-180.0, 180.0)),
            soil_order=draw(st.sampled_from((None,) + SOIL_ORDERS)),
            temperature_regime=draw(st.sampled_from((None,) + TEMPERATURE_REGIMES)),
            observations=tuple(RetentionObservation(psi=p, theta=t)
                               for p, t in sorted(zip(heads, thetas)))))
    return samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(canonical_samples())
def test_sample_file_round_trip_property(samples):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        write_samples(first, samples)
        table = read_samples(first)
        write_samples(second, table)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert list(table) == samples
    assert SampleTable.from_samples(samples) == table


# ---------------------------------------------------------------------------
# columnar ingest against the per-row rules

def reference_ingest(header, rows, schema):
    """The ingest rules applied one row at a time: the kept samples as
    (id, fields, observations) and the removals as (id, code, detail)."""
    kept, removals, accepted = [], [], set()
    for k, fields in enumerate(rows):
        row = dict(zip(header, fields))
        sid = (row.get(schema.columns.get("sample_id")) or "").strip() or f"r{k + 2}"
        fault = None
        if sid in accepted:
            fault = ("DUPLICATE_ID", f"sample id {sid!r} already seen")
        values = {}
        for name in ("sample_id", "latitude", "longitude", "sand", "silt", "clay",
                     "bulk_density", "organic_carbon", "soil_order", "temperature_regime"):
            if fault:
                break
            raw = (row.get(schema.columns.get(name)) or "").strip()
            if not raw:
                if name in schema.required_fields:
                    fault = ("MISSING_FIELD", f"missing required field {name!r}")
                values[name] = None
            elif name in ("sample_id", "soil_order", "temperature_regime"):
                values[name] = raw if name == "sample_id" else raw.lower()
            else:
                try:
                    values[name] = v = float(raw)
                except ValueError:
                    fault = ("BAD_NUMBER", f"field {name!r} is not numeric: {raw!r}")
                    continue
                if not np.isfinite(v):
                    fault = ("BAD_NUMBER", f"field {name!r} is not finite: {raw!r}")
                elif name in ("sand", "silt", "clay") and v < 0.0:
                    fault = ("BAD_NUMBER", f"field {name!r} is negative: {raw!r}")
        if not fault:
            total = (values["sand"] or 0.0) + (values["silt"] or 0.0) + (values["clay"] or 0.0)
            if abs(total - 100.0) > 1.0:
                fault = ("TEXTURE_SUM", f"texture sum = {total:g}")
            elif schema.theta_units == "gravimetric" and values["bulk_density"] is None:
                fault = ("MISSING_FIELD", "bulk_density needed for gravimetric conversion")
        observations = []
        for head in sorted(schema.theta_columns):
            raw = (row.get(schema.theta_columns[head]) or "").strip()
            if fault or not raw:
                continue
            try:
                theta = float(raw)
            except ValueError:
                fault = ("BAD_NUMBER", f"water content at psi={head:g} is not numeric: {raw!r}")
                continue
            if schema.theta_units == "gravimetric":
                theta *= values["bulk_density"]
            if not np.isfinite(theta):
                fault = ("BAD_NUMBER", f"water content at psi={head:g} is not finite: {raw!r}")
            observations.append((head, theta))
        if not fault and not observations:
            fault = ("NO_OBSERVATIONS", "no water-content values on the row")
        if fault:
            removals.append((sid,) + fault)
        else:
            accepted.add(sid)
            kept.append((sid, values, observations))
    return kept, removals


RAW_TOKENS = ("", " 40 ", "20", "0", "-0", "1_0", "x", "nan", "-inf", "Infinity", "-5",
              "1e308", "0.3")
TEXTURES = (("40", "40", "20"), ("60", " 30 ", "10.5"), ("0", "-0", "100"), ("1_0", "45", "45"))


@st.composite
def raw_exports(draw):
    """Rows of the SCHEMA export: a valid row with optional values left out,
    up to two fields replaced by a raw token, sometimes cut short."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(st.sampled_from(("P1", "P2", "P3", "", " P1 "))),
                  *draw(st.sampled_from(TEXTURES))]
        fields += [draw(st.sampled_from(("", value))) for value in ("1.4", "1.0", "0.3", "0.15")]
        for _ in range(draw(st.integers(0, 2))):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(RAW_TOKENS))
        rows.append(fields[:draw(st.sampled_from((len(fields),) * 4 + (1, 4, 7)))])
    return rows, draw(st.sampled_from(("volumetric", "gravimetric")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw_exports())
@example(([["P1", "-0", "-0", "-0", "1.4", "1.0", "0.3"]], "volumetric"))  # sum +0, not -0
def test_ingest_matches_per_row_rules(export):
    rows, units = export
    schema = replace(SCHEMA, theta_units=units)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w") as fh:
            fh.write("".join(",".join(r) + "\n" for r in [HEADER] + rows))
        result = ingest(path, schema)
    rows = [r for r in rows if r != [""]]  # an empty row is a blank line, skipped
    kept, removals = reference_ingest(HEADER, rows, schema)
    assert result.n_rows == len(rows)
    assert [(e.sample_id, e.reason_code, e.detail) for e in result.removals] == removals
    assert all(e.stage == "ingest" for e in result.removals)
    assert len(result.samples) == len(kept)
    for s, (sid, values, observations) in zip(result.samples, kept):
        assert {f: getattr(s, f) for f in values} == {**values, "sample_id": sid}
        assert [(o.psi, o.theta) for o in s.observations] == observations
