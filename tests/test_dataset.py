"""Ingestion, quality filtering, stratification and bootstrap resampling."""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptfens import ConfigError, DataError, InputError, SchemaError
from ptfens.dataset import (
    ALLOWED_HEADS,
    CANONICAL_COLUMNS,
    DEFAULT_OC_EDGES,
    SOIL_ORDERS,
    TEMPERATURE_REGIMES,
    RemovalEntry,
    SampleTable,
    Schema,
    _METADATA_FIELDS,
    _NUMERIC_FIELDS,
    _write_csv,
    bootstrap_split,
    canonical_schema,
    ingest,
    qa_filter,
    read_samples,
    read_schema,
    stratum_indices,
    stratum_key,
    write_removals,
    write_samples,
)
from ptfens.ptf import LAYER_LIMITS
from ptfens.texture import USDA_CLASSES, classify_texture_array
from helpers import Record, make_sample, observations, sample_table, spliced_text

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
    assert result.samples.ids == ("P1", "P2", "P3")
    assert observations(result.samples, 0) == [(330.0, 0.30), (15000.0, 0.15)]


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
    assert result.samples.ids == ("P1",)
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
    schema = Schema(
        columns=dict(SCHEMA.columns),
        theta_columns=dict(SCHEMA.theta_columns),
        theta_units="gravimetric",
    )
    path = write_csv(tmp_path / "d.csv", [
        HEADER,
        ("P1", 40, 40, 20, 1.5, 1.0, 0.20, 0.10),
        ("P2", 40, 40, 20, -1.4, 1.0, 0.20, 0.10),  # the density is judged by QA
        ("P3", 40, 40, 20, 1.5, 1.0, 0.20, -0.01),  # negative as written
    ])
    result = ingest(path, schema)
    assert observations(result.samples, 0) == \
        [(330.0, pytest.approx(0.20 * 1.5, abs=1e-15)),
         (15000.0, pytest.approx(0.10 * 1.5, abs=1e-15))]
    assert result.samples.ids == ("P1", "P2")
    assert [(e.sample_id, e.detail) for e in result.removals] == \
        [("P3", "water content at psi=15000 is negative: '-0.01'")]
    assert [(e.sample_id, e.reason_code) for e in qa_filter(result.samples).removals] == \
        [("P2", "BD_RANGE")]


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



SCHEMA_TEXT = """\
# mapping for the test export
sample_id = pedon
sand = sa
silt = si
clay = cl
bulk_density = db
organic_carbon = c_org
theta_330 = w330
theta_15000 = w15000
theta_units = volumetric
required_fields = sand,silt,clay
delimiter = ,
"""


@pytest.mark.parametrize("value, delimiter", [
    ("tab", "\t"), ("\\t", "\t"), (";", ";"),
    (";;", None), ("= tab", None), ("", None), ('"', None)])
def test_schema_delimiter_is_one_character(tmp_path, value, delimiter):
    path = tmp_path / "s.schema"
    path.write_text(SCHEMA_TEXT.replace("delimiter = ,", f"delimiter = {value}"))
    if delimiter is not None:
        assert read_schema(path).delimiter == delimiter
        return
    with pytest.raises(SchemaError) as err:
        read_schema(path)
    assert f"got {value!r}" in str(err.value)


@pytest.fixture(scope="module")
def schema_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema")
    write_csv(path / "raw.csv", [HEADER, ("P1", 40, 40, 20, 1.4, 1.0, 0.30, 0.15),
                                 ("P2", 10, 60, 30, 1.2, "", 0.35, 0.20)])
    return path


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text(SCHEMA_TEXT))
@example(SCHEMA_TEXT.replace("delimiter = ,", "delimiter = ;;"))
@example(SCHEMA_TEXT.replace("delimiter = ,", "delimiter== tab"))
def test_schema_token_splice_fuzz(schema_dir, text):
    """A spliced schema file ingests the export or raises a DataError;
    nothing else escapes."""
    path = schema_dir / "schema.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        ingest(schema_dir / "raw.csv", read_schema(path))
    except DataError:
        pass


RAW_EXPORT_TEXT = ("pedon\tsa\tsi\tcl\tdb\tc_org\tw330\tw15000\n"
                   "P1\t40\t40\t20\t1.4\t1.0\t0.30\t0.15\n"
                   "P2\t10\t60\t30\t1.2\t\t0.35\t0.20\n"
                   "P3\t 80 \t12\t8\t1.6\t150\t0.18\t\n")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text(RAW_EXPORT_TEXT))
def test_raw_export_token_splice_fuzz(schema_dir, text):
    """A spliced raw export ingests, each row kept or removed once, or raises
    a DataError; nothing else escapes."""
    path = schema_dir / "export.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        result = ingest(path, SCHEMA)
    except DataError:
        return
    assert len(result.samples) + len(result.removals) == result.n_rows


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
    result = qa_filter(sample_table(qa_fixture()))
    assert result.kept.ids == ("Q01", "Q04", "Q05", "Q06", "Q10", "Q11", "Q12")
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
    kept = qa_filter(sample_table(qa_fixture())).kept
    heads = {sid: [psi for psi, _ in observations(kept, i)] for i, sid in enumerate(kept.ids)}
    assert heads["Q04"] == [330.0, 15000.0]
    assert heads["Q05"] == [1000.0]
    # theta > 0.6 is allowed away from the two dry heads
    assert heads["Q06"] == [60.0, 330.0]
    assert heads["Q10"] == [60.0, 15000.0]


def test_qa_idempotent():
    once = qa_filter(sample_table(qa_fixture()))
    twice = qa_filter(once.kept)
    assert twice.removals == ()
    assert twice.kept == once.kept


def qa_reference(samples):
    """The quality rules one sample at a time, in their documented order:
    the kept samples and the removal log."""
    kept, removals = [], []
    for s in samples:
        if s.bulk_density is not None and not 0.5 <= s.bulk_density <= 2.0:
            removals.append(RemovalEntry(s.sample_id, "qa", "BD_RANGE",
                                         f"bulk density {s.bulk_density:g} outside [0.5, 2.0]"))
            continue
        surviving = []
        for psi, theta in s.observations:
            code = ("THETA_GT_ONE" if theta > 1.0 else "THETA_GT_0_6"
                    if psi in (330.0, 15000.0) and theta > 0.6 else None)
            if code:
                removals.append(RemovalEntry(s.sample_id, "qa", code,
                                             f"psi={psi:g} theta={theta:g}"))
            else:
                surviving.append((psi, theta))
        fc = next((theta for psi, theta in surviving if psi == 330.0), None)
        wp = next((theta for psi, theta in surviving if psi == 15000.0), None)
        if fc is not None and wp is not None and fc < wp:
            removals.append(RemovalEntry(s.sample_id, "qa", "FC_LT_WP",
                                         f"theta(330)={fc:g} < theta(15000)={wp:g}"))
        elif not surviving:
            removals.append(RemovalEntry(s.sample_id, "qa", "NO_OBSERVATIONS",
                                         "all observations removed"))
        else:
            kept.append(replace(s, observations=tuple(surviving)))
    return tuple(kept), tuple(removals)


@st.composite
def qa_samples(draw):
    """Samples around every rule's edges; heads may repeat within a sample."""
    edge = st.sampled_from([0.0, 0.15, 0.3, 0.6, 0.6000000000000001, 1.0, 1.2])
    samples = []
    for i in range(draw(st.integers(0, 10))):
        heads = draw(st.lists(st.sampled_from(ALLOWED_HEADS), max_size=7))
        thetas = draw(st.lists(edge | st.floats(0.0, 1.3), min_size=len(heads),
                               max_size=len(heads)))
        bd = draw(st.none() | st.sampled_from([0.4, 0.5, 1.4, 2.0, 2.3]) | st.floats(0.0, 3.0))
        samples.append(make_sample(f"S{i}", 40, 40, 20, bd=bd, obs=list(zip(heads, thetas))))
    return samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(qa_samples())
@example(qa_fixture())
def test_qa_filter_matches_per_row_rules(samples):
    kept, removals = qa_reference(samples)
    result = qa_filter(sample_table(samples))
    assert isinstance(result.kept, SampleTable) and result.kept == sample_table(kept)
    assert result.removals == removals


def test_stratify_texture():
    samples = [
        make_sample("A", 95, 3, 2, obs=[(330, 0.1)]),
        make_sample("B", 94, 4, 2, obs=[(330, 0.1)]),
        make_sample("C", 20, 20, 60, obs=[(330, 0.4)]),
    ]
    groups = stratum_indices(sample_table(samples), "texture")
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
            code = classify_texture_array([s.sand], [s.silt], [s.clay])[0]
            key = stratum_key("texture", USDA_CLASSES[code])
        except InputError:
            key = "unassigned"
        expected.setdefault(key, []).append(s.sample_id)
    groups = stratum_indices(sample_table(samples), "texture")
    assert {k: [samples[i].sample_id for i in v] for k, v in groups.items()} == expected
    assert groups["unassigned"].tolist() == [3, 7, 11, 19, 23]


def test_stratify_oc_bins():
    samples = [
        make_sample("A", 40, 40, 20, oc=0.05, obs=[(330, 0.3)]),
        make_sample("B", 40, 40, 20, oc=5.0, obs=[(330, 0.3)]),
    ]
    groups = stratum_indices(sample_table(samples), "oc")
    assert set(groups) == {"oc:0", "oc:6"}


def test_stratify_unassigned_bucket():
    samples = [
        make_sample("A", 40, 40, 20, order="mollisols", obs=[(330, 0.3)]),
        make_sample("B", 40, 40, 20, order=None, obs=[(330, 0.3)]),
    ]
    groups = stratum_indices(sample_table(samples), "order")
    assert groups["order:mollisols"].tolist() == [0]
    assert groups["unassigned"].tolist() == [1]
    assert list(groups) == ["order:mollisols", "unassigned"]  # first appearance
    assert stratum_indices(sample_table([]), "texture") == {}


def test_stratify_is_a_partition():
    rng = np.random.default_rng(31)
    samples = []
    for i in range(60):
        f = rng.dirichlet((2, 2, 2)) * 100
        samples.append(make_sample(f"S{i}", *f, oc=rng.uniform(0.01, 12.0),
                                   obs=[(330, 0.3)]))
    for scheme in ("texture", "oc"):
        groups = stratum_indices(sample_table(samples), scheme)
        assert sorted(np.concatenate(list(groups.values())).tolist()) == list(range(60))


def test_stratify_rejects_unknown_and_pressure():
    samples = sample_table([make_sample("A", 40, 40, 20, obs=[(330, 0.3)])])
    with pytest.raises(ConfigError):
        stratum_indices(samples, "depth")
    with pytest.raises(ConfigError):
        stratum_indices(samples, "pressure")  # handled by the stratified calibrator


def test_oc_bin_edges():
    values = (0.05, 0.1, 0.2, 5.0, 10.0, None)
    samples = sample_table([make_sample(f"S{i}", 40, 40, 20, oc=v, obs=[(330, 0.3)])
                            for i, v in enumerate(values)])
    groups = stratum_indices(samples, "oc")
    assert {k: v.tolist() for k, v in groups.items()} == {
        "oc:0": [0], "oc:1": [1, 2],  # right-closed bin edges
        "oc:6": [3], "oc:7": [4], "unassigned": [5]}
    assert len(DEFAULT_OC_EDGES) == 7  # eight bins
    assert stratum_key("oc", 3) == "oc:3"


@pytest.mark.parametrize("edges", [(2.0, 0.5, 1.0), (0.1, 0.1), (0.1, float("nan")),
                                   (float("inf"),), ((0.1, 0.2),), ("abc",)])
def test_oc_edges_must_be_finite_and_increasing(edges):
    samples = sample_table([make_sample("A", 40, 40, 20, oc=1.0, obs=[(330, 0.3)])])
    with pytest.raises(ConfigError) as err:
        stratum_indices(samples, "oc", oc_edges=edges)
    assert "finite and strictly increasing" in str(err.value)
    assert stratum_indices(samples, "texture", oc_edges=edges)  # other schemes ignore them
    assert list(stratum_indices(samples, "oc", oc_edges=(0.5, 2.0))) == ["oc:1"]


def test_bootstrap_single_sample():
    samples = sample_table([make_sample("only", 40, 40, 20, obs=[(330, 0.3)])])
    (rep,) = bootstrap_split(samples, 1, seed=0)
    assert rep.calibration_rows == (0,)
    assert rep.validation_rows == ()


def test_bootstrap_deterministic_and_sized():
    rng = np.random.default_rng(32)
    samples = sample_table([make_sample(f"S{i}", 40, 40, 20, obs=[(330, 0.3)])
                            for i in range(50)])
    a = bootstrap_split(samples, 10, seed=7)
    b = bootstrap_split(samples, 10, seed=7)
    assert a == b
    c = bootstrap_split(samples, 10, seed=8)
    assert a != c
    for rep in a:
        assert len(rep.calibration_rows) == 50  # multiset size = source size
        assert set(rep.calibration_rows) | set(rep.validation_rows) == set(range(50))
        assert set(rep.calibration_rows) & set(rep.validation_rows) == set()
        assert list(rep.validation_rows) == sorted(rep.validation_rows)


def test_bootstrap_oob_fraction():
    samples = sample_table([make_sample(f"S{i}", 40, 40, 20, obs=[(330, 0.3)])
                            for i in range(400)])
    reps = bootstrap_split(samples, 40, seed=3)
    oob = np.mean([len(r.validation_rows) / 400 for r in reps])
    assert abs(oob - np.exp(-1.0)) < 0.03


def test_bootstrap_errors():
    with pytest.raises(InputError):
        bootstrap_split(sample_table([]), 5, seed=0)
    dup = sample_table([make_sample("X", 40, 40, 20, obs=[(330, 0.3)]),
                        make_sample("X", 30, 50, 20, obs=[(330, 0.3)])])
    with pytest.raises(InputError):
        bootstrap_split(dup, 5, seed=0)
    ok = sample_table([make_sample("X", 40, 40, 20, obs=[(330, 0.3)])])
    with pytest.raises(InputError):
        bootstrap_split(ok, 0, seed=0)


def test_sample_file_round_trip(tmp_path):
    samples = qa_filter(sample_table(qa_fixture())).kept
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    assert read_samples(path) == samples
    assert canonical_schema().theta_columns  # readable by the same schema


def test_removal_log_format(tmp_path):
    result = qa_filter(sample_table(qa_fixture()))
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
    (("P2", 40, 40, 20, 1.4, 1.0, 0.30, -0.05),
     "water content at psi=15000 is negative: '-0.05'"),
    (("P2", 40, 40, 20, 1.4, 1.0, -0.2, ""), "water content at psi=330 is negative: '-0.2'"),
    (("P2", 40, 40, 20, 1.4, 1.0, "-inf", -1), "water content at psi=330 is not finite: '-inf'"),
    (("P2", 40, 40, 20, 1.4, -5, 0.30, 0.15), "field 'organic_carbon' is outside [0, 100]: '-5'"),
    (("P2", 40, 40, 20, 1.4, 150, 0.30, 0.15),
     "field 'organic_carbon' is outside [0, 100]: '150'"),
    (("P2", 40, 40, 20, 1.4, 100.5, "x", 0.15),
     "field 'organic_carbon' is outside [0, 100]: '100.5'"),
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
    write_samples(path, sample_table([good]))
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
    samples = sample_table([make_sample(f"S{i}", 40, 40, 20, obs=[(330, 0.3)])
                            for i in range(5)])
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
    assert result.samples.ids == ("P1", "r4")  # blank lines do not count
    assert result.samples.obs_psi.tolist() == [330.0, 330.0, 15000.0]
    assert result.samples.obs_owner.tolist() == [0, 1, 1]
    (removal,) = result.removals
    assert (removal.sample_id, removal.reason_code, removal.line) == \
        ("P2", "MISSING_FIELD", 4)
    assert removal.detail == "missing required field 'bulk_density'"


SAMPLES_TEXT = """\
sample_id,latitude,longitude,sand,silt,clay,bulk_density,organic_carbon,soil_order,\
temperature_regime,theta_60,theta_100,theta_330,theta_1000,theta_2000,theta_15000
P1,18.3,-75.2,7.5,71.3,21.2,1.04,0.46,alfisols,,,0.38,0.31,0.22,,0.16
P2,,,40.0,40.0,20.0,,,,mesic,0.45,,0.3,,,0.15
"P3,a",46.5,135.8,14.2,33.3,52.5,1.2,3.95,,,,,0.37,,0.3,0.24
"""


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text(SAMPLES_TEXT))
def test_samples_token_splice_fuzz(schema_dir, text):
    """A spliced canonical sample file reads or raises a DataError; nothing
    else escapes."""
    path = schema_dir / "samples.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        read_samples(path)
    except DataError:
        pass


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
    table = sample_table(samples)
    assert len(table) == 3 and table.ids == ("A", "B", "C")
    assert np.isnan(table.bulk_density[0]) and table.organic_carbon[0] == 2.0
    assert np.isnan(table.organic_carbon[1]) and table.soil_order == ("mollisols", None, None)
    assert table.obs_owner.tolist() == [0, 0, 2, 2, 2]
    assert table.obs_offsets.tolist() == [0, 2, 2, 5]
    assert table.obs_psi.tolist() == [330.0, 15000.0, 60.0, 100.0, 1000.0]
    assert table.obs_theta.tolist() == [0.30, 0.15, 0.40, 0.35, 0.2]
    with pytest.raises(ValueError):
        table.sand[0] = 1.0  # columns are read-only
    assert table == sample_table(samples) and table != sample_table(samples[:2])


def test_sample_table_take_and_obs_index():
    samples = table_fixture()
    table = sample_table(samples)
    assert table.obs_index([2, 0, 2]).tolist() == [2, 3, 4, 0, 1, 2, 3, 4]
    assert table.obs_index([]).tolist() == []
    sub = table.take([2, 0])
    assert sub == sample_table([samples[2], samples[0]])
    assert sub.obs_owner.tolist() == [0, 0, 0, 1, 1]
    assert table.take([]) == sample_table([]) and len(table.take([])) == 0


def test_sample_table_rejects_inconsistent_columns():
    table = sample_table(table_fixture())
    columns = {f: getattr(table, f) for f in (
        "ids", "latitude", "longitude", "sand", "silt", "clay", "bulk_density",
        "organic_carbon", "soil_order", "temperature_regime", "obs_owner", "obs_psi",
        "obs_theta")}
    assert SampleTable(**columns) == table
    for bad in ({"sand": table.sand[:2]}, {"obs_owner": [0, 2, 0, 2, 2]},
                {"obs_owner": [0, 0, 2, 2, 3]}, {"obs_theta": [0.3, np.nan, 0.4, 0.35, 0.2]}):
        with pytest.raises(InputError):
            SampleTable(**{**columns, **bad})


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
        thetas = draw(st.lists(st.floats(0.0, 2.0), min_size=len(heads),
                               max_size=len(heads)))
        samples.append(Record(
            sample_id=sid, sand=sand, silt=silt, clay=100.0 - sand - silt,
            bulk_density=draw(_optional_float(0.1, 3.0)),
            organic_carbon=draw(_optional_float(0.0, 60.0)),
            latitude=draw(_optional_float(-90.0, 90.0)),
            longitude=draw(_optional_float(-180.0, 180.0)),
            soil_order=draw(st.sampled_from((None,) + SOIL_ORDERS)),
            temperature_regime=draw(st.sampled_from((None,) + TEMPERATURE_REGIMES)),
            observations=tuple(sorted(zip(heads, thetas)))))
    return samples


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(canonical_samples())
def test_sample_file_round_trip_property(samples):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        write_samples(first, sample_table(samples))
        table = read_samples(first)
        write_samples(second, table)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert table == sample_table(samples)


def reference_write_samples(path, samples):
    """The canonical writer one Record at a time: repr of a float, empty for
    None or NaN, the last water content of a repeated head, heads outside
    ALLOWED_HEADS left out."""
    def fmt(value):
        return "" if value is None or value != value else \
            repr(value) if isinstance(value, float) else str(value)

    def row(s):
        by_head = dict(s.observations)
        return ([fmt(getattr(s, f)) for f in _METADATA_FIELDS]
                + [fmt(by_head.get(h)) for h in ALLOWED_HEADS])

    _write_csv(path, CANONICAL_COLUMNS, map(row, samples))


def _field():
    return st.none() | st.just(float("nan")) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def writable_samples(draw):
    """Any samples write_samples takes: ids and descriptors that need CSV
    quoting, missing and NaN fields, no observations, repeated heads and
    heads outside ALLOWED_HEADS, in any order."""
    text = st.text(st.sampled_from('ab1,"\n\r é'), max_size=5)
    heads = st.sampled_from(ALLOWED_HEADS + (0.0, 500.0, 1e5))
    samples = []
    for _ in range(draw(st.integers(0, 6))):
        observations = draw(st.lists(st.tuples(heads, st.floats(-2.0, 2.0)), max_size=8))
        samples.append(Record(
            draw(text), draw(_field()), draw(_field()), draw(_field()),
            bulk_density=draw(_field()), organic_carbon=draw(_field()),
            latitude=draw(_field()), longitude=draw(_field()),
            soil_order=draw(st.none() | text), temperature_regime=draw(st.none() | text),
            observations=tuple(observations)))
    return samples


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(writable_samples())
@example([make_sample("a\rb", 40, 40, 20, obs=[(330, 0.3), (100, 0.4), (330, 0.25),
                                                (5.0, 0.5), (330, 0.2)]),
          make_sample('x,"y', 40, 40, 20, bd=None, oc=None, obs=[])])
def test_write_samples_matches_per_row_writer(samples):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("table.csv", "rows.csv")]
        write_samples(paths[0], sample_table(samples))
        reference_write_samples(paths[1], samples)
        written = []
        for path in paths:
            with open(path, "rb") as fh:
                written.append(fh.read())
    assert written[0] == written[1]


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
                elif name == "organic_carbon" and not 0.0 <= v <= LAYER_LIMITS[name]:
                    fault = ("BAD_NUMBER",
                             f"field {name!r} is outside [0, {LAYER_LIMITS[name]:g}]: {raw!r}")
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
            elif float(raw) < 0.0:
                fault = ("BAD_NUMBER", f"water content at psi={head:g} is negative: {raw!r}")
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
    table = result.samples
    assert table.ids == tuple(sid for sid, _, _ in kept)
    for f in _NUMERIC_FIELDS:
        want = [np.nan if values[f] is None else values[f] for _, values, _ in kept]
        assert np.array_equal(getattr(table, f), want, equal_nan=True)
    for f in ("soil_order", "temperature_regime"):
        assert getattr(table, f) == tuple(values[f] for _, values, _ in kept)
    assert [observations(table, i) for i in range(len(table))] == [o for _, _, o in kept]
