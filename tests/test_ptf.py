"""The thirteen retention-parameter predictors."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptfens import (
    ALL_PTFS,
    AnnSpec,
    DataError,
    FAMILY,
    GROUPS,
    InputError,
    PtfId,
    USDA_CLASSES,
    classify_texture_array,
    clear_ann_registry,
    predict,
    predict_batch,
    profile_arrays,
    register_ann,
    required_inputs,
    theta_at,
    write_ann_file,
    write_samples,
)
from ptfens import _kernels, ptf as ptf_module
from ptfens.coeffs import load_class_table
from ptfens.ptf import load_rosetta_weights, member_thetas, params_from_row, uses_class_table
from ptfens.retention import FAMILY_CODES
from helpers import constant_net, synthetic_population

LOAM = dict(sand=40.0, silt=40.0, clay=20.0, bulk_density=1.35, organic_carbon=1.2)

CLASS_TABLE_FILES = {
    PtfId.COSBY0: "cosby_1984_classes.csv",
    PtfId.CARSEL: "carsel_parrish_1988_classes.csv",
    PtfId.CLAPP: "clapp_hornberger_1978_classes.csv",
    PtfId.ROSETTA_H1W: "rosetta_h1w_classes.csv",
}


def class_params(ptf, texture_class):
    """The published class-average row, read straight from its table."""
    return load_class_table(CLASS_TABLE_FILES[ptf], ptf.value).entries[texture_class]


# PTFs usable without an externally trained network
TABLE_AND_REGRESSION = tuple(p for p in ALL_PTFS
                             if p not in (PtfId.ROSETTA_H2W, PtfId.ROSETTA_H3W))


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_ann_registry()
    yield
    clear_ann_registry()


def test_group_partition():
    sizes = tuple(len(GROUPS[g]) for g in "ABCD")
    assert sizes == (4, 3, 3, 3)
    pooled = [m for g in "ABCD" for m in GROUPS[g]]
    assert len(pooled) == 13
    assert set(pooled) == set(ALL_PTFS)


# each member as described before the member table: group, curve family,
# number of leading predictor fields needed, and whether it reads a class
# table without and with a network registered in every slot that takes one
MEMBER_FACTS = {
    "cosby0": ("A", "cmp", 3, True, True),
    "carsel": ("A", "vg", 3, True, True),
    "clapp": ("A", "cmp", 3, True, True),
    "rosetta_h1w": ("A", "vg", 3, True, False),
    "cosby1": ("B", "cmp", 3, False, False),
    "cosby2": ("B", "cmp", 3, False, False),
    "rosetta_h2w": ("B", "vg", 3, False, False),
    "rawls": ("C", "bc", 4, False, False),
    "campbell": ("C", "cmp", 4, False, False),
    "rosetta_h3w": ("C", "vg", 4, False, False),
    "wosten": ("D", "vg", 5, False, False),
    "weynants": ("D", "vg", 5, False, False),
    "vereecken": ("D", "vg", 5, False, False),
}
NETWORK_SLOTS = ("rosetta_h1w", "rosetta_h2w", "rosetta_h3w")


def test_member_table_keeps_every_members_facts():
    assert GROUPS == {g: tuple(PtfId(m) for m, f in MEMBER_FACTS.items() if f[0] == g)
                      for g in "ABCD"}
    assert list(GROUPS) == list("ABCD")
    assert FAMILY == {PtfId(m): f[1] for m, f in MEMBER_FACTS.items()}
    fields = ("sand", "silt", "clay", "bulk_density", "organic_carbon")
    net = constant_net(("sand", "silt", "clay"), (0.05, 0.45, 0.02, 1.4))
    for networks in (False, True):
        for m in NETWORK_SLOTS if networks else ():
            register_ann(m, net)
        for m, (group, _, k, table, table_with_net) in MEMBER_FACTS.items():
            assert PtfId(m) in GROUPS[group]
            assert required_inputs(m) == required_inputs(PtfId(m)) == fields[:k]
            assert uses_class_table(m) == (table_with_net if networks else table), m
    for m in set(MEMBER_FACTS) - set(NETWORK_SLOTS):
        with pytest.raises(InputError, match="does not accept a trained network"):
            register_ann(m, net)
    for lookup in (required_inputs, uses_class_table):
        with pytest.raises(ValueError):
            lookup("nope")


README = Path(__file__).resolve().parents[1] / "README.md"
README_TIERS = {"texture class": "A", "sand, silt, clay": "B", "+ bulk density": "C",
                "+ organic carbon": "D"}
README_FAMILIES = {"Campbell": "cmp", "van Genuchten": "vg", "Brooks\u2013Corey": "bc"}


def test_readme_predictor_table_matches_the_members():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## The thirteen predictors\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \| ([^|]+?) \|$", section, flags=re.M)
    assert [PtfId(ptf) for ptf, _, _ in rows] == list(ALL_PTFS)
    for ptf, inputs, family in rows:
        assert PtfId(ptf) in GROUPS[README_TIERS[inputs]], ptf
        assert FAMILY[PtfId(ptf)] == README_FAMILIES[family], ptf


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    """The README's library quick start runs as written, on a samples.csv
    where it reads one."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    (tmp_path / "work").mkdir()
    write_samples(tmp_path / "work" / "samples.csv",
                  synthetic_population(np.random.default_rng(33), 12, PtfId.CARSEL, noise=0.01))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["theta_fc"] == theta_at(scope["params"], 330.0)
    assert scope["curve"].shape == (50,) and len(scope["batch"]) == 2
    assert scope["grid"].shape == (12, 2) and scope["theta"].shape == (1, 1)


def test_required_inputs_by_group():
    assert set(required_inputs(PtfId.COSBY0)) == {"sand", "silt", "clay"}
    assert set(required_inputs(PtfId.COSBY1)) == {"sand", "silt", "clay"}
    assert set(required_inputs(PtfId.RAWLS)) == {"sand", "silt", "clay",
                                                 "bulk_density"}
    assert set(required_inputs(PtfId.WEYNANTS)) == {"sand", "silt", "clay",
                                                    "bulk_density",
                                                    "organic_carbon"}


def test_family_consistency():
    for ptf in TABLE_AND_REGRESSION:
        params = predict(ptf, **LOAM)
        assert params.family == FAMILY[ptf], ptf


def test_lookup_matches_fixture_row():
    params = predict(PtfId.CARSEL, texture_class="loam")
    assert (params.theta_r, params.theta_s, params.alpha, params.n) == \
        (0.078, 0.43, 0.036, 1.56)
    assert predict(PtfId.CARSEL, texture_class="loam") == params  # deterministic


def test_lookup_unknown_class():
    with pytest.raises(InputError) as err:
        predict(PtfId.CLAPP, texture_class="muck")
    assert "muck" in str(err.value)


def test_class_ptf_reduces_to_lookup():
    cls = USDA_CLASSES[classify_texture_array([40.0], [40.0], [20.0])[0]]
    for ptf in (PtfId.COSBY0, PtfId.CARSEL, PtfId.CLAPP, PtfId.ROSETTA_H1W):
        assert predict(ptf, **LOAM) == class_params(ptf, cls)


def test_explicit_texture_class_bypasses_fractions():
    assert predict(PtfId.CARSEL, texture_class="loam") == class_params(PtfId.CARSEL, "loam")


def test_cosby_univariate_hand_values():
    params = predict(PtfId.COSBY1, **LOAM)
    assert params.b == pytest.approx(2.91 + 0.159 * 20.0, rel=1e-12)
    assert params.theta_s == pytest.approx(0.489 - 0.00126 * 40.0, rel=1e-12)
    assert params.psi_e == pytest.approx(10.0 ** (1.88 - 0.0131 * 40.0), rel=1e-12)


def test_cosby_bivariate_hand_values():
    params = predict(PtfId.COSBY2, **LOAM)
    assert params.b == pytest.approx(3.10 + 0.157 * 20.0 - 0.003 * 40.0, rel=1e-12)
    assert params.theta_s == pytest.approx(
        0.505 - 0.00142 * 40.0 - 0.00037 * 20.0, rel=1e-12)
    assert params.psi_e == pytest.approx(
        10.0 ** (1.54 - 0.0095 * 40.0 + 0.0063 * 40.0), rel=1e-12)


def test_rawls_saturation_is_porosity():
    params = predict(PtfId.RAWLS, **LOAM)
    assert params.theta_s == pytest.approx(1.0 - 1.35 / 2.65, rel=1e-12)
    assert params.family == "bc"
    assert 0.0 <= params.theta_r < params.theta_s


def test_campbell_independent_recomputation():
    from ptfens.coeffs import load_constants
    c = load_constants("campbell_shiozawa_1992.csv")
    f = np.array([40.0, 40.0, 20.0]) / 100.0
    ln_d = np.log([c["d_sand_mm"], c["d_silt_mm"], c["d_clay_mm"]])
    ln_dg = float(f @ ln_d)
    sigma_g = np.exp(np.sqrt(float(f @ ln_d**2) - ln_dg**2))
    b = np.exp(ln_dg) ** -0.5 + c["b_sigma_coeff"] * sigma_g
    psi_e = (c["air_entry_coeff_kpa"] * np.exp(ln_dg) ** -0.5
             * (1.35 / c["reference_bd"]) ** (c["bd_exponent_coeff"] * b)
             * c["kpa_to_cm"])
    params = predict(PtfId.CAMPBELL, **LOAM)
    assert params.theta_s == pytest.approx(1.0 - 1.35 / 2.65, rel=1e-12)
    assert params.b == pytest.approx(b, rel=1e-12)
    assert params.psi_e == pytest.approx(psi_e, rel=1e-12)


def test_wosten_topsoil_flag_changes_output():
    top = predict(PtfId.WOSTEN, **LOAM)
    sub = predict(PtfId.WOSTEN, **LOAM, topsoil=False)
    assert top != sub
    assert top.n > 1.0 and sub.n > 1.0
    assert top.alpha > 0.0 and sub.alpha > 0.0


def test_out_of_domain_shape_is_clamped_and_flagged():
    params = predict(PtfId.VEREECKEN, sand=10.0, silt=50.0, clay=40.0,
                     bulk_density=1.4, organic_carbon=1.0)
    assert "n_clamped" in params.flags
    assert params.n == pytest.approx(1.0 + 1e-6)
    # curve still evaluates inside its bounds
    theta = theta_at(params, 330.0)
    assert params.theta_r <= theta <= params.theta_s


def test_floored_inputs_flagged():
    rec = dict(sand=45.0, silt=35.0, clay=20.0, bulk_density=1.4)
    params = predict(PtfId.WEYNANTS, **rec, organic_carbon=0.0)
    assert "input_floored" in params.flags
    zero = predict(PtfId.WEYNANTS, **rec, organic_carbon=0.0)
    floor = predict(PtfId.WEYNANTS, **rec, organic_carbon=0.01)
    assert zero.alpha == floor.alpha  # 0 is lifted to the 0.01 floor


def test_missing_predictor_named():
    with pytest.raises(InputError) as err:
        predict(PtfId.WOSTEN, sand=40.0, silt=40.0, clay=20.0, bulk_density=1.35)
    assert "organic_carbon" in str(err.value)
    with pytest.raises(InputError) as err:
        predict(PtfId.RAWLS, sand=40.0, silt=40.0, clay=20.0)
    assert "bulk_density" in str(err.value)


def test_texture_sum_violation_rejected():
    with pytest.raises(InputError):  # class lookup classifies, which validates
        predict(PtfId.COSBY0, sand=40.0, silt=40.0, clay=30.0)


def test_network_backed_members_need_weights():
    for ptf in (PtfId.ROSETTA_H2W, PtfId.ROSETTA_H3W):
        with pytest.raises(DataError) as err:
            predict(ptf, **LOAM)
        assert "network" in str(err.value)


def test_registered_network_enables_prediction():
    net = constant_net(("sand", "silt", "clay", "bd"), (0.05, 0.45, 0.02, 1.4))
    register_ann(PtfId.ROSETTA_H3W, net)
    params = predict(PtfId.ROSETTA_H3W, **LOAM)
    assert (params.theta_r, params.theta_s) == (0.05, 0.45)
    assert params.family == "vg"


def test_registered_network_overrides_class_table():
    table_params = predict(PtfId.ROSETTA_H1W, **LOAM)
    net = constant_net(("sand", "silt", "clay"), (0.06, 0.48, 0.015, 1.7))
    register_ann(PtfId.ROSETTA_H1W, net)
    net_params = predict(PtfId.ROSETTA_H1W, **LOAM)
    assert net_params != table_params
    assert net_params.theta_s == 0.48
    clear_ann_registry()
    assert predict(PtfId.ROSETTA_H1W, **LOAM) == table_params


def test_register_rejects_wrong_slot_and_outputs():
    net = constant_net(("sand", "silt", "clay"), (0.05, 0.45, 0.02, 1.4))
    with pytest.raises(InputError):
        register_ann(PtfId.COSBY0, net)
    bad_outputs = AnnSpec(
        layer_sizes=(3, 1, 2),
        weights=(np.zeros((1, 3)), np.zeros((2, 1))),
        biases=(np.zeros(1), np.array([0.1, 0.4])),
        hidden_activation="sigmoid",
        input_names=("sand", "silt", "clay"),
        input_offset=np.zeros(3),
        input_scale=np.full(3, 100.0),
        output_names=("theta_r", "theta_s"),
        output_offset=np.zeros(2),
        output_scale=np.ones(2),
        output_transforms=("none", "none"),
    )
    with pytest.raises(DataError):
        register_ann(PtfId.ROSETTA_H2W, bad_outputs)


def test_load_rosetta_weights_from_directory(tmp_path):
    write_ann_file(tmp_path / "rosetta_h2w.ann",
                   constant_net(("sand", "silt", "clay"), (0.04, 0.42, 0.03, 1.5)))
    loaded = load_rosetta_weights(tmp_path)
    assert loaded == [PtfId.ROSETTA_H2W]
    params = predict(PtfId.ROSETTA_H2W, **LOAM)
    assert params.theta_s == pytest.approx(0.42)
    with pytest.raises(DataError):
        load_rosetta_weights(tmp_path / "nothing_here")


def test_predict_and_theta_at_equal_member_thetas():
    """A profile's curve from predict and theta_at has the bytes that the
    commands' path, member_thetas on its one-row arrays, gives."""
    heads = (0.0, 330.0, 15000.0)
    thetas = member_thetas(TABLE_AND_REGRESSION, heads, **profile_arrays(**LOAM))
    for k, ptf in enumerate(TABLE_AND_REGRESSION):
        params = predict(ptf, **LOAM)
        for t, psi in enumerate(heads):
            assert theta_at(params, psi) == thetas[k, t, 0], (ptf, psi)


def test_theta_at_saturation_is_theta_s():
    for ptf in TABLE_AND_REGRESSION:
        params = predict(ptf, **LOAM)
        assert theta_at(params, 0.0) == params.theta_s


def test_clapp_composed_hand_value():
    params = class_params(PtfId.CLAPP, "loam")
    psi = params.psi_e * 16.0
    expected = params.theta_s * (params.psi_e / psi) ** (1.0 / params.b)
    params = predict(PtfId.CLAPP, texture_class="loam")
    assert theta_at(params, psi) == pytest.approx(expected, rel=1e-12)


def test_carsel_composed_hand_value():
    p = class_params(PtfId.CARSEL, "loam")
    m = 1.0 - 1.0 / p.n
    expected = p.theta_r + (p.theta_s - p.theta_r) * (
        1.0 + (p.alpha * 330.0) ** p.n) ** -m
    params = predict(PtfId.CARSEL, texture_class="loam")
    assert theta_at(params, 330.0) == pytest.approx(expected, rel=1e-12)


def test_batch_matches_scalar_predictions():
    rng = np.random.default_rng(21)
    fractions = rng.dirichlet((2.0, 2.0, 2.0), size=40) * 100.0
    sand, silt, clay = fractions[:, 0], fractions[:, 1], fractions[:, 2]
    bd = rng.uniform(0.9, 1.8, size=40)
    oc = rng.uniform(0.1, 6.0, size=40)
    for ptf in TABLE_AND_REGRESSION:
        batch = predict_batch(ptf, sand=sand, silt=silt, clay=clay,
                              bulk_density=bd, organic_carbon=oc)
        assert len(batch) == 40
        for i in range(0, 40, 7):
            params = predict(ptf, sand=sand[i], silt=silt[i], clay=clay[i],
                             bulk_density=bd[i], organic_carbon=oc[i])
            assert np.allclose(batch.rows[i], params.packed(), rtol=1e-13, atol=0)


def test_predict_is_pure():
    for ptf in TABLE_AND_REGRESSION:
        assert predict(ptf, **LOAM) == predict(ptf, **LOAM)


# raw member outputs: any finite value, the domain's edges and the columns'
# floors included, negative and huge ones too
RAW_VALUE = st.one_of(st.floats(-1e300, 1e300),
                      st.sampled_from((0.0, -0.0, 1e-8, 1e-6, 1.0, 1.0 + 1e-6, 1e300)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(FAMILY_CODES)), data=st.data())
def test_clamped_rows_lie_in_the_domain(family, data):
    """_clamp's rows are rows the family's dataclass accepts, and each
    <column>_clamped flag marks exactly the entries _clamp moved."""
    columns = _kernels.COLUMNS[FAMILY_CODES[family]]
    n = data.draw(st.integers(1, 6))
    raw = {c: np.array(data.draw(st.lists(RAW_VALUE, min_size=n, max_size=n)))
           for c in columns}
    flags = {}
    rows = ptf_module._clamp(family, flags, **raw)
    for row in rows:
        params_from_row(family, row)  # raises ParameterError outside the domain
    assert sorted(flags) == sorted(f"{c}_clamped" for c in columns)
    for j, c in enumerate(columns):
        assert flags[f"{c}_clamped"].tolist() == (rows[:, j] != raw[c]).tolist()
    assert not rows[:, len(columns):].any()
