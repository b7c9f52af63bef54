"""Coefficient table loading and the regression term grammar."""

import numpy as np
import pytest

from ptfens import PtfId, TableLookupError, VanGenuchtenParams, predict_batch
from ptfens import ptf as ptf_module
from ptfens.coeffs import (
    data_file_hashes,
    eval_regression,
    load_class_table,
    load_constants,
    load_regression,
)
from ptfens.texture import USDA_CLASSES


def test_class_table_shape_and_values():
    table = load_class_table("carsel_parrish_1988_classes.csv", "carsel")
    assert len(table.entries) == 12
    loam = table.entries["loam"]
    assert loam == VanGenuchtenParams(theta_r=0.078, theta_s=0.43,
                                      alpha=0.036, n=1.56)


def test_class_table_missing_class(monkeypatch):
    """A class a table has no row for fails the lookup, naming the PTF and class."""
    rows = ptf_module._class_rows(PtfId.CARSEL).copy()
    loam = USDA_CLASSES.index("loam")
    rows[loam] = np.nan
    monkeypatch.setattr(ptf_module, "_class_rows", lambda ptf: rows)
    with pytest.raises(TableLookupError) as err:
        predict_batch(PtfId.CARSEL, texture=[USDA_CLASSES.index("sand"), loam])
    assert "carsel" in str(err.value)
    assert "loam" in str(err.value)


def test_class_table_deterministic():
    table = load_class_table("cosby_1984_classes.csv", "cosby0")
    assert load_class_table("cosby_1984_classes.csv", "cosby0").entries["clay"] == \
        table.entries["clay"]


def test_regression_hand_values():
    spec = load_regression("cosby_1984_univariate.csv")
    out = eval_regression(spec, {"sand": np.array([40.0]),
                                 "clay": np.array([20.0])})
    assert out["b"][0] == pytest.approx(2.91 + 0.159 * 20.0, abs=1e-12)
    assert out["theta_s"][0] == pytest.approx(0.489 - 0.00126 * 40.0, abs=1e-12)
    assert out["psi_e"][0] == pytest.approx(10.0 ** (1.88 - 0.0131 * 40.0), rel=1e-12)


def test_term_grammar():
    spec = {
        "y": ("identity", (("1", 2.0), ("x", 3.0), ("x^2", 1.0),
                           ("ln(x)", 4.0), ("inv(x)", 5.0), ("x*z", 0.5))),
        "w": ("exp", (("x", 1.0),)),
    }
    x = np.array([2.0])
    z = np.array([10.0])
    out = eval_regression(spec, {"x": x, "z": z})
    expected = 2.0 + 3.0 * 2.0 + 4.0 + 4.0 * np.log(2.0) + 2.5 + 0.5 * 20.0
    assert out["y"][0] == pytest.approx(expected, rel=1e-13)
    assert out["w"][0] == pytest.approx(np.exp(2.0), rel=1e-13)


def test_one_plus_exp_transform():
    spec = {"n": ("one_plus_exp", (("1", 0.0),))}
    out = eval_regression(spec, {"x": np.array([1.0])})
    assert out["n"][0] == pytest.approx(2.0, rel=1e-13)  # 1 + e^0


def test_constants_file():
    c = load_constants("campbell_shiozawa_1992.csv")
    assert c["particle_density"] == 2.65
    assert c["d_clay_mm"] < c["d_silt_mm"] < c["d_sand_mm"]


def test_data_file_hashes_stable():
    first = data_file_hashes()
    assert len(first) >= 11
    assert all(len(v) == 64 for v in first.values())
    assert first == data_file_hashes()
