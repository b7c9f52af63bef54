"""Water retention curve evaluators: fixed values, invariants, dispatch."""

import dataclasses
from importlib import resources

import numpy as np
import pytest

from ptfens import (
    BrooksCoreyParams,
    CampbellParams,
    InputError,
    ParameterError,
    VanGenuchtenParams,
    theta_at,
)
from ptfens import _kernels
from ptfens.retention import (FAMILY_CLASSES, FAMILY_CODES, FIELD_CAPACITY_HEAD,
                              SATURATION_HEAD, WILTING_POINT_HEAD)

VG = VanGenuchtenParams(theta_r=0.1, theta_s=0.5, alpha=0.01, n=2.0)
BC = BrooksCoreyParams(theta_r=0.0, theta_s=0.4, psi_b=10.0, lambda_=0.5)
CMP = CampbellParams(theta_s=0.45, psi_e=5.0, b=4.0)


def test_vg_known_values():
    assert theta_at(VG, 0.0) == 0.5
    # (alpha*psi)^n = 1 at psi=100, so theta = 0.1 + 0.4 * 2^-0.5
    assert theta_at(VG, 100.0) == pytest.approx(0.1 + 0.4 / np.sqrt(2.0), abs=1e-12)
    assert theta_at(VG, 1e9) == pytest.approx(0.1, abs=1e-4)


def test_bc_known_values():
    assert theta_at(BC, 5.0) == 0.4
    assert theta_at(BC, 40.0) == pytest.approx(0.4 * (10.0 / 40.0) ** 0.5, abs=1e-12)
    assert theta_at(BC, 40.0) == pytest.approx(0.2, abs=1e-12)
    # continuous right at the air entry, nonzero residual too
    p = BrooksCoreyParams(theta_r=0.05, theta_s=0.4, psi_b=10.0, lambda_=0.5)
    assert theta_at(p, 10.0) == pytest.approx(0.4, abs=1e-12)


def test_campbell_known_values():
    assert theta_at(CMP, 5.0) == 0.45
    assert theta_at(CMP, 0.0) == 0.45
    assert theta_at(CMP, 80.0) == pytest.approx(0.225, abs=1e-12)


def test_theta_at_dispatch():
    expected = {"vg": 0.1 + 0.4 / np.sqrt(2.0), "bc": 0.2, "cmp": 0.225}
    for p, psi in ((VG, 100.0), (BC, 40.0), (CMP, 80.0)):
        assert theta_at(p, psi) == pytest.approx(expected[p.family], abs=1e-12)
        assert isinstance(theta_at(p, psi), float)
    with pytest.raises(ParameterError):
        theta_at((0.1, 0.5, 0.01, 2.0), 100.0)


def test_derived_points_vg():
    """Water content at saturation, field capacity and wilting point."""
    sat, fc, wp = theta_at(VG, [SATURATION_HEAD, FIELD_CAPACITY_HEAD, WILTING_POINT_HEAD])
    assert sat == 0.5
    expected_fc = 0.1 + 0.4 * (1.0 + 3.3 ** 2) ** -0.5
    assert fc == pytest.approx(expected_fc, abs=1e-12)
    assert fc == pytest.approx(0.2160, abs=1e-4)
    assert sat >= fc >= wp


def test_derived_points_first_is_saturation():
    for p in (VG, BC, CMP):
        assert theta_at(p, SATURATION_HEAD) == p.theta_s
    assert theta_at(CMP, SATURATION_HEAD) == 0.45


def test_psi_array_matches_scalars():
    psi = np.array([0.0, 1.0, 50.0, 330.0, 15000.0])
    for p in (VG, BC, CMP):
        arr = theta_at(p, psi)
        assert arr.shape == psi.shape
        for i, x in enumerate(psi):
            assert arr[i] == theta_at(p, float(x))


def test_negative_or_nonfinite_psi_rejected():
    for p in (VG, BC, CMP):
        with pytest.raises(InputError):
            theta_at(p, -1.0)
        with pytest.raises(InputError):
            theta_at(p, np.nan)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        VanGenuchtenParams(theta_r=0.5, theta_s=0.4, alpha=0.01, n=2.0)
    with pytest.raises(ParameterError):
        VanGenuchtenParams(theta_r=0.1, theta_s=0.5, alpha=0.0, n=2.0)
    with pytest.raises(ParameterError):
        VanGenuchtenParams(theta_r=0.1, theta_s=0.5, alpha=0.01, n=1.0)
    with pytest.raises(ParameterError):
        BrooksCoreyParams(theta_r=0.1, theta_s=0.5, psi_b=-1.0, lambda_=0.5)
    with pytest.raises(ParameterError):
        BrooksCoreyParams(theta_r=0.1, theta_s=0.5, psi_b=1.0, lambda_=0.0)
    with pytest.raises(ParameterError):
        CampbellParams(theta_s=0.0, psi_e=5.0, b=4.0)
    with pytest.raises(ParameterError):
        CampbellParams(theta_s=0.45, psi_e=5.0, b=-4.0)


def _random_params(rng, family, n):
    out = []
    for _ in range(n):
        ts = rng.uniform(0.2, 1.0)
        tr = rng.uniform(0.0, 0.8) * ts
        if family == "vg":
            out.append(VanGenuchtenParams(tr, ts, rng.uniform(1e-4, 0.5),
                                          rng.uniform(1.01, 5.0)))
        elif family == "bc":
            out.append(BrooksCoreyParams(tr, ts, rng.uniform(0.1, 300.0),
                                         rng.uniform(0.05, 3.0)))
        else:
            out.append(CampbellParams(ts, rng.uniform(0.1, 300.0),
                                      rng.uniform(0.5, 20.0)))
    return out


def test_randomized_invariants():
    rng = np.random.default_rng(11)
    psi = np.sort(rng.uniform(0.0, 2e4, size=40))
    psi[0] = 0.0
    for family in ("vg", "bc", "cmp"):
        for p in _random_params(rng, family, 300):
            theta = theta_at(p, psi)
            assert theta[0] == p.theta_s
            assert np.all(np.diff(theta) <= 1e-15)  # nonincreasing
            lower = getattr(p, "theta_r", 0.0)
            assert np.all(theta <= p.theta_s + 1e-15)
            assert np.all(theta >= lower - 1e-15)


def test_air_entry_continuity():
    rng = np.random.default_rng(12)
    eps = 1e-6
    for p in _random_params(rng, "bc", 200):
        lo = theta_at(p, p.psi_b * (1.0 - eps))
        hi = theta_at(p, p.psi_b * (1.0 + eps))
        assert abs(lo - hi) < 1e-5
    for p in _random_params(rng, "cmp", 200):
        lo = theta_at(p, p.psi_e * (1.0 - eps))
        hi = theta_at(p, p.psi_e * (1.0 + eps))
        assert abs(lo - hi) < 1e-5


def test_batched_evaluation_matches_scalar():
    """theta_points on a mixed-family (codes, rows) batch gives each point
    the bytes theta_at gives its parameter set alone."""
    rng = np.random.default_rng(13)
    params = (_random_params(rng, "vg", 5) + _random_params(rng, "bc", 5)
              + _random_params(rng, "cmp", 5))
    order = rng.permutation(len(params))
    params = [params[i] for i in order]
    psi = rng.uniform(0.0, 5000.0, size=len(params))
    codes = np.array([FAMILY_CODES[p.family] for p in params], dtype=np.int8)
    rows = np.array([p.packed() for p in params])
    theta = _kernels.theta_points(codes, rows, psi)
    for i, p in enumerate(params):
        assert theta[i] == theta_at(p, float(psi[i]))


def test_columns_table_is_the_only_layout():
    """Each family's dataclass fields, theta_s column and shipped class-table
    header agree with _kernels.COLUMNS."""
    for family, cls in FAMILY_CLASSES.items():
        columns = _kernels.COLUMNS[FAMILY_CODES[family]]
        fields = tuple("lambda" if f.name == "lambda_" else f.name
                       for f in dataclasses.fields(cls) if f.name != "flags")
        assert fields == columns == cls.columns
        assert _kernels.THETA_S_COLUMN[FAMILY_CODES[family]] == columns.index("theta_s")
    headers = set()
    for entry in resources.files("ptfens").joinpath("data").iterdir():
        if entry.name.endswith("_classes.csv"):
            lines = entry.read_text(encoding="utf-8").splitlines()
            header = next(ln for ln in lines if ln.strip() and not ln.startswith("#"))
            headers.add(tuple(h.strip() for h in header.split(",")[1:]))
    assert len(headers) > 1 and headers <= set(_kernels.COLUMNS.values())
