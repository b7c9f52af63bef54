"""USDA texture triangle classification."""

import numpy as np
import pytest

from ptfens import InputError, USDA_CLASSES, classify_texture
from ptfens.texture import classify_texture_array

# interior representatives, one per class
POINTS = {
    "sand": (95, 3, 2),
    "loamy sand": (82, 12, 6),
    "sandy loam": (65, 25, 10),
    "loam": (40, 40, 20),
    "silt loam": (20, 65, 15),
    "silt": (5, 88, 7),
    "sandy clay loam": (60, 12, 28),
    "clay loam": (32, 35, 33),
    "silty clay loam": (10, 57, 33),
    "sandy clay": (50, 10, 40),
    "silty clay": (7, 48, 45),
    "clay": (20, 20, 60),
}


def test_class_list():
    assert len(USDA_CLASSES) == 12
    assert set(POINTS) == set(USDA_CLASSES)


def test_interior_points():
    for expected, (sand, silt, clay) in POINTS.items():
        assert classify_texture(sand, silt, clay) == expected


def test_boundaryish_points():
    assert classify_texture(10, 85, 5) == "silt"
    assert classify_texture(33, 33, 34) == "clay loam"


def test_sum_tolerance():
    assert classify_texture(40.0, 40.0, 20.5) == "loam"  # 100.5 accepted
    assert classify_texture(40.0, 40.0, 20.8) == "loam"  # 100.8 accepted
    with pytest.raises(InputError):
        classify_texture(40.0, 40.0, 21.2)  # 101.2
    with pytest.raises(InputError):
        classify_texture(40.0, 40.0, 22.0)  # 102
    with pytest.raises(InputError):
        classify_texture(40.0, 40.0, 18.0)  # 98


def test_renormalization_matches_exact():
    scale = 1.005
    for expected, (sand, silt, clay) in POINTS.items():
        assert classify_texture(sand * scale, silt * scale, clay * scale) == expected


def test_negative_fraction_rejected():
    with pytest.raises(InputError):
        classify_texture(-1.0, 81.0, 20.0)


def test_every_valid_triple_gets_a_class():
    rng = np.random.default_rng(7)
    fractions = rng.dirichlet((1.0, 1.0, 1.0), size=2000) * 100.0
    codes = classify_texture_array(fractions[:, 0], fractions[:, 1], fractions[:, 2])
    assert codes.min() >= 0 and codes.max() < len(USDA_CLASSES)


def test_array_codes_match_scalar_names():
    rng = np.random.default_rng(8)
    fractions = rng.dirichlet((2.0, 2.0, 1.0), size=200) * 100.0
    sand, silt, clay = fractions[:, 0], fractions[:, 1], fractions[:, 2]
    codes = classify_texture_array(sand, silt, clay)
    for i in range(len(sand)):
        assert USDA_CLASSES[codes[i]] == classify_texture(sand[i], silt[i], clay[i])
