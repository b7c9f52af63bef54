"""USDA texture triangle classification."""

import numpy as np
import pytest

from ptfens import InputError, USDA_CLASSES, classify_texture_array

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




def names(sand, silt, clay):
    """The class name of each sand/silt/clay triple."""
    return [USDA_CLASSES[code] for code in classify_texture_array(sand, silt, clay)]


def test_class_list():
    assert len(USDA_CLASSES) == 12
    assert set(POINTS) == set(USDA_CLASSES)


def test_interior_points():
    assert names(*np.array(list(POINTS.values()), dtype=float).T) == list(POINTS)


def test_boundaryish_points():
    assert names([10, 33], [85, 33], [5, 34]) == ["silt", "clay loam"]


def test_sum_tolerance():
    # 100.5 and 100.8 accepted
    assert names([40.0, 40.0], [40.0, 40.0], [20.5, 20.8]) == ["loam", "loam"]
    for clay in (21.2, 22.0, 18.0):  # 101.2, 102, 98
        with pytest.raises(InputError):
            classify_texture_array([40.0], [40.0], [clay])


def test_renormalization_matches_exact():
    fractions = np.array(list(POINTS.values()), dtype=float) * 1.005
    assert names(*fractions.T) == list(POINTS)


def test_negative_fraction_rejected():
    with pytest.raises(InputError):
        classify_texture_array([-1.0], [81.0], [20.0])


def test_every_valid_triple_gets_a_class():
    rng = np.random.default_rng(7)
    fractions = rng.dirichlet((1.0, 1.0, 1.0), size=2000) * 100.0
    codes = classify_texture_array(fractions[:, 0], fractions[:, 1], fractions[:, 2])
    assert codes.min() >= 0 and codes.max() < len(USDA_CLASSES)


def test_array_codes_match_scalar_names():
    """A triple's class in a batch is its class classified alone."""
    rng = np.random.default_rng(8)
    fractions = rng.dirichlet((2.0, 2.0, 1.0), size=200) * 100.0
    sand, silt, clay = fractions[:, 0], fractions[:, 1], fractions[:, 2]
    codes = classify_texture_array(sand, silt, clay)
    for i in range(len(sand)):
        assert codes[i] == classify_texture_array(sand[i:i + 1], silt[i:i + 1],
                                                  clay[i:i + 1])[0]
