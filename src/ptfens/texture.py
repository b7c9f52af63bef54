"""USDA texture triangle classification.

The twelve classes are tested in a fixed order and the first matching rule
wins, which makes boundary inputs deterministic. The rules are the standard
USDA definitions on sand/silt/clay percentages; fractions are renormalized
to sum to exactly 100 before the tests, so the rules tile the triangle.
"""

import numpy as np

from .errors import InputError

# Fixed rule order; also the canonical class order used for class indices.
USDA_CLASSES = (
    "sand",
    "loamy sand",
    "sandy loam",
    "loam",
    "silt loam",
    "silt",
    "sandy clay loam",
    "clay loam",
    "silty clay loam",
    "sandy clay",
    "silty clay",
    "clay",
)

TEXTURE_SUM_TOLERANCE = 1.0  # accepted deviation of sand+silt+clay from 100


def classify_texture_array(sand, silt, clay):
    """USDA class index (into USDA_CLASSES) for each sand/silt/clay triple."""
    sand = np.asarray(sand, dtype=np.float64)
    silt = np.asarray(silt, dtype=np.float64)
    clay = np.asarray(clay, dtype=np.float64)

    if np.any((sand < 0) | (silt < 0) | (clay < 0)) or not (
        np.all(np.isfinite(sand)) and np.all(np.isfinite(silt)) and np.all(np.isfinite(clay))
    ):
        raise InputError("texture fractions must be finite and >= 0")
    total = sand + silt + clay
    if np.any(np.abs(total - 100.0) > TEXTURE_SUM_TOLERANCE):
        bad = float(total[np.abs(total - 100.0) > TEXTURE_SUM_TOLERANCE].flat[0])
        raise InputError(
            f"sand+silt+clay must be 100 +/- {TEXTURE_SUM_TOLERANCE}, got {bad}"
        )
    sand = sand / total * 100.0
    silt = silt / total * 100.0
    clay = clay / total * 100.0

    rules = (
        silt + 1.5 * clay < 15,  # sand
        (silt + 1.5 * clay >= 15) & (silt + 2 * clay < 30),  # loamy sand
        ((clay >= 7) & (clay < 20) & (sand > 52) & (silt + 2 * clay >= 30))
        | ((clay < 7) & (silt < 50) & (silt + 2 * clay >= 30)),  # sandy loam
        (clay >= 7) & (clay < 27) & (silt >= 28) & (silt < 50) & (sand <= 52),  # loam
        ((silt >= 50) & (clay >= 12) & (clay < 27))
        | ((silt >= 50) & (silt < 80) & (clay < 12)),  # silt loam
        (silt >= 80) & (clay < 12),  # silt
        (clay >= 20) & (clay < 35) & (silt < 28) & (sand > 45),  # sandy clay loam
        (clay >= 27) & (clay < 40) & (sand > 20) & (sand <= 45),  # clay loam
        (clay >= 27) & (clay < 40) & (sand <= 20),  # silty clay loam
        (clay >= 35) & (sand > 45),  # sandy clay
        (clay >= 40) & (silt >= 40),  # silty clay
        (clay >= 40) & (sand <= 45) & (silt < 40),  # clay
    )

    idx = np.full(sand.shape, -1, dtype=np.int64)
    for i, rule in enumerate(rules):
        idx = np.where((idx < 0) & rule, i, idx)
    if np.any(idx < 0):
        where = np.argwhere(idx < 0).flat[0]
        raise InputError(
            "unclassifiable texture "
            f"(sand={sand.flat[where]}, silt={silt.flat[where]}, clay={clay.flat[where]})"
        )
    return idx
