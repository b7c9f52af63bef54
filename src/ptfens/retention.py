"""Closed-form water retention curve families.

Pressure head psi is a positive suction magnitude in cm of water throughout
(0 = saturation, larger = drier). The parameter containers are immutable,
validated on construction, and pack into the kernels' (family code, row)
form; coeffs.load_class_table validates class-table rows with them, and
ptf.predict returns one for a single profile. The curve formulas live only
in _kernels, behind theta_points, which every batch path calls: theta_at
evaluates one parameter set through it at a scalar psi or an array of psi
values.
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import _kernels
from .errors import InputError, ParameterError

SATURATION_HEAD = 0.0
FIELD_CAPACITY_HEAD = 330.0
WILTING_POINT_HEAD = 15000.0


@dataclass(frozen=True)
class VanGenuchtenParams:
    """theta(psi) = theta_r + (theta_s - theta_r) * [1 + (alpha*psi)^n]^-(1-1/n).

    The shape exponent m is tied to n as m = 1 - 1/n.
    """

    theta_r: float
    theta_s: float
    alpha: float  # 1/cm
    n: float
    flags: tuple = field(default=(), compare=False)

    family = "vg"

    def __post_init__(self):
        if not 0.0 <= self.theta_r < self.theta_s <= 1.0:
            raise ParameterError(
                f"require 0 <= theta_r < theta_s <= 1, got "
                f"theta_r={self.theta_r}, theta_s={self.theta_s}"
            )
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if not self.n > 1.0:
            raise ParameterError(f"n must be > 1, got {self.n}")

    def packed(self):
        return (self.theta_r, self.theta_s, self.alpha, self.n)


@dataclass(frozen=True)
class BrooksCoreyParams:
    """theta = theta_s for psi <= psi_b, else theta_r + (theta_s-theta_r)*(psi_b/psi)^lambda."""

    theta_r: float
    theta_s: float
    psi_b: float  # air-entry head, cm
    lambda_: float  # pore-size index
    flags: tuple = field(default=(), compare=False)

    family = "bc"

    def __post_init__(self):
        if not 0.0 <= self.theta_r < self.theta_s <= 1.0:
            raise ParameterError(
                f"require 0 <= theta_r < theta_s <= 1, got "
                f"theta_r={self.theta_r}, theta_s={self.theta_s}"
            )
        if not self.psi_b > 0.0:
            raise ParameterError(f"psi_b must be > 0, got {self.psi_b}")
        if not self.lambda_ > 0.0:
            raise ParameterError(f"lambda must be > 0, got {self.lambda_}")

    def packed(self):
        return (self.theta_r, self.theta_s, self.psi_b, self.lambda_)


@dataclass(frozen=True)
class CampbellParams:
    """theta = theta_s for psi <= psi_e, else theta_s*(psi_e/psi)^(1/b).

    Residual water content is zero in this family.
    """

    theta_s: float
    psi_e: float  # air-entry head, cm
    b: float
    flags: tuple = field(default=(), compare=False)

    family = "cmp"

    def __post_init__(self):
        if not 0.0 < self.theta_s <= 1.0:
            raise ParameterError(f"require 0 < theta_s <= 1, got {self.theta_s}")
        if not self.psi_e > 0.0:
            raise ParameterError(f"psi_e must be > 0, got {self.psi_e}")
        if not self.b > 0.0:
            raise ParameterError(f"b must be > 0, got {self.b}")

    def packed(self):
        return (self.theta_s, self.psi_e, self.b, 0.0)


RetentionParams = Union[VanGenuchtenParams, BrooksCoreyParams, CampbellParams]

FAMILY_CODES = {"vg": _kernels.FAMILY_VG, "bc": _kernels.FAMILY_BC, "cmp": _kernels.FAMILY_CMP}


def _check_psi(psi):
    psi = np.asarray(psi, dtype=np.float64)
    if not np.all(np.isfinite(psi)) or np.any(psi < 0.0):
        raise InputError("pressure head must be finite and >= 0 cm")
    return psi


def theta_at(p: RetentionParams, psi):
    """Water content of one curve at suction psi (cm), a scalar or an array."""
    if not isinstance(p, (VanGenuchtenParams, BrooksCoreyParams, CampbellParams)):
        raise ParameterError(f"not a retention parameter set: {p!r}")
    psi = _check_psi(psi)
    flat = psi.reshape(-1)
    codes = np.full(flat.size, FAMILY_CODES[p.family], dtype=np.int8)
    rows = np.broadcast_to(np.asarray(p.packed(), dtype=np.float64), (flat.size, 4))
    out = _kernels.theta_points(codes, rows, flat).reshape(psi.shape)
    return float(out) if out.ndim == 0 else out
