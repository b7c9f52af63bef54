"""Closed-form water retention curve families.

Pressure head psi is a positive suction magnitude in cm of water throughout
(0 = saturation, larger = drier). The parameter containers are immutable,
validated on construction, and pack into the kernels' (family code, row)
form; coeffs.load_class_table validates class-table rows with them, and
ptf.predict returns one for a single profile. Their fields are the family's
columns in _kernels.COLUMNS, and one base class reads packing, construction
by column name and the domain check from that table. The curve formulas
live only in _kernels, behind theta_points, which every batch path calls:
theta_at evaluates one parameter set through it at a scalar psi or an array
of psi values.
"""

from dataclasses import dataclass, field
from typing import Union, get_args

import numpy as np

from . import _kernels
from .errors import InputError, ParameterError

SATURATION_HEAD = 0.0
FIELD_CAPACITY_HEAD = 330.0
WILTING_POINT_HEAD = 15000.0

FAMILY_CODES = {"vg": _kernels.FAMILY_VG, "bc": _kernels.FAMILY_BC, "cmp": _kernels.FAMILY_CMP}
_FIELDS = {"lambda": "lambda_"}  # a column's field where it is a Python keyword


class _Curve:
    """What the three families share, each reading its columns from
    _kernels.COLUMNS: construction by column name, the packed row and the
    domain check. The fields are the columns in the same order."""

    def __init_subclass__(cls):
        cls.columns = _kernels.COLUMNS[FAMILY_CODES[cls.family]]

    @classmethod
    def from_columns(cls, values, flags=()):
        """The parameter set of a {column: value} mapping."""
        return cls(**{_FIELDS.get(c, c): values[c] for c in cls.columns}, flags=flags)

    def packed(self):
        row = tuple(getattr(self, _FIELDS.get(c, c)) for c in self.columns)
        return row + (0.0,) * (4 - len(row))

    def __post_init__(self):
        value = dict(zip(self.columns, self.packed()))
        ts = value["theta_s"]
        if "theta_r" not in value:
            if not 0.0 < ts <= 1.0:
                raise ParameterError(f"require 0 < theta_s <= 1, got {ts}")
        elif not 0.0 <= value["theta_r"] < ts <= 1.0:
            raise ParameterError(f"require 0 <= theta_r < theta_s <= 1, got "
                                 f"theta_r={value['theta_r']}, theta_s={ts}")
        for column, v in value.items():
            low = 1.0 if column == "n" else 0.0  # m = 1 - 1/n must be > 0
            if not column.startswith("theta_") and not v > low:
                raise ParameterError(f"{column} must be > {low:g}, got {v}")


@dataclass(frozen=True)
class VanGenuchtenParams(_Curve):
    """theta(psi) = theta_r + (theta_s - theta_r) * [1 + (alpha*psi)^n]^-(1-1/n).

    The shape exponent m is tied to n as m = 1 - 1/n.
    """

    theta_r: float
    theta_s: float
    alpha: float  # 1/cm
    n: float
    flags: tuple = field(default=(), compare=False)

    family = "vg"


@dataclass(frozen=True)
class BrooksCoreyParams(_Curve):
    """theta = theta_s for psi <= psi_b, else theta_r + (theta_s-theta_r)*(psi_b/psi)^lambda."""

    theta_r: float
    theta_s: float
    psi_b: float  # air-entry head, cm
    lambda_: float  # pore-size index
    flags: tuple = field(default=(), compare=False)

    family = "bc"


@dataclass(frozen=True)
class CampbellParams(_Curve):
    """theta = theta_s for psi <= psi_e, else theta_s*(psi_e/psi)^(1/b).

    Residual water content is zero in this family.
    """

    theta_s: float
    psi_e: float  # air-entry head, cm
    b: float
    flags: tuple = field(default=(), compare=False)

    family = "cmp"


RetentionParams = Union[VanGenuchtenParams, BrooksCoreyParams, CampbellParams]
FAMILY_CLASSES = {cls.family: cls for cls in get_args(RetentionParams)}


def _check_psi(psi):
    psi = np.asarray(psi, dtype=np.float64)
    if not np.all(np.isfinite(psi)) or np.any(psi < 0.0):
        raise InputError("pressure head must be finite and >= 0 cm")
    return psi


def theta_at(p: RetentionParams, psi):
    """Water content of one curve at suction psi (cm), a scalar or an array."""
    if not isinstance(p, _Curve):
        raise ParameterError(f"not a retention parameter set: {p!r}")
    psi = _check_psi(psi)
    flat = psi.reshape(-1)
    codes = np.full(flat.size, FAMILY_CODES[p.family], dtype=np.int8)
    rows = np.broadcast_to(np.asarray(p.packed(), dtype=np.float64), (flat.size, 4))
    out = _kernels.theta_points(codes, rows, flat).reshape(psi.shape)
    return float(out) if out.ndim == 0 else out
