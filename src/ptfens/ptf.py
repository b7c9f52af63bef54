"""The thirteen point predictors of retention-curve parameters.

_MEMBERS is the one description of each predictor: its input tier, its curve
family and the source of its parameters (a class table, a batch function, or
a trained network only). GROUPS, FAMILY, required_inputs, uses_class_table
and predict_batch's dispatch all read it. The four input tiers, by what each
predictor consumes:

    A  texture class (classified from sand/silt/clay, or given)
    B  sand, silt, clay
    C  B + bulk density
    D  C + organic carbon

All prediction is batch-first over arrays; the scalar entry points wrap a
batch of one, and member_batches is the one path to ensemble members'
parameters for every command (member_thetas and ensemble.point_matrix). Out-of-domain outputs
are clamped into the valid parameter domain and flagged rather than
rejected, so downstream ensembles always get an evaluable curve.
Predictors that take a variable inside ln() or 1/x floor it at a small
positive value (0.01 in the variable's own unit) and flag the row as
input_floored.

rosetta_h2w and rosetta_h3w are trained networks and need a weight file
registered before use (see register_ann / load_rosetta_weights).
rosetta_h1w uses a published class-average table unless a network is
registered for it.
"""

import os
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from . import _kernels, coeffs
from .ann import ann_forward, read_ann_file
from .errors import DataError, InputError, MemberPredictionError, PtfensError, TableLookupError
from .retention import (
    FAMILY_CODES,
    BrooksCoreyParams,
    CampbellParams,
    VanGenuchtenParams,
    theta_at,
)
from .texture import USDA_CLASSES, classify_texture_array

PARTICLE_DENSITY = 2.65  # g/cm3, standard mineral soil assumption
# physical upper limits of the non-texture layers: bulk density above the
# mineral particle density (g/cm3) would mean a negative porosity, and organic
# carbon is a percentage. Inside [0, limit] every built-in member's
# parameters are finite; outside (bd < 0, bd 1e300, oc 1e6) some are NaN or
# overflow. A map makes such a cell nodata, predict rejects such a flag, and
# ingest rejects an organic carbon outside it (bulk density has QA's BD_RANGE).
LAYER_LIMITS = {"bulk_density": PARTICLE_DENSITY, "organic_carbon": 100.0}
_FLOOR = 0.01  # lower bound for variables used inside ln() or 1/x
PREDICTOR_FIELDS = ("sand", "silt", "clay", "bulk_density", "organic_carbon")


class PtfId(str, Enum):
    COSBY0 = "cosby0"
    CARSEL = "carsel"
    CLAPP = "clapp"
    ROSETTA_H1W = "rosetta_h1w"
    COSBY1 = "cosby1"
    COSBY2 = "cosby2"
    ROSETTA_H2W = "rosetta_h2w"
    RAWLS = "rawls"
    CAMPBELL = "campbell"
    ROSETTA_H3W = "rosetta_h3w"
    WOSTEN = "wosten"
    WEYNANTS = "weynants"
    VEREECKEN = "vereecken"

    def __str__(self):
        return self.value


ALL_PTFS = tuple(PtfId)

@dataclass(frozen=True)
class PredictorRecord:
    """One profile's predictors. Unknown fields stay None."""

    sand: float = None
    silt: float = None
    clay: float = None
    bulk_density: float = None
    organic_carbon: float = None
    texture_class: str = None
    topsoil: bool = True


@dataclass(frozen=True)
class ParamBatch:
    """Packed retention parameters for one PTF over a batch of records."""

    ptf: PtfId
    codes: np.ndarray  # int8 family code per row, for the point kernels
    rows: np.ndarray   # (n, 4) packed parameter rows
    flags: dict        # flag name -> boolean mask over rows

    def __len__(self):
        return self.rows.shape[0]


# ---------------------------------------------------------------------------
# clamping into the valid parameter domain

def _clamp_vg(theta_r, theta_s, alpha, n, flags):
    ts = np.clip(theta_s, 1e-6, 1.0)
    flags["theta_s_clamped"] = ts != theta_s
    tr = np.clip(theta_r, 0.0, None)
    tr = np.minimum(tr, np.maximum(ts - 1e-6, 0.0))
    flags["theta_r_clamped"] = tr != theta_r
    al = np.maximum(alpha, 1e-8)
    flags["alpha_clamped"] = al != alpha
    nn = np.maximum(n, 1.0 + 1e-6)
    flags["n_clamped"] = nn != n
    return np.stack([tr, ts, al, nn], axis=1)


def _clamp_bc(theta_r, theta_s, psi_b, lambda_, flags):
    ts = np.clip(theta_s, 1e-6, 1.0)
    flags["theta_s_clamped"] = ts != theta_s
    tr = np.clip(theta_r, 0.0, None)
    tr = np.minimum(tr, np.maximum(ts - 1e-6, 0.0))
    flags["theta_r_clamped"] = tr != theta_r
    pb = np.maximum(psi_b, 1e-6)
    flags["psi_b_clamped"] = pb != psi_b
    lm = np.maximum(lambda_, 1e-6)
    flags["lambda_clamped"] = lm != lambda_
    return np.stack([tr, ts, pb, lm], axis=1)


def _clamp_cmp(theta_s, psi_e, b, flags):
    ts = np.clip(theta_s, 1e-6, 1.0)
    flags["theta_s_clamped"] = ts != theta_s
    pe = np.maximum(psi_e, 1e-6)
    flags["psi_e_clamped"] = pe != psi_e
    bb = np.maximum(b, 1e-6)
    flags["b_clamped"] = bb != b
    return np.stack([ts, pe, bb, np.zeros_like(ts)], axis=1)


def _floored(values, flags):
    v = np.maximum(values, _FLOOR)
    mask = v != values
    if "input_floored" in flags:
        flags["input_floored"] = flags["input_floored"] | mask
    else:
        flags["input_floored"] = mask
    return v


# ---------------------------------------------------------------------------
# per-PTF batch implementations

def _regression(name, **variables):
    return coeffs.eval_regression(coeffs.load_regression(name), variables)


def _batch_cosby1(flags, sand, clay, **_):
    out = _regression("cosby_1984_univariate.csv", sand=sand, clay=clay)
    return _clamp_cmp(out["theta_s"], out["psi_e"], out["b"], flags)


def _batch_cosby2(flags, sand, silt, clay, **_):
    out = _regression("cosby_1984_bivariate.csv", sand=sand, clay=clay, silt=silt)
    return _clamp_cmp(out["theta_s"], out["psi_e"], out["b"], flags)


def _batch_rawls(flags, sand, clay, bulk_density, **_):
    phi = 1.0 - bulk_density / PARTICLE_DENSITY
    phi = _floored(phi, flags)
    out = _regression("rawls_brakensiek_1985.csv", sand=sand, clay=clay, phi=phi)
    return _clamp_bc(out["theta_r"], phi, out["psi_b"], out["lambda"], flags)


def _batch_campbell(flags, sand, silt, clay, bulk_density, **_):
    c = coeffs.load_constants("campbell_shiozawa_1992.csv")
    total = sand + silt + clay
    f_sand, f_silt, f_clay = sand / total, silt / total, clay / total
    ln_d = np.log([c["d_sand_mm"], c["d_silt_mm"], c["d_clay_mm"]])
    ln_dg = f_sand * ln_d[0] + f_silt * ln_d[1] + f_clay * ln_d[2]
    var = f_sand * ln_d[0] ** 2 + f_silt * ln_d[1] ** 2 + f_clay * ln_d[2] ** 2 - ln_dg ** 2
    sigma_g = np.exp(np.sqrt(np.maximum(var, 0.0)))
    dg = np.exp(ln_dg)
    inv_sqrt_dg = dg ** -0.5
    b = inv_sqrt_dg + c["b_sigma_coeff"] * sigma_g
    psi_es_kpa = c["air_entry_coeff_kpa"] * inv_sqrt_dg
    psi_e_kpa = psi_es_kpa * (bulk_density / c["reference_bd"]) ** (c["bd_exponent_coeff"] * b)
    psi_e = psi_e_kpa * c["kpa_to_cm"]
    theta_s = 1.0 - bulk_density / c["particle_density"]
    return _clamp_cmp(theta_s, psi_e, b, flags)


def _batch_wosten(flags, silt, clay, bulk_density, organic_carbon, topsoil, **_):
    om = _floored(1.724 * organic_carbon, flags)
    silt = _floored(silt, flags)
    clay = _floored(clay, flags)
    bd = _floored(bulk_density, flags)
    top = np.ones(len(silt)) if topsoil is None else np.asarray(topsoil, dtype=np.float64)
    out = _regression("wosten_1999.csv", silt=silt, clay=clay, om=om, bd=bd, topsoil=top)
    return _clamp_vg(out["theta_r"], out["theta_s"], out["alpha"], out["n"], flags)


def _batch_weynants(flags, sand, clay, bulk_density, organic_carbon, **_):
    oc = _floored(organic_carbon, flags)
    out = _regression("weynants_2009.csv", sand=sand, clay=clay, bd=bulk_density, oc=oc)
    return _clamp_vg(out["theta_r"], out["theta_s"], out["alpha"], out["n"], flags)


def _batch_vereecken(flags, sand, clay, bulk_density, organic_carbon, **_):
    out = _regression("vereecken_1989.csv", sand=sand, clay=clay, bd=bulk_density,
                      oc=organic_carbon)
    return _clamp_vg(out["theta_r"], out["theta_s"], out["alpha"], out["n"], flags)


# ---------------------------------------------------------------------------
# the member table

_Member = namedtuple("_Member", "tier family source")

# One row per predictor: input tier, curve family, and parameter source: a
# class-table file, a batch function of the canonical predictor keywords, or
# None for a Rosetta slot that predicts only with a registered network.
_MEMBERS = {
    PtfId.COSBY0: _Member("A", "cmp", "cosby_1984_classes.csv"),
    PtfId.CARSEL: _Member("A", "vg", "carsel_parrish_1988_classes.csv"),
    PtfId.CLAPP: _Member("A", "cmp", "clapp_hornberger_1978_classes.csv"),
    PtfId.ROSETTA_H1W: _Member("A", "vg", "rosetta_h1w_classes.csv"),
    PtfId.COSBY1: _Member("B", "cmp", _batch_cosby1),
    PtfId.COSBY2: _Member("B", "cmp", _batch_cosby2),
    PtfId.ROSETTA_H2W: _Member("B", "vg", None),
    PtfId.RAWLS: _Member("C", "bc", _batch_rawls),
    PtfId.CAMPBELL: _Member("C", "cmp", _batch_campbell),
    PtfId.ROSETTA_H3W: _Member("C", "vg", None),
    PtfId.WOSTEN: _Member("D", "vg", _batch_wosten),
    PtfId.WEYNANTS: _Member("D", "vg", _batch_weynants),
    PtfId.VEREECKEN: _Member("D", "vg", _batch_vereecken),
}
_TIER_FIELDS = {"A": 3, "B": 3, "C": 4, "D": 5}  # leading PREDICTOR_FIELDS of a tier
# the slots of Rosetta's hierarchical networks, read from rosetta_*.ann files
_NETWORK_SLOTS = tuple(ptf for ptf in _MEMBERS if ptf.value.startswith("rosetta_"))

GROUPS = dict((tier, tuple(ptf for ptf, row in _MEMBERS.items() if row.tier == tier))
              for tier in "ABCD")
FAMILY = dict((ptf, row.family) for ptf, row in _MEMBERS.items())


def group_of(ptf):
    try:
        return _MEMBERS[PtfId(ptf)].tier
    except ValueError:
        raise InputError(f"unknown PTF {ptf!r}") from None


def required_inputs(ptf):
    """Canonical predictor fields a PTF needs. Group A accepts an explicit
    texture class in place of the three fractions."""
    return PREDICTOR_FIELDS[:_TIER_FIELDS[_MEMBERS[PtfId(ptf)].tier]]


@cache
def _class_rows(ptf):
    """Class table as a (12, 4) packed array indexed by USDA class code."""
    table = coeffs.load_class_table(_MEMBERS[ptf].source, ptf.value)
    rows = np.full((len(USDA_CLASSES), 4), np.nan)
    for i, cls in enumerate(USDA_CLASSES):
        if cls in table.entries:
            rows[i] = table.entries[cls].packed()
    return rows


def _batch_class(ptf, texture):
    rows = _class_rows(ptf)[texture]
    if np.any(~np.isfinite(rows)):
        bad = np.unique(np.asarray(texture)[~np.isfinite(rows).all(axis=1)])
        names = ", ".join(USDA_CLASSES[i] for i in bad)
        raise TableLookupError(f"PTF {ptf} has no entry for texture class(es): {names}")
    return rows


# ---------------------------------------------------------------------------
# trained-network registry

# a network's input name -> its canonical predictor field
_ANN_INPUTS = {"sand": "sand", "silt": "silt", "clay": "clay",
               "bd": "bulk_density", "oc": "organic_carbon"}
_ann_registry = {}


def register_ann(ptf, spec):
    """Attach a trained network to one of the rosetta predictor slots."""
    ptf = PtfId(ptf)
    if ptf not in _NETWORK_SLOTS:
        raise InputError(f"{ptf} does not accept a trained network")
    if tuple(spec.output_names) != ("theta_r", "theta_s", "alpha", "n"):
        raise DataError(
            f"network for {ptf} must output theta_r theta_s alpha n, "
            f"got {' '.join(spec.output_names)}"
        )
    unknown = set(spec.input_names).difference(_ANN_INPUTS)
    if unknown:
        raise DataError(f"network for {ptf} uses unknown inputs {sorted(unknown)}")
    _ann_registry[ptf] = spec


def registered_ann(ptf):
    return _ann_registry.get(PtfId(ptf))


def uses_class_table(ptf):
    """Whether a PTF predicts by class-table lookup: a table member with no
    network registered."""
    return isinstance(_MEMBERS[PtfId(ptf)].source, str) and registered_ann(ptf) is None


def clear_ann_registry():
    _ann_registry.clear()


def load_rosetta_weights(directory):
    """Register every rosetta_*.ann weight file found in a directory."""
    loaded = []
    for ptf in _NETWORK_SLOTS:
        path = os.path.join(directory, f"{ptf.value}.ann")
        if os.path.exists(path):
            register_ann(ptf, read_ann_file(path))
            loaded.append(ptf)
    if not loaded:
        raise DataError(f"no rosetta_*.ann weight files found in {directory!r}")
    return loaded


def _batch_ann(ptf, spec, flags, **predictors):
    cols = []
    for name in spec.input_names:
        arr = predictors.get(_ANN_INPUTS[name])
        if arr is None:
            raise InputError(f"network for {ptf} needs predictor {name!r}")
        cols.append(arr)
    out = ann_forward(spec, np.stack(cols, axis=1))
    return _clamp_vg(out[:, 0], out[:, 1], out[:, 2], out[:, 3], flags)


# ---------------------------------------------------------------------------
# public prediction API

def _as_float_array(name, values, n):
    if values is None:
        raise InputError(f"missing required predictor {name!r}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise InputError(f"predictor {name!r} has shape {arr.shape}, expected ({n},)")
    return arr


def predict_batch(ptf, sand=None, silt=None, clay=None, bulk_density=None,
                  organic_carbon=None, texture=None, topsoil=None):
    """Predict packed retention parameters for arrays of predictors.

    texture takes precomputed USDA class codes; when omitted, class-lookup
    PTFs classify from sand/silt/clay. topsoil defaults to all-true.
    """
    ptf = PtfId(ptf)
    for probe in (sand, silt, clay, texture):
        if probe is not None:
            n = len(np.atleast_1d(probe))
            break
    else:
        raise InputError("missing required predictor 'sand'")

    table = uses_class_table(ptf)
    predictors = dict(zip(PREDICTOR_FIELDS, (sand, silt, clay, bulk_density, organic_carbon)))
    for name in () if table and texture is not None else required_inputs(ptf):
        predictors[name] = _as_float_array(name, predictors[name], n)
    flags, source, spec = {}, _MEMBERS[ptf].source, registered_ann(ptf)
    if table:
        if texture is None:
            texture = classify_texture_array(*(predictors[f] for f in ("sand", "silt", "clay")))
        rows = _batch_class(ptf, np.asarray(texture, dtype=np.int64))
    elif spec is not None:
        rows = _batch_ann(ptf, spec, flags, **predictors)
    elif source is None:
        raise DataError(
            f"{ptf} needs a trained network; register one with register_ann() "
            "or load_rosetta_weights()"
        )
    else:
        rows = source(flags, topsoil=topsoil, **predictors)

    if not np.all(np.isfinite(rows)):
        bad = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise MemberPredictionError(f"{ptf} produced non-finite parameters at row {bad}")
    codes = np.full(n, FAMILY_CODES[FAMILY[ptf]], dtype=np.int8)
    return ParamBatch(ptf=ptf, codes=codes, rows=rows, flags=flags)


def _record_arrays(rec):
    """predict_batch keyword arrays of one row from a record; a texture class
    becomes its class code, which serves class-table members only."""
    arrays = {name: np.array([float(getattr(rec, name))]) for name in PREDICTOR_FIELDS
              if getattr(rec, name) is not None}
    if rec.texture_class is not None:
        if rec.texture_class not in USDA_CLASSES:
            raise InputError(f"unknown texture class {rec.texture_class!r}")
        arrays["texture"] = np.array([USDA_CLASSES.index(rec.texture_class)])
    arrays["topsoil"] = np.array([1.0 if rec.topsoil else 0.0])
    return arrays


def member_batches(members, texture=None, **predictors):
    """Yield (ParamBatch, at) per member, batch.rows[at] being the parameters
    of the rows of predict_batch keyword arrays. A class-table member is
    predicted once per texture class present (the codes given, else
    classified once from the fractions). A failing member raises
    MemberPredictionError naming it."""
    classes = None  # (class codes present, each row's index into them)
    for m in members:
        try:
            if uses_class_table(m):
                if classes is None:
                    if texture is None:
                        n = len(predictors.get("sand", ()))
                        texture = classify_texture_array(
                            *(_as_float_array(f, predictors.get(f), n)
                              for f in ("sand", "silt", "clay")))
                    classes = np.unique(texture, return_inverse=True)
                batch, at = predict_batch(m, texture=classes[0]), classes[1]
            else:
                batch, at = predict_batch(m, **predictors), slice(None)
        except PtfensError as exc:
            raise MemberPredictionError(f"member {m}: {exc}") from exc
        yield batch, at


def member_thetas(members, heads, texture=None, **predictors):
    """(members, heads, rows) water contents of rows of predict_batch keyword
    arrays, each distinct (curve, head) evaluated once from member_batches.
    Head 0 is the theta_s column, which every curve gives exactly."""
    sized = predictors.get("sand", texture)
    out = np.empty((len(members), len(heads), 0 if sized is None else len(sized)))
    for k, (batch, at) in enumerate(member_batches(members, texture, **predictors)):
        column = _kernels.THETA_S_COLUMN[FAMILY_CODES[FAMILY[batch.ptf]]]
        for t, head in enumerate(heads):
            if head == 0.0:  # saturation: every curve gives theta_s exactly
                out[k, t] = batch.rows[at, column]
            else:
                out[k, t] = _kernels.theta_points(
                    batch.codes, batch.rows, np.full(len(batch), head))[at]
    return out


def params_from_row(family, row, flags=()):
    """Rehydrate a packed parameter row into its dataclass."""
    if family == "vg":
        return VanGenuchtenParams(row[0], row[1], row[2], row[3], flags=flags)
    if family == "bc":
        return BrooksCoreyParams(row[0], row[1], row[2], row[3], flags=flags)
    if family == "cmp":
        return CampbellParams(row[0], row[1], row[2], flags=flags)
    raise InputError(f"unknown parameter family {family!r}")


def predict(ptf, rec):
    """Predict retention parameters for a single record."""
    batch = predict_batch(ptf, **_record_arrays(rec))
    flags = tuple(sorted(name for name, mask in batch.flags.items() if mask[0]))
    return params_from_row(FAMILY[batch.ptf], batch.rows[0], flags=flags)


def predict_theta(ptf, rec, psi):
    """Predict water content directly at one or more pressure heads."""
    return theta_at(predict(ptf, rec), psi)
