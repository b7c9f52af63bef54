"""Shared builders for synthetic samples and populations used across tests."""

import re
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from ptfens import USDA_CLASSES, AnnSpec, PredictorRecord, SampleTable, predict_theta
from ptfens import ptf as ptf_module
from ptfens.dataset import _NUMERIC_FIELDS

FC = 330.0
WP = 15000.0


@dataclass(frozen=True)
class Record:
    """One sample as a test writes it: None for a missing value, the
    observations as (psi, theta) pairs."""

    sample_id: str
    sand: float
    silt: float
    clay: float
    bulk_density: float = None
    organic_carbon: float = None
    latitude: float = None
    longitude: float = None
    soil_order: str = None
    temperature_regime: str = None
    observations: tuple = ()


def make_sample(sample_id, sand, silt, clay, bd=1.4, oc=1.0, order=None,
                regime=None, obs=()):
    """A Record; obs: iterable of (psi, theta) pairs."""
    return Record(
        sample_id=sample_id, sand=float(sand), silt=float(silt), clay=float(clay),
        bulk_density=None if bd is None else float(bd),
        organic_carbon=None if oc is None else float(oc),
        soil_order=order, temperature_regime=regime,
        observations=tuple((float(p), float(t)) for p, t in obs),
    )


def sample_table(records):
    """The SampleTable of Records, a row each in their order (None is NaN)."""
    records = tuple(records)
    pairs = [o for r in records for o in r.observations]
    return SampleTable(
        ids=[r.sample_id for r in records],
        **{f: [np.nan if getattr(r, f) is None else getattr(r, f) for r in records]
           for f in _NUMERIC_FIELDS},
        soil_order=[r.soil_order for r in records],
        temperature_regime=[r.temperature_regime for r in records],
        obs_owner=np.repeat(np.arange(len(records)), [len(r.observations) for r in records]),
        obs_psi=[p for p, _ in pairs], obs_theta=[t for _, t in pairs])


def observations(table, row):
    """The (psi, theta) pairs of one row of a table, in its order."""
    at = table.obs_index([row])
    return list(zip(table.obs_psi[at].tolist(), table.obs_theta[at].tolist()))


def random_texture(rng, n):
    """n rows of sand/silt/clay percentages summing to 100."""
    fractions = rng.dirichlet((2.0, 2.0, 2.0), size=n) * 100.0
    return fractions[:, 0], fractions[:, 1], fractions[:, 2]


def population_records(rng, n, true_ptf, noise=0.0, prefix="s",
                       heads=(FC, WP), sand=None, silt=None, clay=None):
    """Records whose observed water contents come from one true model.

    Texture is random unless explicit arrays are given. Observations are the
    true model's predictions plus Gaussian noise, kept inside the quality
    bounds (theta <= 0.6 at the dry heads, wet end >= dry end).
    """
    if sand is None:
        sand, silt, clay = random_texture(rng, n)
    bd = rng.uniform(0.9, 1.8, size=n)
    oc = rng.uniform(0.2, 4.0, size=n)
    samples = []
    for i in range(n):
        rec = PredictorRecord(sand=sand[i], silt=silt[i], clay=clay[i],
                              bulk_density=bd[i], organic_carbon=oc[i])
        obs = []
        prev = None
        for psi in sorted(heads):
            theta = predict_theta(true_ptf, rec, psi)
            theta += rng.normal(0.0, noise) if noise else 0.0
            theta = min(max(theta, 0.01), 0.59)
            if prev is not None:
                theta = min(theta, prev)  # keep wetter head >= drier head
            prev = theta
            obs.append((psi, theta))
        samples.append(make_sample(f"{prefix}{i:04d}", sand[i], silt[i], clay[i],
                                   bd=bd[i], oc=oc[i], obs=obs))
    return samples


def synthetic_population(rng, n, true_ptf, **kwargs):
    """The SampleTable of population_records."""
    return sample_table(population_records(rng, n, true_ptf, **kwargs))


def constant_net(input_names, outputs):
    """A network that predicts the curve `outputs` for every row."""
    d = len(input_names)
    return AnnSpec(
        layer_sizes=(d, 1, 4),
        weights=(np.zeros((1, d)), np.zeros((4, 1))),
        biases=(np.zeros(1), np.asarray(outputs, dtype=np.float64)),
        hidden_activation="sigmoid",
        input_names=tuple(input_names),
        input_offset=np.zeros(d),
        input_scale=np.full(d, 100.0),
        output_names=("theta_r", "theta_s", "alpha", "n"),
        output_offset=np.zeros(4),
        output_scale=np.ones(4),
        output_transforms=("none", "none", "none", "none"),
    )


def random_net(rng):
    """A network of sand, silt and clay: a varied curve for each row."""
    return AnnSpec(
        layer_sizes=(3, 4, 4),
        weights=(rng.normal(size=(4, 3)), rng.normal(scale=0.1, size=(4, 4))),
        biases=(rng.normal(size=4), np.zeros(4)),
        hidden_activation="sigmoid", input_names=("sand", "silt", "clay"),
        input_offset=np.full(3, 33.0), input_scale=np.full(3, 30.0),
        output_names=("theta_r", "theta_s", "alpha", "n"),
        output_offset=np.array([0.05, 0.45, -2.0, 0.2]), output_scale=np.ones(4),
        output_transforms=("none", "none", "pow10", "pow10"))


def drop_class(monkeypatch, ptf, texture_class):
    """Make ptf's class table lack one texture class."""
    real = ptf_module._class_rows
    rows = real(ptf).copy()
    rows[USDA_CLASSES.index(texture_class)] = np.nan
    monkeypatch.setattr(ptf_module, "_class_rows", lambda p: rows if p == ptf else real(p))


# tokens a reader must reject or accept cleanly: numbers at the edges of the
# float grammar, words of the formats, separators, control and non-ASCII text
SPLICE_TOKENS = (
    "0", "-1", "3", "2.5", "-9999", "1e999", "-1e400", "5e-324", "nan", "-inf",
    "1_0", "\u0663", "0x10", "1e", "+", "--1", "1..2", "1,5", "#", "# x",
    "99999999999999999999999", "ncols", "nrows", "cellsize", "NODATA_value",
    "layers", "weights", "bias", "input_scale", "output_transforms", "sigmoid",
    "pow10", " ", "\t", "\n", "\r", "\r\n", "\n\n", "\x00", "\x0c", "\x85",
    "\u2028", "\u3000", "\ufeff", "\u00e9", "")


@st.composite
def spliced_text(draw, text):
    """text with up to six token edits: a whitespace-separated token (or the
    whitespace between two) replaced, deleted, duplicated, or preceded by
    another, each new token drawn from the text itself or SPLICE_TOKENS."""
    parts = re.split(r"(\s+)", text)
    pool = st.sampled_from(sorted(set(parts)) + list(SPLICE_TOKENS))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(parts) - 1))
        op = draw(st.sampled_from(("replace", "delete", "duplicate", "insert")))
        if op == "replace":
            parts[i] = draw(pool)
        elif op == "delete":
            del parts[i]
        elif op == "duplicate":
            parts.insert(i, parts[i])
        else:
            parts.insert(i, draw(pool))
        if not parts:
            parts = [""]
    return "".join(parts)
