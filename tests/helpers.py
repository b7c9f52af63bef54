"""Shared builders for synthetic samples and populations used across tests."""

import numpy as np

from ptfens import USDA_CLASSES, PredictorRecord, predict_theta
from ptfens import ptf as ptf_module
from ptfens.dataset import RetentionObservation, SoilSample

FC = 330.0
WP = 15000.0


def make_sample(sample_id, sand, silt, clay, bd=1.4, oc=1.0, order=None,
                regime=None, obs=()):
    """obs: iterable of (psi, theta) pairs."""
    return SoilSample(
        sample_id=sample_id, sand=float(sand), silt=float(silt), clay=float(clay),
        bulk_density=None if bd is None else float(bd),
        organic_carbon=None if oc is None else float(oc),
        soil_order=order, temperature_regime=regime,
        observations=tuple(RetentionObservation(psi=float(p), theta=float(t))
                           for p, t in obs),
    )


def random_texture(rng, n):
    """n rows of sand/silt/clay percentages summing to 100."""
    fractions = rng.dirichlet((2.0, 2.0, 2.0), size=n) * 100.0
    return fractions[:, 0], fractions[:, 1], fractions[:, 2]


def synthetic_population(rng, n, true_ptf, noise=0.0, prefix="s",
                         heads=(FC, WP), sand=None, silt=None, clay=None):
    """Samples whose observed water contents come from one true model.

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


def drop_class(monkeypatch, ptf, texture_class):
    """Make ptf's class table lack one texture class."""
    real = ptf_module._class_rows
    rows = real(ptf).copy()
    rows[USDA_CLASSES.index(texture_class)] = np.nan
    monkeypatch.setattr(ptf_module, "_class_rows", lambda p: rows if p == ptf else real(p))
