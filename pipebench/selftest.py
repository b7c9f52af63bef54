"""Tests of the benchmark's own reference computations.

    PYTHONPATH=src python3 pipebench/selftest.py
    PYTHONPATH=src python3 -m pytest -q pipebench/selftest.py

The correctness checks are only as good as reference.py, so its pieces are
tested here against computations made another way: the simplex solver
against a brute-force grid, and the closed-form curves against the
program's `retention.theta_at` on the published parameter sets.
"""

import itertools
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
from ptfens import coeffs  # noqa: E402
from ptfens.ptf import PtfId, params_from_row, predict_batch  # noqa: E402
from ptfens.retention import theta_at  # noqa: E402

HEADS = (0.0, 1.0, 10.0, 60.0, 100.0, 330.0, 1000.0, 2000.0, 15000.0, 1e6)
CLASS_TABLES = {"cosby0": "cosby_1984_classes.csv",
                "carsel": "carsel_parrish_1988_classes.csv",
                "clapp": "clapp_hornberger_1978_classes.csv",
                "rosetta_h1w": "rosetta_h1w_classes.csv"}


def test_simplex_lsq_matches_brute_force_grid():
    rng = np.random.default_rng(3)
    for trial in range(4):
        preds = rng.uniform(0.05, 0.5, (3, 40))
        observed = (np.array([0.5, 0.3, 0.2]) @ preds if trial % 2 == 0
                    else rng.uniform(0.0, 0.6, 40))  # interior or boundary optimum
        w, chi2 = reference.simplex_lsq(preds, observed)
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-12
        assert abs(chi2 - reference.chi2(w, preds, observed)) <= 1e-15 * max(chi2, 1.0)
        step = 1.0 / 400
        grid_best = min(
            reference.chi2((a, b, 1.0 - a - b), preds, observed)
            for a, b in itertools.product(np.arange(0.0, 1.0 + step / 2, step), repeat=2)
            if a + b <= 1.0 + 1e-12)
        assert chi2 <= grid_best + 1e-12
        # the grid is within half a step of the optimum, so it cannot be far above
        assert grid_best - chi2 <= 1e-3 * max(grid_best, 1e-6)


def _published_rows():
    """(family code, packed row) of every published class-average parameter set,
    plus regression-derived Brooks-Corey and Campbell rows."""
    out = []
    for ptf, name in CLASS_TABLES.items():
        table = coeffs.load_class_table(name, ptf)
        for params in table.entries.values():
            code = {"vg": reference.VG, "bc": reference.BC, "cmp": reference.CMP}[params.family]
            out.append((params, code, np.asarray(params.packed(), dtype=np.float64)))
    sand = np.array([10.0, 40.0, 80.0])
    silt = np.array([60.0, 40.0, 10.0])
    clay = np.array([30.0, 20.0, 10.0])
    bd = np.array([1.2, 1.45, 1.65])
    for ptf in (PtfId.RAWLS, PtfId.CAMPBELL):
        batch = predict_batch(ptf, sand=sand, silt=silt, clay=clay, bulk_density=bd)
        family = "bc" if ptf == PtfId.RAWLS else "cmp"
        for code, row in zip(batch.codes, batch.rows):
            out.append((params_from_row(family, row), int(code), row))
    return out


def test_closed_form_curves_match_theta_at():
    rows = _published_rows()
    assert {code for _, code, _ in rows} == {reference.VG, reference.BC, reference.CMP}
    for params, code, row in rows:
        for psi in HEADS:
            ours = reference.theta_closed_form(np.array([code]), row[None, :],
                                               np.array([psi]))[0]
            theirs = theta_at(params, psi)
            assert abs(ours - theirs) <= 1e-13, (params, psi, ours, theirs)


def test_bootstrap_draw_matches_documented_seed_path():
    draw = reference.bootstrap_draw((5,), 2, 10)
    assert np.array_equal(draw, np.random.default_rng((5, 2, 0)).integers(0, 10, size=10))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
