"""Correctness checks of each workload's outputs.

Every check compares the program's files with a computation made here
(reference.py) or with a property the method must have; none compares with
a stored copy of earlier output. Each check function returns a list of
failure messages, empty when the outputs are correct, and a list of notes
(measurements printed with the run's result).

Every calibrated chi2 must lie within OPTIMUM_GAP (relative) of the optimum
of an independent simplex-constrained least-squares solve. The gap is 2e-2,
not 1e-3: the genetic algorithm stops up to about 5e-3 above the optimum on
some fits of some seeds, the global fit included, so 1e-3 fails on some
seeds; 2e-2 still fails a fit that stops well short of the optimum (a cut
GA, or a corner returned in place of the mix). How far each fit lies above
the optimum is printed with the run's result.

Parameters come from `ptf.predict_batch`; water contents, ensembles,
bootstrap draws, RMSEs and optima are computed here.
"""

import csv
import math
import os

import numpy as np

import reference
from ptfens.ptf import load_rosetta_weights, predict_batch

MAP_LABELS = ("sat", "fc", "wp")
MAP_HEADS = (0.0, 330.0, 15000.0)
OPTIMUM_GAP = 2e-2


def _batches(members, sand, silt, clay, bd, oc):
    return [predict_batch(m, sand=np.asarray(sand), silt=np.asarray(silt),
                          clay=np.asarray(clay), bulk_density=np.asarray(bd),
                          organic_carbon=np.asarray(oc)) for m in members]


def _read_tsv(path):
    """Rows of a tab-delimited file after its `#` lines, header first."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


# ---------------------------------------------------------------------------
# calibrate

def check_calibrate(inputs, out, truth):
    fails = []
    load_rosetta_weights(os.path.join(inputs, "nets"))
    with open(os.path.join(inputs, "samples.csv"), encoding="utf-8") as fh:
        samples = list(csv.DictReader(fh))
    heads = [float(h) for h in truth["heads"]]
    table = _read_tsv(os.path.join(out, "calibrate", "replicas.tsv"))
    header, body = table[0], table[1:]
    members = [c[2:] for c in header[4:]]

    col = {k: np.array([float(s[k]) for s in samples])
           for k in ("sand", "silt", "clay", "bulk_density", "organic_carbon")}
    batches = _batches(members, col["sand"], col["silt"], col["clay"],
                       col["bulk_density"], col["organic_carbon"])
    owner = np.repeat(np.arange(len(samples)), len(heads))
    psi = np.tile(heads, len(samples))
    y = np.array([float(s[f"theta_{h:g}"]) for s in samples for h in heads])
    preds = reference.member_thetas(batches, owner, psi)
    points_of = [np.arange(i * len(heads), (i + 1) * len(heads)) for i in range(len(samples))]

    strata = {}
    for row in body:
        strata.setdefault(row[0], []).append(row)
    expected = ["global"] + sorted(truth["calibrated_strata"])
    if sorted(strata) != sorted(expected):
        fails.append(f"calibrate: strata {sorted(strata)} != expected {expected}")
        return fails, []
    if any(len(rows) != truth["replicas"] for rows in strata.values()):
        fails.append("calibrate: a stratum lacks replicas")

    seed = (int(truth["seed"]),)
    gaps = {}
    for key, rows in strata.items():
        if key == "global":
            subset, path = list(range(len(samples))), seed
        else:
            cls = key.split(":", 1)[1]
            subset = [i for i, c in enumerate(truth["classes"]) if c == cls]
            path = reference.stratum_seed_path(seed, key)
        for row in rows:
            r = int(row[1])
            w = np.array([float(v) for v in row[4:]])
            if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
                fails.append(f"calibrate {key}/{r}: weights off the simplex (sum {w.sum()!r})")
                continue
            draw = reference.bootstrap_draw(path, r, len(subset))
            cal = np.concatenate([points_of[subset[d]] for d in draw])
            p_cal, y_cal = preds[:, cal], y[cal]
            chi2 = reference.chi2(w, p_cal, y_cal)
            rmse = math.sqrt(chi2 / cal.size)
            if not _close(float(row[2]), rmse, 1e-9):
                fails.append(f"calibrate {key}/{r}: cal_rmse {row[2]} != recomputed {rmse!r}")
            drawn = set(draw.tolist())
            oob = [subset[i] for i in range(len(subset)) if i not in drawn]
            if oob:
                val = np.concatenate([points_of[i] for i in oob])
                val_rmse = math.sqrt(reference.chi2(w, preds[:, val], y[val]) / val.size)
                if not row[3] or not _close(float(row[3]), val_rmse, 1e-9):
                    fails.append(f"calibrate {key}/{r}: val_rmse {row[3]!r} != "
                                 f"recomputed {val_rmse!r}")
            best_member = float(np.min(np.sum((p_cal - y_cal) ** 2, axis=1)))
            if chi2 > best_member * (1.0 + 1e-9):
                fails.append(f"calibrate {key}/{r}: chi2 {chi2!r} worse than the best "
                             f"single member {best_member!r}")
            _, optimum = reference.simplex_lsq(p_cal, y_cal)
            gap = chi2 / optimum - 1.0
            gaps[key] = max(gaps.get(key, 0.0), gap)
            if optimum > chi2 * (1.0 + 1e-9):
                fails.append(f"calibrate {key}/{r}: reference solver stopped at "
                             f"{optimum!r}, above the program's {chi2!r}")
            elif gap > OPTIMUM_GAP:
                fails.append(f"calibrate {key}/{r}: chi2 {chi2!r} is {gap:.2e} above the "
                             f"simplex optimum {optimum!r} (allowed {OPTIMUM_GAP:g})")
    per_class = [g for k, g in gaps.items() if k != "global"]
    notes = [f"calibrate chi2 above the simplex optimum (relative): global "
             f"{gaps.get('global', float('nan')):.2e}; per-class max {max(per_class, default=0.0):.2e}, "
             f"{sum(g > 1e-3 for g in per_class)} of {len(per_class)} classes above 1e-3"]
    return fails, notes


# ---------------------------------------------------------------------------
# points

def check_points(inputs, out, truth):
    fails = []
    load_rosetta_weights(os.path.join(inputs, "nets"))
    kept = truth["kept"]
    weights = truth["weights"]
    members = list(weights)
    w = np.array([weights[m] for m in members])

    # ingest: kept samples and removal reasons
    with open(os.path.join(out, "ingest", "samples.csv"), encoding="utf-8") as fh:
        got = list(csv.DictReader(fh))
    if [r["sample_id"] for r in got] != [k["id"] for k in kept]:
        fails.append(f"ingest: kept {len(got)} samples, expected {len(kept)} "
                     "(or a different order)")
        return fails, []
    for row, exp in zip(got, kept):
        values = (float(row["sand"]), float(row["silt"]), float(row["clay"]),
                  float(row["bulk_density"]), float(row["organic_carbon"]))
        obs = [(h, float(row[f"theta_{h:g}"])) for h, _ in exp["obs"]]
        n_obs = sum(1 for k, v in row.items() if k.startswith("theta_") and v)
        if (values != (exp["sand"], exp["silt"], exp["clay"], exp["bd"], exp["oc"])
                or obs != [tuple(o) for o in exp["obs"]] or n_obs != len(obs)):
            fails.append(f"ingest: sample {row['sample_id']} differs from the raw row")
    with open(os.path.join(out, "ingest", "removed.csv"), encoding="utf-8") as fh:
        counts = {}
        for r in csv.DictReader(fh):
            key = f"{r['stage']}:{r['reason_code']}"
            counts[key] = counts.get(key, 0) + 1
    if counts != truth["removed"]:
        fails.append(f"ingest: removals {counts} != planted {truth['removed']}")

    # evaluate: every RMSE in report.tsv
    sand, silt, clay, bd, oc = (np.array([k[f] for k in kept])
                                for f in ("sand", "silt", "clay", "bd", "oc"))
    batches = _batches(members, sand, silt, clay, bd, oc)
    owner = np.array([i for i, k in enumerate(kept) for _ in k["obs"]])
    psi = np.array([o[0] for k in kept for o in k["obs"]])
    y = np.array([o[1] for k in kept for o in k["obs"]])
    preds = reference.member_thetas(batches, owner, psi)
    expected = {m: math.sqrt(np.mean((preds[j] - y) ** 2)) for j, m in enumerate(members)}
    expected["ensemble"] = math.sqrt(np.mean((w @ preds - y) ** 2))
    report = _read_tsv(os.path.join(out, "evaluate", "report.tsv"))
    got = {r[0]: r for r in report[1:]}
    if sorted(got) != sorted(expected):
        fails.append(f"evaluate: report rows {sorted(got)} != {sorted(expected)}")
    for model, rmse in expected.items():
        row = got.get(model)
        if row is None:
            continue
        if int(row[1]) != y.size or not abs(float(row[3]) - rmse) <= 5e-7 + 1e-12:
            fails.append(f"evaluate {model}: n={row[1]} rmse={row[3]}, "
                         f"recomputed n={y.size} rmse={rmse:.9f}")

    # predict: sum_j w_j theta_j at each head, in [0, 1], drier is not wetter
    heads = [float(h) for h in truth["psi"]]
    owner = np.repeat(np.arange(len(kept)), len(heads))
    psi = np.tile(heads, len(kept))
    ens = w @ reference.member_thetas(batches, owner, psi)
    rows = _read_tsv(os.path.join(out, "predict", "predictions.tsv"))[1:]
    if len(rows) != ens.size:
        fails.append(f"predict: {len(rows)} rows, expected {ens.size}")
        return fails, []
    theta = np.array([float(r[2]) for r in rows])
    ids = [r[0] for r in rows]
    if ids != [k["id"] for k in kept for _ in heads] or \
            [float(r[1]) for r in rows] != psi.tolist():
        fails.append("predict: rows are not (sample, head) in input order")
    if np.any(theta < 0.0) or np.any(theta > 1.0):
        fails.append("predict: water content outside [0, 1]")
    if np.any(np.diff(theta.reshape(len(kept), len(heads)), axis=1) > 0.0):
        fails.append("predict: water content increases with suction")
    worst = float(np.max(np.abs(theta - ens)))
    if worst > 1e-12:
        fails.append(f"predict: differs from sum_j w_j theta_j by up to {worst!r}")
    return fails, [f"predict: largest difference from sum_j w_j theta_j {worst:.1e}"]


# ---------------------------------------------------------------------------
# map

def _read_grid(path):
    with open(path, encoding="utf-8") as fh:
        header = [fh.readline().split() for _ in range(6)]
        values = np.array([[float(v) for v in line.split()] for line in fh if line.strip()])
    return {k.lower(): float(v) for k, v in header}, values


def check_map(inputs, out, truth):
    fails = []
    load_rosetta_weights(os.path.join(inputs, "nets"))
    planted = np.load(os.path.join(inputs, "planted_mask.npy"))
    nodata = float(truth["nodata"])
    ref_header, _ = _read_grid(os.path.join(inputs, "sand.asc"))
    grids = {}
    for kind in ("mean", "cv"):
        for label in MAP_LABELS:
            header, values = _read_grid(os.path.join(out, "map", f"{kind}_{label}.asc"))
            name = f"{kind}_{label}"
            grids[name] = values
            if {k: v for k, v in header.items() if k != "nodata_value"} != \
                    {k: v for k, v in ref_header.items() if k != "nodata_value"}:
                fails.append(f"map {name}: georeference differs from the inputs")
            if values.shape != planted.shape or not np.array_equal(values == nodata, planted):
                fails.append(f"map {name}: nodata cells differ from the planted cells")
    if fails:
        return fails, []

    valid = ~planted
    sat, fc, wp = (grids[f"mean_{h}"][valid] for h in MAP_LABELS)
    if np.any(sat < fc - 1e-12) or np.any(fc < wp - 1e-12):
        fails.append("map: mean_sat >= mean_fc >= mean_wp fails on some cell")
    if np.any(sat <= 0.0) or np.any(sat > 1.0):
        fails.append("map: mean water content outside (0, 1]")
    for label in MAP_LABELS:
        if np.any(grids[f"cv_{label}"][valid] < 0.0):
            fails.append(f"map: negative CV in cv_{label}")

    # a seeded sample of cells against the replica computation made here
    rng = np.random.default_rng([int(truth["seed"]), 7])
    cells = rng.choice(np.flatnonzero(valid.ravel()), size=300, replace=False)
    layer = {}
    for name in ("sand", "silt", "clay", "bd", "oc"):
        _, values = _read_grid(os.path.join(inputs, f"{name}.asc"))
        layer[name] = values.ravel()[cells]
    table = _read_tsv(os.path.join(inputs, "replicas.tsv"))
    members = [c[2:] for c in table[0][4:]]
    raw = np.array([[float(v) for v in row[4:]] for row in table[1:]])
    weights = raw / raw.sum(axis=1, keepdims=True)
    batches = _batches(members, layer["sand"], layer["silt"], layer["clay"],
                       layer["bd"], layer["oc"])
    owner = np.arange(cells.size)
    for head, label in zip(MAP_HEADS, MAP_LABELS):
        theta = reference.member_thetas(batches, owner, np.full(cells.size, head))
        est = weights @ theta                       # (replicas, cells)
        mean = est.sum(axis=0) / est.shape[0]
        sd = np.sqrt(((est - mean) ** 2).sum(axis=0) / (est.shape[0] - 1))
        got_mean = grids[f"mean_{label}"].ravel()[cells]
        got_cv = grids[f"cv_{label}"].ravel()[cells]
        if not np.allclose(got_mean, mean, rtol=1e-9, atol=1e-12):
            fails.append(f"map mean_{label}: differs from the replica mean, worst "
                         f"{float(np.max(np.abs(got_mean - mean)))!r}")
        if not np.allclose(got_cv, sd / mean, rtol=1e-6, atol=1e-12):
            fails.append(f"map cv_{label}: differs from the replica CV, worst "
                         f"{float(np.max(np.abs(got_cv - sd / mean)))!r}")
    return fails, [f"map: {int(valid.sum())} valid cells, {int(planted.sum())} planted "
                   f"nodata or off-sum cells, {cells.size} cells recomputed"]


def check_apply(inputs, out, truth):
    fails, notes = check_points(inputs, out, dict(truth["points"], seed=truth["seed"]))
    map_fails, map_notes = check_map(inputs, out, dict(truth["map"], seed=truth["seed"]))
    return fails + map_fails, notes + map_notes


CHECKS = {"calibrate": check_calibrate, "apply": check_apply}
