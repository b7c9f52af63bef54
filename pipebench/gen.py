"""Seeded input generator for the pipeline benchmark.

    python3 pipebench/gen.py --workload map --seed 1 --out DIR

Writes the input files of one workload into DIR, plus `truth.json` (and, for
`map`, `planted_mask.npy`) recording what was planted, for the correctness
checks. The same seed gives the same bytes. Observations are built through
`ptf.predict_batch` and the benchmark's own closed-form curves; the scalar
prediction path is never used here.

Runs in its own process so that neither its time nor its memory counts in
the timed run. Needs `src` on PYTHONPATH.
"""

import argparse
import csv
import json
import os

import numpy as np

import reference
from ptfens.ann import AnnSpec, write_ann_file
from ptfens.ptf import ALL_PTFS, predict_batch, register_ann
from ptfens.texture import USDA_CLASSES, classify_texture_array

WORKLOADS = ("calibrate", "apply")

# The mix the synthetic observations come from (members not named weigh 0).
TRUE_MIX = {"wosten": 0.30, "rosetta_h3w": 0.20, "carsel": 0.20,
            "campbell": 0.15, "cosby2": 0.15}
NOISE_SD = 0.02

# calibrate: fixed samples per USDA class, so every seed calibrates the same
# strata; "silt" stays below min_stratum_points (50) and uses the fallback.
CAL_PER_CLASS = 180
CAL_SMALL_CLASS = "silt"
CAL_SMALL_COUNT = 10
CAL_HEADS = (100.0, 330.0, 1000.0, 15000.0)
CAL_REPLICAS = 1
MIN_STRATUM_POINTS = 50

# points: good rows plus a fixed number of planted rows per reason code.
POINTS_GOOD = 180
POINTS_PLANTED = 4
POINTS_HEADS = (100.0, 330.0, 1000.0, 15000.0)
PREDICT_PSI = (0.0, 330.0, 15000.0)

# map: grid size, planted nodata cells per layer and off-sum cells.
MAP_ROWS, MAP_COLS = 300, 240
MAP_NODATA_PER_LAYER = 1440   # 2% of cells in each of the five layers
MAP_OFF_SUM = 720             # 1% of cells sum to 105
MAP_REPLICAS = 100
NODATA = -9999.0
GRID_LAYERS = ("sand", "silt", "clay", "bd", "oc")

CANONICAL_COLUMNS = ("sample_id", "latitude", "longitude", "sand", "silt", "clay",
                     "bulk_density", "organic_carbon", "soil_order",
                     "temperature_regime", "theta_60", "theta_100", "theta_330",
                     "theta_1000", "theta_2000", "theta_15000")

MEMBERS = tuple(p.value for p in ALL_PTFS)


def _stand_in_network(rng, input_names, offsets, scales):
    """A small sigmoid network with outputs near published Rosetta ranges."""
    hidden = 6
    d = len(input_names)
    return AnnSpec(
        layer_sizes=(d, hidden, 4),
        weights=(rng.normal(0.0, 2.0, (hidden, d)),
                 rng.uniform(-1.0, 1.0, (4, hidden)) / np.sqrt(hidden)),
        biases=(rng.normal(0.0, 1.0, hidden), rng.uniform(-0.3, 0.3, 4)),
        hidden_activation="sigmoid",
        input_names=tuple(input_names),
        input_offset=np.asarray(offsets, dtype=np.float64),
        input_scale=np.asarray(scales, dtype=np.float64),
        output_names=("theta_r", "theta_s", "alpha", "n"),
        output_offset=np.array([0.07, 0.43, -1.8, 0.17]),
        output_scale=np.array([0.04, 0.05, 0.4, 0.08]),
        output_transforms=("none", "none", "pow10", "pow10"),
    )


def write_networks(rng, directory):
    """Stand-in rosetta_h2w and rosetta_h3w files; rosetta_h1w keeps its table."""
    os.makedirs(directory, exist_ok=True)
    specs = {
        "rosetta_h2w": _stand_in_network(rng, ("sand", "silt", "clay"),
                                         (50.0, 30.0, 20.0), (30.0, 20.0, 15.0)),
        "rosetta_h3w": _stand_in_network(rng, ("sand", "silt", "clay", "bd"),
                                         (50.0, 30.0, 20.0, 1.4), (30.0, 20.0, 15.0, 0.3)),
    }
    for name, spec in specs.items():
        write_ann_file(os.path.join(directory, f"{name}.ann"), spec)
        register_ann(name, spec)


def texture_rows(rng, n):
    """n sand/silt/clay rows at 0.1 % resolution, silt closing the sum."""
    frac = rng.dirichlet((2.0, 2.0, 2.0), size=n) * 100.0
    sand = np.round(frac[:, 0], 1)
    clay = np.round(frac[:, 2], 1)
    silt = np.round(100.0 - sand - clay, 1)
    return sand, silt, clay


def textures_by_class(rng, counts):
    """Textures with a fixed number of rows in each USDA class, shuffled."""
    picked = {cls: [] for cls in counts}
    while any(len(picked[c]) < counts[c] for c in counts):
        frac = rng.dirichlet((1.0, 1.0, 1.0), size=20000) * 100.0
        sand = np.round(frac[:, 0], 1)
        clay = np.round(frac[:, 2], 1)
        silt = np.round(100.0 - sand - clay, 1)
        ok = (sand >= 0) & (silt >= 0) & (clay >= 0)
        sand, silt, clay = sand[ok], silt[ok], clay[ok]
        cls = classify_texture_array(sand, silt, clay)
        for i in range(sand.size):
            name = USDA_CLASSES[cls[i]]
            if name in picked and len(picked[name]) < counts[name]:
                picked[name].append((sand[i], silt[i], clay[i], name))
    rows = [row for c in counts for row in picked[c]]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    sand, silt, clay, names = zip(*rows)
    return np.array(sand), np.array(silt), np.array(clay), list(names)


def true_thetas(sand, silt, clay, bd, oc, heads, rng):
    """(samples, heads) observations: the TRUE_MIX ensemble plus noise,
    inside the quality bounds and non-increasing with suction."""
    n = sand.size
    owner = np.repeat(np.arange(n), len(heads))
    psi = np.tile(np.asarray(heads, dtype=np.float64), n)
    mix = np.zeros(owner.size)
    for name, w in TRUE_MIX.items():
        batch = predict_batch(name, sand=sand, silt=silt, clay=clay,
                              bulk_density=bd, organic_carbon=oc)
        mix += w * reference.theta_closed_form(batch.codes[owner], batch.rows[owner], psi)
    theta = mix.reshape(n, len(heads)) + rng.normal(0.0, NOISE_SD, (n, len(heads)))
    theta = np.clip(theta, 0.02, 0.58)
    for k in range(1, len(heads)):  # wetter head holds at least as much water
        theta[:, k] = np.minimum(theta[:, k], theta[:, k - 1] - 0.002)
    return np.round(np.clip(theta, 0.01, 0.58), 4)


def _fmt(v):
    return "" if v is None else repr(float(v))


def write_canonical(path, ids, sand, silt, clay, bd, oc, heads, theta):
    col = {h: f"theta_{h:g}" for h in heads}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_COLUMNS)
        for i, sid in enumerate(ids):
            row = {"sample_id": sid, "sand": _fmt(sand[i]), "silt": _fmt(silt[i]),
                   "clay": _fmt(clay[i]), "bulk_density": _fmt(bd[i]),
                   "organic_carbon": _fmt(oc[i])}
            for k, h in enumerate(heads):
                row[col[h]] = _fmt(theta[i, k])
            writer.writerow([row.get(c, "") for c in CANONICAL_COLUMNS])


def gen_calibrate(rng, out, seed):
    counts = {c: CAL_PER_CLASS for c in USDA_CLASSES if c != CAL_SMALL_CLASS}
    counts[CAL_SMALL_CLASS] = CAL_SMALL_COUNT
    sand, silt, clay, classes = textures_by_class(rng, counts)
    n = sand.size
    bd = np.round(rng.uniform(1.0, 1.7, n), 2)
    oc = np.round(rng.uniform(0.2, 4.0, n), 2)
    theta = true_thetas(sand, silt, clay, bd, oc, CAL_HEADS, rng)
    ids = [f"c{i:05d}" for i in range(n)]
    write_canonical(os.path.join(out, "samples.csv"), ids, sand, silt, clay, bd, oc,
                    CAL_HEADS, theta)
    strata = sorted(f"texture:{c}" for c in counts
                    if counts[c] * len(CAL_HEADS) >= MIN_STRATUM_POINTS)
    return {"seed": seed, "replicas": CAL_REPLICAS, "heads": CAL_HEADS,
            "classes": classes, "calibrated_strata": strata,
            "items": CAL_REPLICAS * (1 + len(strata))}


RAW_COLUMNS = ("pedon_key", "site_lat", "site_lon", "taxorder", "sand_tot_psa",
               "silt_tot_psa", "clay_tot_psa", "db_od", "oc_pct", "w1bar_g",
               "w3bar_g", "w10bar_g", "w15bar_g", "lab_note")
RAW_THETA = dict(zip(POINTS_HEADS, ("w1bar_g", "w3bar_g", "w10bar_g", "w15bar_g")))
SCHEMA = """\
# raw laboratory export: renamed columns, tab-delimited, gravimetric water
sample_id = pedon_key
latitude = site_lat
longitude = site_lon
soil_order = taxorder
sand = sand_tot_psa
silt = silt_tot_psa
clay = clay_tot_psa
bulk_density = db_od
organic_carbon = oc_pct
theta_100 = w1bar_g
theta_330 = w3bar_g
theta_1000 = w10bar_g
theta_15000 = w15bar_g
theta_units = gravimetric
delimiter = tab
"""

# (stage, reason code) of every planted defect, in the order rows are planted
PLANTED = (("ingest", "DUPLICATE_ID"), ("ingest", "MISSING_FIELD"),
           ("ingest", "BAD_NUMBER"), ("ingest", "TEXTURE_SUM"),
           ("ingest", "NO_OBSERVATIONS"), ("qa", "BD_RANGE"),
           ("qa", "THETA_GT_ONE"), ("qa", "THETA_GT_0_6"), ("qa", "FC_LT_WP"),
           ("qa", "NO_OBSERVATIONS"))


def gen_points(rng, out, seed):
    n_good = POINTS_GOOD
    sand, silt, clay = texture_rows(rng, n_good + len(PLANTED) * POINTS_PLANTED)
    n_all = sand.size
    bd = np.round(rng.uniform(1.0, 1.7, n_all), 2)
    oc = np.round(rng.uniform(0.2, 4.0, n_all), 2)
    theta_v = true_thetas(sand, silt, clay, bd, oc, POINTS_HEADS, rng)
    # gravimetric export: the file holds theta / bd, read back as g * bd
    grav = np.round(theta_v / bd[:, None], 4)
    present = rng.random((n_all, len(POINTS_HEADS))) >= 0.15
    present[:, 1] = True  # 330 and 15000 cm are always measured
    present[:, 3] = True
    orders = ("alfisols", "mollisols", "ultisols", "inceptisols")

    def base_row(i, sid):
        row = {"pedon_key": sid, "site_lat": f"{rng.uniform(-40, 60):.4f}",
               "site_lon": f"{rng.uniform(-120, 140):.4f}",
               "taxorder": orders[i % len(orders)], "sand_tot_psa": _fmt(sand[i]),
               "silt_tot_psa": _fmt(silt[i]), "clay_tot_psa": _fmt(clay[i]),
               "db_od": _fmt(bd[i]), "oc_pct": _fmt(oc[i]), "lab_note": "ok"}
        for k, h in enumerate(POINTS_HEADS):
            row[RAW_THETA[h]] = _fmt(grav[i, k]) if present[i, k] else ""
        return row

    def expected_sample(row):
        """The canonical sample ingest and QA should keep for a raw row."""
        b = float(row["db_od"])
        obs = [(h, float(row[RAW_THETA[h]]) * b) for h in POINTS_HEADS
               if row[RAW_THETA[h]]]
        return {"id": row["pedon_key"], "sand": float(row["sand_tot_psa"]),
                "silt": float(row["silt_tot_psa"]), "clay": float(row["clay_tot_psa"]),
                "bd": b, "oc": float(row["oc_pct"]), "obs": obs}

    rows, dups, kept, removed = [], [], {}, {}
    for i in range(n_good):
        row = base_row(i, f"P{seed}-{i:05d}")
        sample = expected_sample(row)
        theta = dict(sample["obs"])
        if max(theta.values()) > 0.6 or theta[330.0] < theta[15000.0]:
            raise RuntimeError(f"generator made a good row that fails QA: {row}")
        rows.append(row)
        kept[row["pedon_key"]] = sample

    i = n_good
    for stage, code in PLANTED:
        for k in range(POINTS_PLANTED):
            row = base_row(i, f"X{seed}-{i:05d}")
            i += 1
            key = f"{stage}:{code}"
            removed[key] = removed.get(key, 0) + 1
            b = float(row["db_od"])
            if code == "DUPLICATE_ID":
                row["pedon_key"] = rows[k * 7]["pedon_key"]  # repeats a good row's id
                dups.append(row)
                continue
            if code == "MISSING_FIELD":
                row["db_od"] = ""
            elif code == "BAD_NUMBER":
                row["clay_tot_psa"] = "n.d."
            elif code == "TEXTURE_SUM":
                row["silt_tot_psa"] = repr(round(float(row["silt_tot_psa"]) + 4.0, 1))
            elif key == "ingest:NO_OBSERVATIONS":
                for col in RAW_THETA.values():
                    row[col] = ""
            elif code == "BD_RANGE":
                row["db_od"] = "2.35"
            elif code in ("THETA_GT_ONE", "THETA_GT_0_6"):
                # one value goes (1.2 at 100 cm, 0.65 at 330 cm); the row stays
                col, value = (("w1bar_g", 1.2) if code == "THETA_GT_ONE"
                              else ("w3bar_g", 0.65))
                row[col] = ""
                kept[row["pedon_key"]] = expected_sample(row)
                row[col] = repr(round(value / b, 4))
            elif code == "FC_LT_WP":
                row["w3bar_g"] = repr(round(0.10 / b, 4))
                row["w15bar_g"] = repr(round(0.20 / b, 4))
            elif key == "qa:NO_OBSERVATIONS":  # its only value exceeds 1
                for col in RAW_THETA.values():
                    row[col] = ""
                row["w1bar_g"] = repr(round(1.1 / b, 4))
                removed["qa:THETA_GT_ONE"] += 1
            rows.append(row)

    # shuffle; each duplicate goes somewhere after the row whose id it repeats
    final = [rows[j] for j in rng.permutation(len(rows))]
    for dup in dups:
        first = next(p for p, r in enumerate(final) if r["pedon_key"] == dup["pedon_key"])
        final.insert(int(rng.integers(first + 1, len(final) + 1)), dup)

    with open(os.path.join(out, "raw.tsv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RAW_COLUMNS, delimiter="\t",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(final)
    with open(os.path.join(out, "schema.txt"), "w", encoding="utf-8") as fh:
        fh.write(SCHEMA)

    weights = np.array([TRUE_MIX.get(m, 0.0) for m in MEMBERS]) * 0.9 + 0.1 / len(MEMBERS)
    weights /= weights.sum()
    with open(os.path.join(out, "weights.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# members = " + ",".join(MEMBERS) + "\n")
        fh.write("ptf_id\tweight\n")
        for m, w in zip(MEMBERS, weights):
            fh.write(f"{m}\t{float(w)!r}\n")

    in_file_order = [kept[r["pedon_key"]] for r in final
                     if r["pedon_key"] in kept and not any(r is d for d in dups)]
    return {"seed": seed, "kept": in_file_order,
            "removed": removed, "weights": dict(zip(MEMBERS, weights.tolist())),
            "psi": PREDICT_PSI, "items": len(in_file_order) * len(PREDICT_PSI)}


def write_grid(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {values.shape[1]}\nnrows {values.shape[0]}\nxllcorner -10.0\n"
                 f"yllcorner 35.0\ncellsize 0.05\nNODATA_value {NODATA!r}\n")
        for row in values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def gen_map(rng, out, seed):
    n = MAP_ROWS * MAP_COLS
    sand, silt, clay = texture_rows(rng, n)
    layers = {"sand": sand, "silt": silt, "clay": clay,
              "bd": np.round(rng.uniform(1.0, 1.7, n), 2),
              "oc": np.round(rng.uniform(0.2, 4.0, n), 2)}
    cells = rng.permutation(n)
    planted = np.zeros(n, dtype=bool)
    pos = 0
    for name in GRID_LAYERS:  # disjoint cell sets, so the valid count is fixed
        hit = cells[pos:pos + MAP_NODATA_PER_LAYER]
        pos += MAP_NODATA_PER_LAYER
        layers[name] = layers[name].copy()
        layers[name][hit] = NODATA
        planted[hit] = True
    off = cells[pos:pos + MAP_OFF_SUM]
    layers["silt"][off] = np.round(layers["silt"][off] + 5.0, 1)
    planted[off] = True
    for name in GRID_LAYERS:
        write_grid(os.path.join(out, f"{name}.asc"), layers[name].reshape(MAP_ROWS, MAP_COLS))
    np.save(os.path.join(out, "planted_mask.npy"), planted.reshape(MAP_ROWS, MAP_COLS))

    base = np.array([TRUE_MIX.get(m, 0.0) for m in MEMBERS])
    reps = rng.dirichlet(60.0 * base + 0.4, size=MAP_REPLICAS)
    with open(os.path.join(out, "replicas.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# members = " + ",".join(MEMBERS) + "\n")
        fh.write("# replicas = %d\n" % MAP_REPLICAS)
        fh.write("stratum\treplica\tcal_rmse\tval_rmse\t"
                 + "\t".join(f"w_{m}" for m in MEMBERS) + "\n")
        for r, w in enumerate(reps):
            fh.write(f"global\t{r}\t{rng.uniform(0.03, 0.05)!r}\t"
                     f"{rng.uniform(0.03, 0.06)!r}\t"
                     + "\t".join(repr(float(v)) for v in w) + "\n")
    return {"seed": seed, "replicas": MAP_REPLICAS, "nodata": NODATA,
            "shape": [MAP_ROWS, MAP_COLS], "items": int(n - planted.sum())}


def main():
    parser = argparse.ArgumentParser(description="generate benchmark inputs")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    write_networks(rng, os.path.join(args.out, "nets"))
    if args.workload == "calibrate":
        truth = gen_calibrate(rng, args.out, args.seed)
    else:  # apply: a raw sample export and a set of grids, in one directory
        truth = {"seed": args.seed, "points": gen_points(rng, args.out, args.seed),
                 "map": gen_map(rng, args.out, args.seed)}
    truth["workload"] = args.workload
    with open(os.path.join(args.out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)


if __name__ == "__main__":
    main()
