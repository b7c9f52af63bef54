"""Re-measure the reference configurations the benchmark was sized from.

    python3 pipebench/refigures.py

Each configuration runs in a fresh process of its own (so peak RSS is its
own), with BLAS pinned to one thread, over inputs made by gen.py's helpers:

- global:  calibrate, 2000 samples x 4 heads, 11 members (all but
           rosetta_h2w/h3w), 2 replicas; also minor faults, system time and
           the share of time inside _kernels.chi2_population
- texture: calibrate --scheme texture on the same data, 2 replicas
- predict: predict --data, 2000 samples x 3 heads x 5 members
- map:     map, 400 x 500 cells with 10% nodata, 100 replicas x 5 members

Every configuration but `texture` (one run, about 16 s) runs REPEAT times,
on inputs made from SEED. Prints one line per run. Needs nothing but the
repository; writes under .pipebench_runs/refigures/.
"""

import argparse
import contextlib
import os
import resource
import subprocess
import sys
import time

FIVE = ("cosby1", "carsel", "rawls", "campbell", "wosten")
CONFIGS = ("global", "texture", "predict", "map")
SEED = 1
REPEAT = 3


def _make_inputs(name, seed, work):
    import numpy as np

    import gen

    # global and texture calibrate the same samples
    rng = np.random.default_rng([seed, 100 + CONFIGS.index(name if name != "texture" else "global")])
    if name == "map":
        n_rows, n_cols = 400, 500
        n = n_rows * n_cols
        sand, silt, clay = gen.texture_rows(rng, n)
        layers = {"sand": sand, "silt": silt, "clay": clay,
                  "bd": np.round(rng.uniform(1.0, 1.7, n), 2),
                  "oc": np.round(rng.uniform(0.2, 4.0, n), 2)}
        cells = rng.permutation(n)[: n // 10]  # 10% nodata, spread over the layers
        for k, layer in enumerate(gen.GRID_LAYERS):
            layers[layer] = layers[layer].copy()
            layers[layer][cells[k::len(gen.GRID_LAYERS)]] = gen.NODATA
        for layer in gen.GRID_LAYERS:
            gen.write_grid(os.path.join(work, f"{layer}.asc"),
                           layers[layer].reshape(n_rows, n_cols))
        w = rng.dirichlet(np.ones(len(FIVE)) * 20.0, size=100)
        with open(os.path.join(work, "replicas.tsv"), "w", encoding="utf-8") as fh:
            fh.write("stratum\treplica\tcal_rmse\tval_rmse\t"
                     + "\t".join(f"w_{m}" for m in FIVE) + "\n")
            for r, row in enumerate(w):
                fh.write(f"global\t{r}\t0.04\t0.05\t"
                         + "\t".join(repr(float(v)) for v in row) + "\n")
        return
    gen.write_networks(rng, os.path.join(work, "nets"))  # the observation mix uses rosetta_h3w
    n = 2000
    sand, silt, clay = gen.texture_rows(rng, n)
    bd = np.round(rng.uniform(1.0, 1.7, n), 2)
    oc = np.round(rng.uniform(0.2, 4.0, n), 2)
    theta = gen.true_thetas(sand, silt, clay, bd, oc, gen.CAL_HEADS, rng)
    gen.write_canonical(os.path.join(work, "samples.csv"), [f"s{i:05d}" for i in range(n)],
                        sand, silt, clay, bd, oc, gen.CAL_HEADS, theta)
    with open(os.path.join(work, "weights.tsv"), "w", encoding="utf-8") as fh:
        fh.write("ptf_id\tweight\n" + "".join(f"{m}\t0.2\n" for m in FIVE))


def _argv(name, seed, work):
    eleven = ",".join(m for m in (
        "cosby0", "carsel", "clapp", "rosetta_h1w", "cosby1", "cosby2", "rawls",
        "campbell", "wosten", "weynants", "vereecken"))
    out = ["--out", os.path.join(work, "out")]
    data = ["--data", os.path.join(work, "samples.csv")]
    if name == "global":
        return ["calibrate", *data, "--members", eleven, "--replicas", "2",
                "--seed", str(seed), *out]
    if name == "texture":
        return ["calibrate", *data, "--members", eleven, "--replicas", "2",
                "--scheme", "texture", "--seed", str(seed), *out]
    if name == "predict":
        return ["predict", *data, "--weights", os.path.join(work, "weights.tsv"),
                "--psi", "0,330,15000", *out]
    grids = []
    for flag, layer in (("--sand-grid", "sand"), ("--silt-grid", "silt"),
                        ("--clay-grid", "clay"), ("--bd-grid", "bd"), ("--oc-grid", "oc")):
        grids += [flag, os.path.join(work, f"{layer}.asc")]
    return ["map", "--weights", os.path.join(work, "replicas.tsv"), *grids, *out]


def one(name, seed, work, make):
    """Child process: make the inputs (first run only) or time one CLI call."""
    if make:
        os.makedirs(work, exist_ok=True)
        _make_inputs(name, seed, work)
        return 0
    import ptfens.cli as cli
    import tracer as tracing

    tracer = None
    if name == "global":  # time inside chi2_population, from a wrapper
        tracer = tracing.Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        rc = cli.main(_argv(name, seed, work))
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    line = (f"{name:<8} rc={rc} wall_s={wall:.2f} "
            f"minflt={after.ru_minflt - before.ru_minflt} "
            f"sys_s={after.ru_stime - before.ru_stime:.2f} "
            f"user_s={after.ru_utime - before.ru_utime:.2f} "
            f"peak_rss_mb={after.ru_maxrss / 1024:.0f}")
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, 0)
        line += (f" chi2_population_share="
                 f"{layers['kernels.chi2_population_s'] / wall:.2f}")
    print(line, flush=True)
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=CONFIGS, help=argparse.SUPPRESS)
    parser.add_argument("--make", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ptfens", "cli.py")):
        print("refigures: run from the repository root", file=sys.stderr)
        return 2
    base = os.path.join(root, ".pipebench_runs", "refigures")
    if args.child:
        return one(args.child, SEED, os.path.join(base, args.child), args.make)

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    me = [sys.executable, os.path.abspath(__file__)]
    for name in CONFIGS:
        if not os.path.isdir(os.path.join(base, name)):
            subprocess.run(me + ["--child", name, "--make"], env=env, check=True)
        for _ in range(REPEAT if name != "texture" else 1):
            subprocess.run(me + ["--child", name], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
