"""The timed process of one benchmark run.

It imports `ptfens.cli` first and reports how long the interpreter took from
its start (the monotonic time passed in --t0) to that point: the set-up
time. With --probe it stops there. Otherwise it calls `cli.main` for each
stage of the workload, in whole rounds, until --seconds have passed, then
checks the outputs and writes a JSON result to --result.

With --trace 1, rounds alternate between traced and untraced, starting
traced, so the first traced round is the first call of every function in the
process.
"""

import sys
import time

import ptfens.cli as cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402  (after the set-up measurement)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402


# Single map calls alternate between two times (the allocator's state after
# the previous call), so a round holds two map calls.
MAP_CALLS_PER_ROUND = 2


def stages(workload, inputs, out, truth):
    """(stage name, argv) of one round."""
    nets = ["--rosetta-dir", os.path.join(inputs, "nets")]
    if workload == "calibrate":
        return [("calibrate", ["calibrate", "--data", os.path.join(inputs, "samples.csv"),
                               "--scheme", "texture", "--replicas", str(truth["replicas"]),
                               "--seed", str(truth["seed"]), *nets,
                               "--out", os.path.join(out, "calibrate")])]
    if workload == "apply":
        samples = os.path.join(out, "ingest", "samples.csv")
        weights = os.path.join(inputs, "weights.tsv")
        grids = []
        for flag, name in (("--sand-grid", "sand"), ("--silt-grid", "silt"),
                           ("--clay-grid", "clay"), ("--bd-grid", "bd"),
                           ("--oc-grid", "oc")):
            grids += [flag, os.path.join(inputs, f"{name}.asc")]
        map_stage = ("map", ["map", "--weights", os.path.join(inputs, "replicas.tsv"),
                             *grids, *nets, "--out", os.path.join(out, "map")])
        return [
            ("ingest", ["ingest", "--data", os.path.join(inputs, "raw.tsv"),
                        "--schema", os.path.join(inputs, "schema.txt"),
                        "--out", os.path.join(out, "ingest")]),
            ("evaluate", ["evaluate", "--data", samples, "--weights", weights, *nets,
                          "--out", os.path.join(out, "evaluate")]),
            ("predict", ["predict", "--data", samples, "--weights", weights,
                         "--psi", "0,330,15000", *nets,
                         "--out", os.path.join(out, "predict")]),
        ] + [map_stage] * MAP_CALLS_PER_ROUND
    raise ValueError(f"unknown workload {workload!r}")


def digest(directory):
    """sha256 of every output file, to show same-input rounds give the same bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# per-layer metrics that count work: they must repeat exactly from round to round
def _is_count(name):
    return name.endswith(("_calls", "_rows", "_points", "_values", "_bytes")) or \
        name == "mapping.valid_cells"


def combine_rounds(rounds):
    """One value per per-layer metric over the traced rounds: counts must agree
    and are reported as they are, peak-RSS growth is the first call's, and
    times and fault counts are medians."""
    out, unsteady = {}, []
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if _is_count(name):
            if len(set(values)) != 1:
                unsteady.append(f"{name} {values}")
            out[name] = values[0]
        elif name == "mapping.apply_ensemble_map_rss_growth_mb":
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unsteady


def main():
    parser = argparse.ArgumentParser(description="one timed benchmark run")
    parser.add_argument("--t0", type=float, required=True,
                        help="monotonic time just before this process was started")
    parser.add_argument("--probe", action="store_true", help="only report set-up time")
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    setup_s = IMPORTED - args.t0
    if args.probe:
        print(repr(setup_s))
        return 0

    import checks
    import tracer as tracing

    with open(os.path.join(args.inputs, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    plan = stages(args.workload, args.inputs, args.out, truth)
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, traced_layers = [], [], []
    attempted = failed = 0
    digests = []
    with open(os.devnull, "w") as devnull:
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(walls) == len(traced_walls)
            if traced:
                tracer.install()
                mark = tracer.mark()
            t0 = time.perf_counter()
            for _, argv in plan:
                with contextlib.redirect_stdout(devnull):
                    rc = cli.main(argv)
                attempted += 1
                failed += rc != 0
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                traced_walls.append(wall)
                traced_layers.append(tracing.layer_metrics(tracer.spans, mark))
            else:
                walls.append(wall)
            digests.append(digest(args.out))
            if time.perf_counter() - start >= args.seconds and walls:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        fails, notes = checks.CHECKS[args.workload](args.inputs, args.out, truth)
    except Exception as exc:  # noqa: BLE001 - missing or malformed outputs fail the checks
        fails, notes = [f"checks could not read the outputs: {type(exc).__name__}: {exc}"], []
    if len(set(digests)) != 1:
        fails.append("outputs differ between rounds on the same inputs")
    if args.workload == "apply":  # predicted (sample, head) values and valid map cells
        items = truth["points"]["items"] + MAP_CALLS_PER_ROUND * truth["map"]["items"]
    else:
        items = truth["items"]
    result = {"setup_s": setup_s, "walls": walls, "items": items,
              "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed,
              "stages": [name for name, _ in plan], "check_failures": fails,
              "check_notes": notes}
    if tracer is not None:
        layers, unsteady = combine_rounds(traced_layers)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        result["traced_walls"] = traced_walls
        fails += [f"per-layer count differs between rounds: {u}" for u in unsteady]
        fails += [f"trace: {p}" for p in sorted(tracer.problems)]
        tracer.write(os.path.join(args.out, "spans.tsv"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
