"""Pipeline benchmark of the ptfens command line: one run of one workload.

    python3 pipebench/run.py --workload calibrate --seed 1 --seconds 50 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 50

Run from the repository root. The inputs of (workload, seed) are generated
by gen.py in a process of their own and cached under .pipebench_cache/. Set-up
time is measured over several fresh interpreters; then one fresh worker
process calls `ptfens.cli.main` for the workload's stages in whole rounds for
--seconds, and its outputs are checked. The last line of standard output is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).

Every process started here runs with BLAS and OpenMP pinned to one thread.
Exits 2, printing no result, when the program's source is not under src/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("calibrate", "apply")
SETUP_PROBES = 12
TIME_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_rows": "rows", "_points": "points",
                   "_genome_points": "points", "_values": "values", "_bytes": "bytes",
                   "_minflt": "faults", "_mb": "MB", "_cells": "cells"}


def per_layer_unit(name):
    for suffix in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return PER_LAYER_UNITS[suffix]
    raise ValueError(f"no unit for {name}")


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, deadline, **kwargs):
    """Run a child to its end; its time counts against the run's deadline."""
    return subprocess.run(argv, env=env, timeout=max(1.0, deadline - time.monotonic()),
                          check=True, **kwargs)


def inputs_for(root, workload, seed, env, deadline):
    """Directory of the generated inputs, generating them on first use."""
    h = hashlib.sha256()
    for name in ("gen.py", "reference.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            h.update(fh.read())
    dest = os.path.join(root, ".pipebench_cache", f"{workload}-seed{seed}-{h.hexdigest()[:12]}")
    if not os.path.isdir(dest):
        tmp = f"{dest}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        run_child([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                   "--seed", str(seed), "--out", tmp], env, deadline)
        os.replace(tmp, dest)
    return dest


def host_steal_s():
    """Steal time of all vCPUs so far, from /proc/stat; None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_probe(env, deadline):
    t0 = time.monotonic()
    done = run_child([sys.executable, os.path.join(HERE, "worker.py"), "--probe",
                      "--t0", repr(t0)], env, deadline, stdout=subprocess.PIPE, text=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(root, workload, seed, seconds, trace, env, deadline):
    inputs = inputs_for(root, workload, seed, env, deadline)
    setups = [setup_probe(env, deadline) for _ in range(SETUP_PROBES)]
    out = os.path.join(root, ".pipebench_runs", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    steal0 = host_steal_s()
    t0 = time.monotonic()
    run_child([sys.executable, os.path.join(HERE, "worker.py"), "--t0", repr(t0),
               "--workload", workload, "--inputs", inputs,
               "--out", os.path.join(out, "stages"), "--seconds", str(seconds),
               "--trace", str(trace), "--result", result_path], env, deadline)
    steal1 = host_steal_s()
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    setups.append(res["setup_s"])

    wall_s = statistics.median(res["walls"])
    if trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in res["layers"].items()}
    else:
        values = {"wall_s": wall_s, "items_per_s": res["items"] / wall_s,
                  "peak_rss_mb": res["peak_rss_mb"], "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    steal = None if steal0 is None or steal1 is None else steal1 - steal0

    print(f"# workload={workload} seed={seed} trace={trace} stages={','.join(res['stages'])} "
          f"rounds={len(res['walls']) + len(res.get('traced_walls', []))} "
          f"items/round={res['items']} host_steal_s="
          f"{'n/a' if steal is None else format(steal, '.2f')}")
    print(f"# round walls (s): {' '.join(f'{w:.3f}' for w in res['walls'])}")
    if trace:
        print(f"# traced round walls (s): "
              f"{' '.join(f'{w:.3f}' for w in res['traced_walls'])}")
    for name, m in metrics.items():
        print(f"#   {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"# attempted={res['attempted']} failed={res['failed']} "
          f"checks={'ok' if not res['check_failures'] else 'FAILED'}")
    for note in res["check_notes"]:
        print(f"# {note}")
    for fail in res["check_failures"]:
        print(f"# check failed: {fail}")
    return {"correct": not res["check_failures"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure; whole rounds are run until it passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ptfens", "cli.py")):
        print("pipebench: no src/ptfens/cli.py under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            result = run_workload(root, workload, args.seed, args.seconds, args.trace,
                                  env, deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"pipebench: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
