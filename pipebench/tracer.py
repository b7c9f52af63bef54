"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper in the
module where its caller looks it up (a name imported with
`from .ptf import predict_batch` is patched in the importing module too);
`uninstall()` puts the originals back. Spans stay in memory until the run
ends. Each span records its name, start, end and parent span, a work count
where the function has one, and, for the functions named in RUSAGE, the
minor page faults, system CPU time and peak RSS at its boundaries.

A target that a module no longer has, or a count that cannot be taken from
a call (a changed signature or result), is recorded in `problems`; the run
reports them as failed checks, so no per-layer metric reads a silent 0 for
work it could not trace.
"""

import os
import resource
import time

import numpy as np


def _rows(result):
    return len(result)


def _n_rows_of_ingest(result):
    return result.n_rows


def _ann_rows(args):
    return int(np.atleast_2d(args[1]).shape[0])


# (module, attribute, span name, count taken from the call)
TARGETS = (
    ("ptfens.cli", "cmd_ingest", "cli.ingest", None),
    ("ptfens.cli", "cmd_evaluate", "cli.evaluate", None),
    ("ptfens.cli", "cmd_calibrate", "cli.calibrate", None),
    ("ptfens.cli", "cmd_predict", "cli.predict", None),
    ("ptfens.cli", "cmd_map", "cli.map", None),
    ("ptfens.dataset", "ingest", "dataset.ingest", ("result", _n_rows_of_ingest)),
    ("ptfens.dataset", "qa_filter", "dataset.qa_filter", None),
    ("ptfens.ensemble", "bootstrap_split", "dataset.bootstrap_split", None),
    ("ptfens.ptf", "predict_batch", "ptf.predict_batch", ("result", _rows)),
    ("ptfens.ensemble", "predict_batch", "ptf.predict_batch", ("result", _rows)),
    ("ptfens.mapping", "predict_batch", "ptf.predict_batch", ("result", _rows)),
    ("ptfens.ensemble", "predict", "ptf.predict", None),
    ("ptfens.ptf", "ann_forward", "ann.ann_forward", ("args", _ann_rows)),
    ("ptfens.ensemble", "theta_at", "retention.theta_at", None),
    ("ptfens._kernels", "theta_points", "kernels.theta_points",
     ("args", lambda a: int(np.size(a[2])))),
    ("ptfens._kernels", "chi2_population", "kernels.chi2_population",
     ("args", lambda a: int(a[0].shape[0]) * int(np.size(a[2])))),
    ("ptfens._kernels", "replica_mean_std", "kernels.replica_mean_std",
     ("args", lambda a: int(a[0].size))),
    ("ptfens.ensemble", "optimize_weights", "ensemble.optimize_weights", None),
    ("ptfens.ensemble", "calibrate", "ensemble.calibrate", None),
    ("ptfens.ensemble", "calibrate_stratified", "ensemble.calibrate", None),
    ("ptfens.ensemble", "point_matrix", "ensemble.point_matrix", None),
    ("ptfens.ensemble", "ensemble_theta", "ensemble.ensemble_theta", None),
    ("ptfens.texture", "classify_texture_array", "texture.classify_texture_array", None),
    ("ptfens.ptf", "classify_texture_array", "texture.classify_texture_array", None),
    ("ptfens.mapping", "classify_texture_array", "texture.classify_texture_array", None),
    ("ptfens.mapping", "read_grid", "mapping.read_grid",
     ("args", lambda a: os.path.getsize(a[0]))),
    ("ptfens.mapping", "write_grid", "mapping.write_grid", ("after", None)),
    ("ptfens.mapping", "apply_ensemble_map", "mapping.apply_ensemble_map",
     ("result", lambda r: r.n_valid_cells)),
)

RUSAGE = frozenset(("ensemble.optimize_weights", "mapping.apply_ensemble_map"))

# span fields
NAME, PARENT, START, END, COUNT, MINFLT, SYS_S, MAXRSS_KB, NBYTES = range(9)


class Tracer:
    def __init__(self):
        self.spans = []      # one list per span, fields indexed as above
        self._stack = []     # indices of the open spans
        self._saved = []     # (module, attribute, original)
        self.problems = set()  # targets that could not be traced or counted

    def install(self):
        import importlib

        for mod_name, attr, span, count in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                self.problems.add(f"{mod_name}.{attr} is missing, so {span} is not traced")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, count))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, count):
        spans, stack, problems = self.spans, self._stack, self.problems
        usage = name in RUSAGE
        where, how = count if count else (None, None)

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, 0, 0.0, 0, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            if usage:
                ru = resource.getrusage(resource.RUSAGE_SELF)
                span[MINFLT], span[SYS_S], span[MAXRSS_KB] = (
                    -ru.ru_minflt, -ru.ru_stime, -ru.ru_maxrss)
            if name == "kernels.replica_mean_std":
                span[NBYTES] = int(getattr(args[0], "nbytes", 0)) if args else 0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if usage:
                    ru = resource.getrusage(resource.RUSAGE_SELF)
                    span[MINFLT] += ru.ru_minflt
                    span[SYS_S] += ru.ru_stime
                    span[MAXRSS_KB] += ru.ru_maxrss
            try:
                if where == "result":
                    span[COUNT] = how(result)
                elif where == "args":
                    span[COUNT] = how(args)
                elif where == "after":
                    span[COUNT] = os.path.getsize(args[0])
            except (AttributeError, IndexError, TypeError, OSError) as exc:
                problems.add(f"{name}: count not taken ({type(exc).__name__}: {exc})")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self):
        """Span index to aggregate from; spans before it belong to earlier rounds."""
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\tcount\tminflt\tsys_s\tmaxrss_growth_kb\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[PARENT]}\t{s[START]!r}\t{s[END]!r}\t"
                         f"{'' if s[COUNT] is None else s[COUNT]}\t{s[MINFLT]}\t"
                         f"{s[SYS_S]!r}\t{s[MAXRSS_KB]}\n")


def layer_metrics(spans, first):
    """Per-layer metrics of the spans from index `first` on (one round)."""
    total, self_s, calls, count = {}, {}, {}, {}
    minflt, sys_s, growth_kb, nbytes = {}, {}, {}, {}
    child_time = [0.0] * (len(spans) - first)
    for i in range(len(spans) - 1, first - 1, -1):  # children come after parents
        s = spans[i]
        dur = s[END] - s[START]
        if s[PARENT] >= first:
            child_time[s[PARENT] - first] += dur
        name = s[NAME]
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i - first]
        calls[name] = calls.get(name, 0) + 1
        if s[COUNT] is not None:
            count[name] = count.get(name, 0) + s[COUNT]
        minflt[name] = minflt.get(name, 0) + s[MINFLT]
        sys_s[name] = sys_s.get(name, 0.0) + s[SYS_S]
        growth_kb[name] = max(growth_kb.get(name, 0), s[MAXRSS_KB])
        nbytes[name] = max(nbytes.get(name, 0), s[NBYTES])

    def get(table, name, default=0):
        return table.get(name, default)

    return {
        "cli.ingest_s": get(total, "cli.ingest", 0.0),
        "cli.evaluate_s": get(total, "cli.evaluate", 0.0),
        "cli.predict_s": get(total, "cli.predict", 0.0),
        "cli.calibrate_s": get(total, "cli.calibrate", 0.0),
        "cli.map_s": get(total, "cli.map", 0.0),
        "dataset.ingest_s": get(total, "dataset.ingest", 0.0),
        "dataset.ingest_rows": get(count, "dataset.ingest"),
        "dataset.qa_filter_s": get(total, "dataset.qa_filter", 0.0),
        "dataset.bootstrap_split_s": get(total, "dataset.bootstrap_split", 0.0),
        "ptf.predict_batch_s": get(total, "ptf.predict_batch", 0.0),
        "ptf.predict_batch_calls": get(calls, "ptf.predict_batch"),
        "ptf.predict_batch_rows": get(count, "ptf.predict_batch"),
        "ptf.predict_calls": get(calls, "ptf.predict"),
        "ann.ann_forward_s": get(total, "ann.ann_forward", 0.0),
        "ann.ann_forward_rows": get(count, "ann.ann_forward"),
        "retention.theta_at_s": get(total, "retention.theta_at", 0.0),
        "retention.theta_at_calls": get(calls, "retention.theta_at"),
        "kernels.theta_points_s": get(total, "kernels.theta_points", 0.0),
        "kernels.theta_points_points": get(count, "kernels.theta_points"),
        "kernels.chi2_population_s": get(total, "kernels.chi2_population", 0.0),
        "kernels.chi2_population_calls": get(calls, "kernels.chi2_population"),
        "kernels.chi2_population_genome_points": get(count, "kernels.chi2_population"),
        "kernels.replica_mean_std_s": get(total, "kernels.replica_mean_std", 0.0),
        "kernels.replica_mean_std_values": get(count, "kernels.replica_mean_std"),
        "ensemble.optimize_weights_s": get(total, "ensemble.optimize_weights", 0.0),
        "ensemble.optimize_weights_self_s": get(self_s, "ensemble.optimize_weights", 0.0),
        "ensemble.optimize_weights_calls": get(calls, "ensemble.optimize_weights"),
        "ensemble.optimize_weights_minflt": get(minflt, "ensemble.optimize_weights"),
        "ensemble.optimize_weights_sys_s": get(sys_s, "ensemble.optimize_weights", 0.0),
        "ensemble.calibrate_self_s": get(self_s, "ensemble.calibrate", 0.0),
        "ensemble.point_matrix_s": get(total, "ensemble.point_matrix", 0.0),
        "ensemble.ensemble_theta_s": get(total, "ensemble.ensemble_theta", 0.0),
        "ensemble.ensemble_theta_calls": get(calls, "ensemble.ensemble_theta"),
        "texture.classify_texture_array_s": get(total, "texture.classify_texture_array", 0.0),
        "mapping.read_grid_s": get(total, "mapping.read_grid", 0.0),
        "mapping.read_grid_bytes": get(count, "mapping.read_grid"),
        "mapping.write_grid_s": get(total, "mapping.write_grid", 0.0),
        "mapping.write_grid_bytes": get(count, "mapping.write_grid"),
        "mapping.apply_ensemble_map_self_s": get(self_s, "mapping.apply_ensemble_map", 0.0),
        "mapping.apply_ensemble_map_minflt": get(minflt, "mapping.apply_ensemble_map"),
        "mapping.valid_cells": get(count, "mapping.apply_ensemble_map"),
        "mapping.apply_ensemble_map_rss_growth_mb":
            get(growth_kb, "mapping.apply_ensemble_map") / 1024.0,
        "mapping.estimate_bytes": get(nbytes, "kernels.replica_mean_std"),
    }
