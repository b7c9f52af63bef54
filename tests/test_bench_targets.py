"""Every package name the pipeline benchmark uses exists in the package.

pipebench/tracer.py wraps package functions by (module, attribute); a target
that a refactor renames or deletes is a failed benchmark check. The other
pipebench scripts import from ptfens; a name that a refactor deletes makes
every benchmark run fail before it measures anything. A refactor can also
leave a target in place but stop calling it, or keep calling one it should
not, so two tests check counts the tracer takes against the work the program
really does. These tests fail
first, in the unit suite.
"""

import ast
import glob
import importlib
import importlib.util
import os

import numpy as np

from ptfens import (MAP_HEADS, Grid, PtfId, SoilLayerStack, WeightVector,
                    calibrate_stratified, classify_texture_array, mapping)
from ptfens.ptf import uses_class_table
from helpers import synthetic_population

PIPEBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "pipebench")
TRACER = os.path.join(PIPEBENCH, "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, *_ in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def ptfens_names(tree):
    """Dotted names a script takes from ptfens: each `from ptfens... import
    name` and `import ptfens...`, and each attribute read off a name bound
    that way (`import ptfens.cli as cli` ... `cli.main`)."""
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "ptfens":
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = names[-1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ptfens":
                    names.append(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                node.value.id in bound:
            names.append(f"{bound[node.value.id]}.{node.attr}")
    return names


def resolve(dotted):
    """The object a dotted ptfens name refers to; raises if there is none."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:k]))  # a submodule not yet imported
        obj = getattr(obj, part)
    return obj


def test_every_benchmark_import_resolves():
    scripts = sorted(glob.glob(os.path.join(PIPEBENCH, "*.py")))
    names, missing = [], []
    for path in scripts:
        with open(path, encoding="utf-8") as fh:
            for name in ptfens_names(ast.parse(fh.read(), path)):
                names.append(name)
                try:
                    resolve(name)
                except (ImportError, AttributeError):
                    missing.append(f"{os.path.basename(path)}: {name}")
    assert names and missing == []


def test_tracer_counts_the_map_curve_points():
    """kernels.theta_points_points is the number of curve points the map
    evaluates: head 0 is read, not evaluated, and a class-table member is
    evaluated once per texture class present."""
    rng = np.random.default_rng(5)
    fractions = rng.dirichlet((1.0, 1.0, 1.0), size=(9, 8)) * 100.0
    grids = [Grid(ncols=8, nrows=9, xllcorner=0.0, yllcorner=0.0, cellsize=1.0,
                  nodata=-9999.0, values=fractions[..., i]) for i in range(3)]
    members = (PtfId.COSBY0, PtfId.CARSEL, PtfId.COSBY1, PtfId.COSBY2)
    replicas = [WeightVector.normalized(members, rng.uniform(0.1, 1.0, 4))
                for _ in range(3)]
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        product = mapping.apply_ensemble_map(SoilLayerStack(*grids), replicas)
    finally:
        tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer.spans, 0)

    n_classes = len(np.unique(classify_texture_array(*(g.values for g in grids))))
    evaluated_heads = sum(head != 0.0 for head in MAP_HEADS)
    points = sum(evaluated_heads * (n_classes if uses_class_table(m) else 72)
                 for m in members)
    assert tracer.problems == set()
    assert product.n_valid_cells == metrics["mapping.valid_cells"] == 72
    assert metrics["kernels.theta_points_points"] == points


def test_tracer_sees_one_bootstrap_per_fit_and_no_ga():
    """Stratified calibration draws one bootstrap per fit (the global one and
    each calibrated stratum, none for a stratum that falls back) and never
    reaches the genetic algorithm."""
    rng = np.random.default_rng(6)
    samples = synthetic_population(rng, 80, PtfId.COSBY1, noise=0.02)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        model = calibrate_stratified((PtfId.COSBY1, PtfId.CARSEL, PtfId.WOSTEN), samples,
                                     "texture", n_replicas=3, seed=2, min_stratum_points=20)
    finally:
        tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer.spans, 0)
    draws = sum(span[tracer_module.NAME] == "dataset.bootstrap_split"
                for span in tracer.spans)
    assert tracer.problems == set()
    assert model.strata and model.below_threshold  # both kinds of stratum occur
    assert draws == len(model.calibrations) == 1 + len(model.strata)
    assert metrics["ensemble.optimize_weights_calls"] == 0
    assert metrics["kernels.chi2_population_calls"] == 0
