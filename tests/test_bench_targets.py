"""Every function the pipeline benchmark traces by name exists in the package.

pipebench/tracer.py wraps package functions by (module, attribute); a target
that a refactor renames or deletes is a failed benchmark check. This test
fails first, in the unit suite.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "pipebench", "tracer.py")


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
