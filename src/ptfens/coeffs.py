"""Loaders for the coefficient data files shipped under ptfens/data/.

Three file kinds, all delimited text with `#` citation comments:

* class tables: header `class,<param columns>`, one row per USDA class; the
  parameter family is inferred from the column names.
* term regressions: header `target,transform,term,coefficient`; a target is
  the sum of coefficient * term over its rows, run through its transform.
  A term is `1` or `*`-joined factors, each `var`, `var^k`, `ln(var)` or
  `inv(var)`.
* constant lists: header `name,value`.
"""

import csv
import hashlib
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Mapping

import numpy as np

from .errors import DataError
from .retention import (
    BrooksCoreyParams,
    CampbellParams,
    RetentionParams,
    VanGenuchtenParams,
)

_CLASS_FAMILIES = {
    frozenset(("theta_r", "theta_s", "alpha", "n")): VanGenuchtenParams,
    frozenset(("theta_r", "theta_s", "psi_b", "lambda")): BrooksCoreyParams,
    frozenset(("theta_s", "psi_e", "b")): CampbellParams,
}

TRANSFORMS = {
    "identity": lambda x: x,
    "exp": np.exp,
    "pow10": lambda x: np.power(10.0, x),
    "one_plus_exp": lambda x: 1.0 + np.exp(x),
}


def _data_root():
    return resources.files("ptfens").joinpath("data")


def _read_rows(name):
    """Delimited rows of a data file, comments and blank lines stripped."""
    text = _data_root().joinpath(name).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    comments = [ln.lstrip("# ").strip() for ln in text.splitlines() if ln.lstrip().startswith("#")]
    return list(csv.reader(lines)), comments


def data_file_hashes():
    """sha256 of every shipped data file, for run manifests."""
    out = {}
    for entry in sorted(_data_root().iterdir(), key=lambda e: e.name):
        if entry.is_file():
            out[entry.name] = hashlib.sha256(entry.read_bytes()).hexdigest()
    return out


@dataclass(frozen=True)
class ClassLookupTable:
    """Per-USDA-class retention parameters for one lookup-type PTF."""

    ptf: str
    provenance: str
    entries: Mapping[str, RetentionParams]


@cache
def load_class_table(name, ptf):
    rows, comments = _read_rows(name)
    header = [h.strip() for h in rows[0]]
    if header[0] != "class":
        raise DataError(f"{name}: first column must be 'class', got {header[0]!r}")
    cols = frozenset(header[1:])
    try:
        family = _CLASS_FAMILIES[cols]
    except KeyError:
        raise DataError(f"{name}: unrecognized parameter columns {sorted(cols)}") from None

    entries = {}
    for row in rows[1:]:
        values = dict(zip(header, (v.strip() for v in row)))
        cls = values.pop("class")
        kwargs = {("lambda_" if k == "lambda" else k): float(v) for k, v in values.items()}
        entries[cls] = family(**kwargs)
    provenance = comments[0] if comments else ""
    return ClassLookupTable(ptf=ptf, provenance=provenance, entries=entries)


@cache
def load_regression(name):
    """{target: (transform name, tuple of (term, coefficient))} from a file."""
    rows, _ = _read_rows(name)
    header = [h.strip() for h in rows[0]]
    if header != ["target", "transform", "term", "coefficient"]:
        raise DataError(f"{name}: bad regression header {header}")
    spec = {}
    for target, transform, term, coeff in ((c.strip() for c in row) for row in rows[1:]):
        if transform not in TRANSFORMS:
            raise DataError(f"{name}: unknown transform {transform!r}")
        entry = spec.setdefault(target, (transform, []))
        if entry[0] != transform:
            raise DataError(f"{name}: inconsistent transform for target {target!r}")
        entry[1].append((term, float(coeff)))
    return {t: (tr, tuple(terms)) for t, (tr, terms) in spec.items()}


@cache
def load_constants(name):
    rows, _ = _read_rows(name)
    header = [h.strip() for h in rows[0]]
    if header != ["name", "value"]:
        raise DataError(f"{name}: bad constants header {header}")
    return {key.strip(): float(val) for key, val in rows[1:]}


@cache
def _term_factors(term):
    """(text, function, variable) per factor of a term, parsed once; 1 has none."""
    factors = []
    for text in () if term == "1" else (f.strip() for f in term.split("*")):
        head, _, rest = text.partition("(")
        if head in ("ln", "inv") and text.endswith(")"):
            fn, var = (np.log if head == "ln" else np.reciprocal), rest[:-1]
        else:
            var, _, power = text.partition("^")
            fn = (lambda x, k=int(power): x ** k) if power else (lambda x: x)
        factors.append((text, fn, var.strip()))
    return tuple(factors)


def eval_regression(spec, variables):
    """Evaluate every target of a loaded regression on arrays of predictors,
    each distinct factor once; a product starts from its first factor."""
    n = len(next(iter(variables.values())))
    values, out = {}, {}
    for target, (transform, terms) in spec.items():
        acc = np.zeros(n, dtype=np.float64)
        for term, coeff in terms:
            prod = None
            for text, fn, var in _term_factors(term):
                if text not in values:
                    if var not in variables:
                        raise DataError(f"regression term {term!r} needs variable {var!r}")
                    values[text] = fn(variables[var])
                prod = values[text] if prod is None else prod * values[text]
            acc += coeff if prod is None else coeff * prod
        out[target] = TRANSFORMS[transform](acc)
    return out
