"""Command line interface.

Subcommands: ingest, evaluate, calibrate, predict, map. Global flags:
--config (key = value file), --seed, --out, --rosetta-dir. Explicit flags
win over config-file values, which win over defaults. Every run writes a
manifest.json into the output directory recording the settings, the sha256
of each input file, and the sha256 of every shipped coefficient file; the
manifest carries no timestamps so identical runs produce identical bytes.

Exit codes: 0 success, 1 usage or configuration problem (an output file
that cannot be written too), 2 bad input data, 3 internal error.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, _kernels, coeffs, dataset, ensemble, mapping, metrics
from .errors import ConfigError, DataError, key_value_lines
from .ptf import (ALL_PTFS, GROUPS, LAYER_LIMITS, PREDICTOR_FIELDS, PtfId, clear_ann_registry,
                  load_rosetta_weights, profile_arrays)
from .texture import TEXTURE_SUM_TOLERANCE, USDA_CLASSES


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):  # well under a map block
            digest.update(chunk)
    return digest.hexdigest()


def read_config(path):
    """key = value file; # comments and blank lines ignored."""
    return {key: value for _, key, value in key_value_lines(path, ConfigError)}


class _Settings:
    """Flag > config file > default, with casting and an audit trail."""

    def __init__(self, args, config):
        self.args = vars(args)
        self.config = config
        self.used = {}

    def get(self, name, default=None, cast=str):
        value = self.args.get(name)
        if value is None and name in self.config:
            raw = self.config[name]
            try:
                value = cast(raw) if cast is not bool else _parse_bool(raw)
            except ValueError:
                raise ConfigError(f"config key {name!r}: bad value {raw!r}") from None
        if value is None:
            value = default
        self.used[name] = value
        return value


def _parse_bool(raw):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _require_file(path, what):
    if path is None:
        raise ConfigError(f"missing required {what}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} is not a file: {path}")
    return path


def _select_members(settings):
    """The --members or --group selection, else all members. A value given
    empty (flag or config file), or an id given twice, is a ConfigError."""
    members = settings.get("members")
    group = settings.get("group")
    if members is not None and group is not None:
        raise ConfigError("--members and --group are mutually exclusive")
    if group is not None:
        key = group.strip().upper()
        if key not in GROUPS:
            raise ConfigError(f"bad --group {group!r}: choose from {sorted(GROUPS)}")
        return GROUPS[key]
    if members is None:
        return ALL_PTFS
    if not members.strip():
        raise ConfigError(f"bad --members {members!r}: no PTF id given")
    out = []
    for name in members.split(","):
        name = name.strip()
        try:
            out.append(PtfId(name))
        except ValueError:
            valid = ", ".join(p.value for p in ALL_PTFS)
            raise ConfigError(f"unknown PTF {name!r}; valid ids: {valid}") from None
    for m in out:
        if out.count(m) > 1:
            raise ConfigError(f"bad --members {members!r}: {m.value} is given twice")
    return tuple(out)


def _write_manifest(out_dir, command, settings, input_paths):
    manifest = {
        "package": "ptfens",
        "version": __version__,
        "command": command,
        "settings": {k: (str(v) if isinstance(v, tuple) else v)
                     for k, v in settings.used.items()},
        "input_hashes": {str(p): _sha256(p) for p in input_paths if p and os.path.exists(p)},
        "coefficient_files": coeffs.data_file_hashes(),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_rosetta(settings):
    """Register the networks of --rosetta-dir; the paths of the files read."""
    directory = settings.get("rosetta_dir")
    if not directory:
        return []
    if not os.path.isdir(directory):
        raise ConfigError(f"rosetta weight directory not found: {directory}")
    return [os.path.join(directory, f"{ptf.value}.ann")
            for ptf in load_rosetta_weights(directory)]


def _psi_list(settings):
    raw = settings.get("psi", "0,330,15000")
    try:
        heads = [float(p) for p in str(raw).split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad --psi list {raw!r}") from None
    if not heads:
        raise ConfigError(f"bad --psi list {raw!r}: no suction given")
    if not all(0.0 <= h < np.inf for h in heads):  # NaN fails too
        raise ConfigError(f"bad --psi list {raw!r}: suction must be finite and >= 0 cm")
    return heads


def _profile_arrays(settings, topsoil):
    """predict_batch keyword arrays of the predict flags, a batch of one. A
    value that ingest rejects or map makes nodata, or an unknown texture
    class, is a ConfigError naming its flag."""
    values = {name: settings.get(name, None, float) for name in PREDICTOR_FIELDS}
    for name, value in values.items():
        limit = LAYER_LIMITS.get(name)
        if value is not None and not (0.0 <= value <= limit if limit else 0.0 <= value < np.inf):
            raise ConfigError(f"bad --{name.replace('_', '-')} {value!r}: must be "
                              + (f"in [0, {limit:g}]" if limit else "finite and >= 0"))
    fractions = [values[name] for name in ("sand", "silt", "clay")]
    if None not in fractions and abs(sum(fractions) - 100.0) > TEXTURE_SUM_TOLERANCE:
        raise ConfigError(f"bad --sand/--silt/--clay {'/'.join(map(repr, fractions))}: "
                          f"must sum to 100 +/- {TEXTURE_SUM_TOLERANCE}")
    texture_class = settings.get("texture_class")
    if texture_class is not None and texture_class not in USDA_CLASSES:
        raise ConfigError(f"bad --texture-class {texture_class!r}: must be one of "
                          f"{', '.join(USDA_CLASSES)}")
    return profile_arrays(**values, texture_class=texture_class, topsoil=topsoil)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(settings, out_dir):
    data = _require_file(settings.get("data"), "input data file (--data)")
    schema_path = _require_file(settings.get("schema"), "schema file (--schema)")
    schema = dataset.read_schema(schema_path)
    result = dataset.ingest(data, schema)
    qa = dataset.qa_filter(result.samples)

    dataset.write_samples(os.path.join(out_dir, "samples.csv"), qa.kept)
    dataset.write_removals(os.path.join(out_dir, "removed.csv"),
                           result.removals + qa.removals)
    _write_manifest(out_dir, "ingest", settings, [data, schema_path])
    print(f"rows={result.n_rows} ingested={len(result.samples)} "
          f"kept={len(qa.kept)} removed_ingest={len(result.removals)} "
          f"removed_qa={len(qa.removals)}")
    return 0


def cmd_evaluate(settings, out_dir):
    data = _require_file(settings.get("data"), "input data file (--data)")
    nets = _load_rosetta(settings)
    samples = dataset.read_samples(data)
    if not samples:
        raise DataError(f"{data}: no samples")
    members = _select_members(settings)
    weights_path = settings.get("weights")
    vector = (ensemble.read_weights(_require_file(weights_path, "weight file (--weights)"))[0]
              if weights_path else None)

    # each selected or weight member is predicted once; a selected member that
    # fails is not evaluable, a weight member that fails fails the run
    fits = {}
    member_rows = {}
    failures = {}
    for m in dict.fromkeys(members + (vector.members if vector else ())):
        try:
            preds, observed, _ = ensemble.point_matrix([m], samples)
        except DataError as exc:
            if vector and m in vector.members:
                raise
            failures[m] = str(exc)
            continue
        member_rows[m] = preds[0]
        if m in members:
            fits[m] = metrics.FitSummary.from_predictions(preds[0], observed, n_params=1)

    if not fits:
        raise DataError("no member was evaluable on this dataset")
    n_points = next(iter(fits.values())).n_points
    context = metrics.SelectionContext.from_j_values(
        [fit.j for fit in fits.values()], n_points)

    rows = []
    for m in members:
        fit = fits.get(m)
        if fit is None:
            rows.append((m.value, None, None, None))
        else:
            rows.append((m.value, fit, metrics.aic(fit, context),
                         metrics.aicc(fit, context)))

    if vector:
        ens = _kernels.weighted_sum(vector.as_array(),
                                    np.stack([member_rows[m] for m in vector.members]))
        fit = metrics.FitSummary.from_predictions(ens, observed,
                                                  n_params=len(vector.members))
        rows.append(("ensemble", fit, metrics.aic(fit, context),
                     metrics.aicc(fit, context)))

    metrics.write_report(os.path.join(out_dir, "report.tsv"), rows)
    _write_manifest(out_dir, "evaluate", settings,
                    [data] + ([weights_path] if weights_path else []) + nets)

    print(f"n_points={n_points} j_star={context.j_star:.6f} "
          f"sigma_hat2={context.sigma_hat2:.6f}")
    for model, fit, aic_value, aicc_value in rows:
        if fit is None:
            print(f"{model:<14} not_evaluable ({failures[PtfId(model)]})")
        else:
            print(f"{model:<14} rmse={fit.rmse:.4f} j={fit.j:.3f} "
                  f"aic={aic_value:.2f} aicc={aicc_value:.2f}")
    return 0


def _stratum_filename(key):
    return "weights_" + key.replace(":", "_").replace("/", "_") + ".tsv"


def cmd_calibrate(settings, out_dir, seed):
    n_replicas = settings.get("replicas", 100, int)
    if n_replicas < 1:
        raise ConfigError(f"--replicas must be at least 1, got {n_replicas}")
    scheme = settings.get("scheme", "global")
    if scheme != "global":
        min_points = settings.get("min_stratum_points", 50, int)
        if min_points < 1:
            raise ConfigError(f"--min-stratum-points must be at least 1, got {min_points}")
    data = _require_file(settings.get("data"), "input data file (--data)")
    nets = _load_rosetta(settings)
    samples = dataset.read_samples(data)
    members = _select_members(settings)
    meta_base = {"members": ",".join(m.value for m in members),
                 "replicas": n_replicas, "seed": seed, "scheme": scheme}

    model = None
    if scheme == "global":
        calibrations = {ensemble.GLOBAL_STRATUM: ensemble.calibrate(
            members, samples, n_replicas=n_replicas, seed=seed)}
    else:
        if scheme not in dataset.STRATIFICATION_SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; choose global or one of "
                              f"{dataset.STRATIFICATION_SCHEMES}")
        oc_edges = dataset.DEFAULT_OC_EDGES
        raw_edges = settings.get("oc_edges")
        if raw_edges:
            try:
                oc_edges = tuple(float(e) for e in str(raw_edges).split(","))
            except ValueError:
                raise ConfigError(f"bad --oc-edges list {raw_edges!r}") from None
        if scheme == "oc":
            meta_base["oc_edges"] = ",".join(map(repr, oc_edges))
        model = ensemble.calibrate_stratified(
            members, samples, scheme, n_replicas=n_replicas, seed=seed,
            min_stratum_points=min_points,
            oc_edges=oc_edges)
        calibrations = model.calibrations

    for key, result in calibrations.items():
        cal_rmse, val_rmse = result.mean_cal_rmse, result.mean_val_rmse
        ensemble.write_weights(
            os.path.join(out_dir, _stratum_filename(key)), result.mean_weights,
            meta={**meta_base, "stratum": key, "mean_cal_rmse": cal_rmse,
                  "mean_val_rmse": val_rmse})
        print(f"stratum={key} points={result.n_points} cal_rmse={cal_rmse:.4f} "
              f"val_rmse={val_rmse if val_rmse is None else format(val_rmse, '.4f')}")
    if model is not None:
        for key in model.below_threshold:
            print(f"stratum={key} below min_stratum_points, uses global fallback")
        print(f"pooled_rmse_stratified={model.pooled_rmse_stratified:.4f} "
              f"pooled_rmse_global={model.pooled_rmse_global:.4f} "
              f"n_params={model.n_params}")

    ensemble.write_replica_table(os.path.join(out_dir, "replicas.tsv"),
                                 calibrations, meta=meta_base)
    with open(os.path.join(out_dir, "summary.tsv"), "w", encoding="utf-8") as fh:
        fh.write("stratum\tptf_id\tmean_weight\tweight_std\n")
        for key, result in calibrations.items():
            for m, w, s in zip(result.members, result.mean_weights.weights,
                               result.weight_std):
                fh.write(f"{key}\t{m.value}\t{w!r}\t{s!r}\n")
    _write_manifest(out_dir, "calibrate", settings, [data] + nets)
    return 0


def cmd_predict(settings, out_dir):
    weights_path = _require_file(settings.get("weights"), "weight file (--weights)")
    nets = _load_rosetta(settings)
    vector, _ = ensemble.read_weights(weights_path)
    psi_values = _psi_list(settings)
    topsoil = settings.get("topsoil", True, bool)
    data = settings.get("data")
    if data:
        samples = dataset.read_samples(_require_file(data, "input data file (--data)"))
        ids, theta = samples.ids, ensemble.samples_theta(vector, samples, psi_values, topsoil)
    else:  # a profile is a batch of one on the same path
        ids, theta = ["record"], ensemble.ensemble_theta(
            vector, psi_values, **_profile_arrays(settings, topsoil))
    rows = [(sid, psi, t) for sid, sample in zip(ids, theta.tolist())
            for psi, t in zip(psi_values, sample)]

    with open(os.path.join(out_dir, "predictions.tsv"), "w", encoding="utf-8") as fh:
        fh.write("sample_id\tpsi\ttheta\n")
        for sid, psi, theta in rows:
            fh.write(f"{sid}\t{psi:g}\t{theta!r}\n")
    _write_manifest(out_dir, "predict", settings,
                    [weights_path] + ([data] if data else []) + nets)
    for sid, psi, theta in rows:
        print(f"{sid}\tpsi={psi:g}\ttheta={theta:.6f}")
    return 0


def cmd_map(settings, out_dir, seed):
    table_path = _require_file(settings.get("weights"),
                               "replica weight table (--weights)")
    nets = _load_rosetta(settings)
    members, strata, _ = ensemble.read_replica_table(table_path)
    stratum = settings.get("stratum", ensemble.GLOBAL_STRATUM)
    if stratum not in strata:
        raise DataError(f"{table_path}: no stratum {stratum!r}; "
                        f"available: {', '.join(sorted(strata))}")
    replicas = sorted(strata[stratum], key=lambda r: r.index)
    vectors = [r.weights for r in replicas]

    paths = {}
    for field, flag in (("sand", "sand_grid"), ("silt", "silt_grid"),
                        ("clay", "clay_grid"), ("bulk_density", "bd_grid"),
                        ("organic_carbon", "oc_grid")):
        path = settings.get(flag)
        if path or field in ("sand", "silt", "clay"):
            paths[field] = _require_file(path, f"--{flag.replace('_', '-')}")
    counts = mapping.map_files(paths, vectors, out_dir,
                               topsoil=settings.get("topsoil", True, bool))
    _write_manifest(out_dir, "map", settings, [table_path] + list(paths.values()) + nets)
    print(f"stratum={stratum} replicas={len(vectors)} "
          f"valid_cells={counts['n_valid_cells']} "
          f"missing_layer_cells={counts['missing_layer_cells']} "
          f"texture_sum_cells={counts['texture_sum_cells']} "
          f"negative_fraction_cells={counts['negative_fraction_cells']} "
          f"out_of_range_cells={counts['out_of_range_cells']} "
          f"zero_mean_cv_cells={counts['cv_zero_mean_cells']}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = _ArgumentParser(prog="ptfens",
                             description="Soil water retention ensembles: point "
                                         "predictors, calibration, and mapping.")
    parser.add_argument("--version", action="version",
                        version=f"ptfens {__version__}")
    common = _ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")
    common.add_argument("--seed", type=int, help="master random seed (default 0)")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--rosetta-dir",
                        help="directory with rosetta_*.ann network weight files")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", parents=[common],
                       help="read, convert and quality-filter retention data")
    p.add_argument("--data", help="delimited source data file")
    p.add_argument("--schema", help="column-mapping schema file")

    p = sub.add_parser("evaluate", parents=[common],
                       help="score predictors against observed retention data")
    p.add_argument("--data", help="canonical sample file from ingest")
    p.add_argument("--members", help="comma-separated PTF ids")
    p.add_argument("--group", help="member preset: A, B, C or D")
    p.add_argument("--weights", help="also score this calibrated weight vector")

    p = sub.add_parser("calibrate", parents=[common],
                       help="bootstrap-calibrate ensemble weights")
    p.add_argument("--data", help="canonical sample file from ingest")
    p.add_argument("--members", help="comma-separated PTF ids")
    p.add_argument("--group", help="member preset: A, B, C or D")
    p.add_argument("--replicas", type=int, help="bootstrap replica count (default 100)")
    p.add_argument("--scheme",
                   help="global (default), texture, oc, order, temperature, pressure")
    p.add_argument("--min-stratum-points", type=int,
                   help="smallest stratum calibrated separately (default 50)")
    p.add_argument("--oc-edges", help="organic-carbon bin edges, percent")

    p = sub.add_parser("predict", parents=[common],
                       help="predict water content with calibrated weights")
    p.add_argument("--weights", help="weight vector file from calibrate")
    p.add_argument("--data", help="canonical sample file for batch prediction")
    p.add_argument("--psi", help="comma-separated suctions in cm (default 0,330,15000)")
    p.add_argument("--sand", type=float)
    p.add_argument("--silt", type=float)
    p.add_argument("--clay", type=float)
    p.add_argument("--bulk-density", type=float)
    p.add_argument("--organic-carbon", type=float)
    p.add_argument("--texture-class")
    p.add_argument("--topsoil", type=int, choices=(0, 1))

    p = sub.add_parser("map", parents=[common],
                       help="apply a calibrated ensemble to gridded soil layers")
    p.add_argument("--weights", help="replica weight table from calibrate")
    p.add_argument("--stratum", help="stratum to map (default global)")
    p.add_argument("--sand-grid")
    p.add_argument("--silt-grid")
    p.add_argument("--clay-grid")
    p.add_argument("--bd-grid")
    p.add_argument("--oc-grid")
    p.add_argument("--topsoil", type=int, choices=(0, 1))
    return parser


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")

        config = {}
        if args.config:
            _require_file(args.config, "config file (--config)")
            config = read_config(args.config)
        settings = _Settings(args, config)

        seed = settings.get("seed", 0, int)
        if seed < 0:
            raise ConfigError("--seed must be non-negative")
        out_dir = settings.get("out", ".")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory (--out) {out_dir}: "
                              f"{exc.strerror}") from None
        clear_ann_registry()  # a run uses only the networks of its own --rosetta-dir

        if args.command == "ingest":
            return cmd_ingest(settings, out_dir)
        if args.command == "evaluate":
            return cmd_evaluate(settings, out_dir)
        if args.command == "calibrate":
            return cmd_calibrate(settings, out_dir, seed)
        if args.command == "predict":
            return cmd_predict(settings, out_dir)
        if args.command == "map":
            return cmd_map(settings, out_dir, seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be written: readers raise their own errors
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if os.environ.get("PTFENS_DEBUG"):
            raise
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
