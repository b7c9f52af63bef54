"""Retention-sample ingest, quality filtering and resampling.

A sample is one profile/horizon with texture fractions, optional bulk
density, organic carbon and site descriptors, and up to six water-retention
observations at the allowed pressure heads (cm of suction). Source files are
delimited text; a small key = value schema file maps source columns onto the
canonical fields and declares the water-content units.

Quality filtering applies fixed rules in a fixed order:

    1. bulk density outside [0.5, 2.0] g/cm3      -> sample removed (BD_RANGE)
    2. water content > 1 anywhere                 -> observation removed
    3. water content > 0.6 at 330 or 15000 cm     -> observation removed
    4. content at 330 below content at 15000 cm   -> sample removed (FC_LT_WP)
    5. no observations left                       -> sample removed

Rule 4 is judged on the observations that survive rules 2 and 3. Samples
without a bulk density value pass rule 1 unexamined.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, SchemaError, open_text
from .texture import TEXTURE_SUM_TOLERANCE, USDA_CLASSES, classify_texture_array

ALLOWED_HEADS = (60.0, 100.0, 330.0, 1000.0, 2000.0, 15000.0)

SOIL_ORDERS = (
    "alfisols", "andisols", "aridisols", "entisols", "gelisols", "histosols",
    "inceptisols", "mollisols", "oxisols", "spodosols", "ultisols", "vertisols",
)

TEMPERATURE_REGIMES = (
    "frigid", "hyperthermic", "isohyperthermic", "isomesic", "mesic", "thermic",
)

# organic carbon bin edges in percent; eight bins including the open ends
DEFAULT_OC_EDGES = (0.1, 0.3, 0.6, 1.0, 2.0, 4.0, 8.0)

STRATIFICATION_SCHEMES = ("texture", "oc", "order", "temperature", "pressure")

BD_MIN, BD_MAX = 0.5, 2.0
THETA_MAX = 1.0
THETA_DRY_MAX = 0.6  # cap at the 330 and 15000 cm heads

_METADATA_FIELDS = ("sample_id", "latitude", "longitude", "sand", "silt", "clay",
                    "bulk_density", "organic_carbon", "soil_order", "temperature_regime")


@dataclass(frozen=True)
class RetentionObservation:
    psi: float    # suction, cm of water, >= 0
    theta: float  # volumetric water content

    def __post_init__(self):
        if not np.isfinite(self.psi) or self.psi < 0.0:
            raise InputError(f"bad pressure head {self.psi!r}")
        if not np.isfinite(self.theta):
            raise InputError(f"bad water content {self.theta!r}")


@dataclass(frozen=True)
class SoilSample:
    sample_id: str
    sand: float
    silt: float
    clay: float
    bulk_density: float = None
    organic_carbon: float = None
    latitude: float = None
    longitude: float = None
    soil_order: str = None
    temperature_regime: str = None
    observations: tuple = ()

    def theta_at_head(self, psi):
        for obs in self.observations:
            if obs.psi == psi:
                return obs.theta
        return None


@dataclass(frozen=True)
class RemovalEntry:
    sample_id: str
    stage: str        # "ingest" or "qa"
    reason_code: str
    detail: str


@dataclass(frozen=True)
class Schema:
    """Mapping from source columns to canonical fields."""

    columns: dict           # canonical metadata field -> source column
    theta_columns: dict     # pressure head (float, cm) -> source column
    theta_units: str = "volumetric"
    required_fields: tuple = ("sand", "silt", "clay", "bulk_density")
    delimiter: str = None   # None = sniff between comma and tab

    def __post_init__(self):
        if self.theta_units not in ("volumetric", "gravimetric"):
            raise SchemaError(f"theta_units must be volumetric or gravimetric, "
                              f"got {self.theta_units!r}")
        if not self.theta_columns:
            raise SchemaError("schema maps no water-content columns")
        for head in self.theta_columns:
            if head not in ALLOWED_HEADS:
                raise SchemaError(f"unknown retention head column for psi={head:g} cm; "
                                  f"allowed heads: {ALLOWED_HEADS}")
        for field in self.required_fields:
            if field not in _METADATA_FIELDS:
                raise SchemaError(f"unknown required field {field!r}")
            if field != "sample_id" and field not in self.columns:
                raise SchemaError(f"required field {field!r} has no column mapping")
        for field in self.columns:
            if field not in _METADATA_FIELDS:
                raise SchemaError(f"unknown canonical field {field!r}")


def read_schema(path):
    """Parse a key = value schema file."""
    columns = {}
    theta_columns = {}
    options = {}
    with open_text(path, SchemaError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in ("theta_units", "delimiter", "required_fields"):
                options[key] = value
            elif key.startswith("theta_"):
                try:
                    head = float(key[len("theta_"):])
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: bad head in {key!r}") from None
                theta_columns[head] = value
            elif key in _METADATA_FIELDS:
                columns[key] = value
            else:
                raise SchemaError(f"{path}:{lineno}: unknown schema key {key!r}")
    kwargs = {}
    if "theta_units" in options:
        kwargs["theta_units"] = options["theta_units"]
    if "required_fields" in options:
        kwargs["required_fields"] = tuple(
            f.strip() for f in options["required_fields"].split(",") if f.strip()
        )
    if "delimiter" in options:
        kwargs["delimiter"] = {"tab": "\t", "\\t": "\t"}.get(options["delimiter"],
                                                             options["delimiter"])
    return Schema(columns=columns, theta_columns=theta_columns, **kwargs)


def gravimetric_to_volumetric(theta_g, bulk_density):
    """Convert gravimetric water content (g/g) to volumetric (cm3/cm3)."""
    if np.any(np.asarray(theta_g) < 0.0):
        raise InputError("gravimetric water content must be >= 0")
    if bulk_density is None or not np.all(np.isfinite(bulk_density)):
        raise InputError("bulk density required for gravimetric conversion")
    if np.any(np.asarray(bulk_density) < BD_MIN) or np.any(np.asarray(bulk_density) > BD_MAX):
        raise InputError(f"bulk density outside [{BD_MIN}, {BD_MAX}] g/cm3")
    return theta_g * bulk_density


@dataclass(frozen=True)
class IngestResult:
    samples: tuple
    removals: tuple
    n_rows: int


def _sniff_delimiter(sample_line):
    return "\t" if sample_line.count("\t") >= sample_line.count(",") else ","


def ingest(path, schema):
    """Read a delimited source file into SoilSamples, logging rejected rows."""
    with open_text(path, InputError, newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise InputError(f"{path}: empty input file")
        delimiter = schema.delimiter or _sniff_delimiter(first)
        fh.seek(0)
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or ()
        needed = set(schema.columns.values()) | set(schema.theta_columns.values())
        missing_cols = sorted(needed - set(header))
        if missing_cols:
            raise SchemaError(f"{path}: missing columns: {', '.join(missing_cols)}")

        samples = []
        removals = []
        seen_ids = set()
        n_rows = 0
        for row_num, row in enumerate(reader, start=2):
            n_rows += 1
            sid_col = schema.columns.get("sample_id")
            sid = (row.get(sid_col) or "").strip() if sid_col else ""
            if not sid:
                sid = f"r{row_num}"

            def reject(code, detail):
                removals.append(RemovalEntry(sid, "ingest", code, detail))

            if sid in seen_ids:
                reject("DUPLICATE_ID", f"sample id {sid!r} already seen")
                continue

            values = {}
            bad = False
            for field in _METADATA_FIELDS:
                col = schema.columns.get(field)
                raw = (row.get(col) or "").strip() if col else ""
                if not raw:
                    if field in schema.required_fields:
                        reject("MISSING_FIELD", f"missing required field {field!r}")
                        bad = True
                        break
                    values[field] = None
                    continue
                if field in ("sample_id", "soil_order", "temperature_regime"):
                    values[field] = raw.lower() if field != "sample_id" else raw
                    continue
                try:
                    values[field] = float(raw)
                except ValueError:
                    reject("BAD_NUMBER", f"field {field!r} is not numeric: {raw!r}")
                    bad = True
                    break
            if bad:
                continue

            total = (values.get("sand") or 0.0) + (values.get("silt") or 0.0) \
                + (values.get("clay") or 0.0)
            if abs(total - 100.0) > TEXTURE_SUM_TOLERANCE:
                reject("TEXTURE_SUM", f"texture sum = {total:g}")
                continue

            bd = values.get("bulk_density")
            if schema.theta_units == "gravimetric" and bd is None:
                reject("MISSING_FIELD", "bulk_density needed for gravimetric conversion")
                continue

            observations = []
            for head in sorted(schema.theta_columns):
                raw = (row.get(schema.theta_columns[head]) or "").strip()
                if not raw:
                    continue
                try:
                    theta = float(raw)
                except ValueError:
                    reject("BAD_NUMBER",
                           f"water content at psi={head:g} is not numeric: {raw!r}")
                    bad = True
                    break
                if schema.theta_units == "gravimetric":
                    theta = theta * bd
                observations.append(RetentionObservation(psi=head, theta=theta))
            if bad:
                continue
            if not observations:
                reject("NO_OBSERVATIONS", "no water-content values on the row")
                continue

            seen_ids.add(sid)
            samples.append(SoilSample(
                sample_id=sid,
                sand=values["sand"], silt=values["silt"], clay=values["clay"],
                bulk_density=bd, organic_carbon=values.get("organic_carbon"),
                latitude=values.get("latitude"), longitude=values.get("longitude"),
                soil_order=values.get("soil_order"),
                temperature_regime=values.get("temperature_regime"),
                observations=tuple(observations),
            ))
    return IngestResult(samples=tuple(samples), removals=tuple(removals), n_rows=n_rows)


@dataclass(frozen=True)
class QaResult:
    kept: tuple
    removals: tuple


def qa_filter(samples):
    """Apply the ordered quality rules; returns survivors and a removal log."""
    kept = []
    removals = []
    for s in samples:
        if s.bulk_density is not None and not BD_MIN <= s.bulk_density <= BD_MAX:
            removals.append(RemovalEntry(
                s.sample_id, "qa", "BD_RANGE",
                f"bulk density {s.bulk_density:g} outside [{BD_MIN}, {BD_MAX}]"))
            continue

        surviving = []
        for obs in s.observations:
            if obs.theta > THETA_MAX:
                removals.append(RemovalEntry(
                    s.sample_id, "qa", "THETA_GT_ONE",
                    f"psi={obs.psi:g} theta={obs.theta:g}"))
                continue
            if obs.psi in (330.0, 15000.0) and obs.theta > THETA_DRY_MAX:
                removals.append(RemovalEntry(
                    s.sample_id, "qa", "THETA_GT_0_6",
                    f"psi={obs.psi:g} theta={obs.theta:g}"))
                continue
            surviving.append(obs)

        theta_fc = next((o.theta for o in surviving if o.psi == 330.0), None)
        theta_wp = next((o.theta for o in surviving if o.psi == 15000.0), None)
        if theta_fc is not None and theta_wp is not None and theta_fc < theta_wp:
            removals.append(RemovalEntry(
                s.sample_id, "qa", "FC_LT_WP",
                f"theta(330)={theta_fc:g} < theta(15000)={theta_wp:g}"))
            continue

        if not surviving:
            removals.append(RemovalEntry(
                s.sample_id, "qa", "NO_OBSERVATIONS", "all observations removed"))
            continue

        kept.append(s if len(surviving) == len(s.observations)
                    else replace(s, observations=tuple(surviving)))
    return QaResult(kept=tuple(kept), removals=tuple(removals))


def oc_bin(organic_carbon, edges=DEFAULT_OC_EDGES):
    """Bin index for an organic carbon value (percent); None if missing."""
    if organic_carbon is None or not np.isfinite(organic_carbon):
        return None
    return int(np.searchsorted(np.asarray(edges, dtype=np.float64),
                               organic_carbon, side="right"))


def stratum_key(scheme, value):
    return f"{scheme}:{value}"


def _texture_keys(samples):
    """Texture stratum key of every sample from one classify_texture_array
    call; a sample whose fractions are missing, non-finite, negative or off
    the 100 +/- TEXTURE_SUM_TOLERANCE sum is 'unassigned'."""
    fractions = np.array([(s.sand, s.silt, s.clay) for s in samples],
                         dtype=np.float64).reshape(-1, 3)
    valid = np.all(np.isfinite(fractions) & (fractions >= 0.0), axis=1)
    sand, silt, clay = np.where(valid[:, None], fractions, 0.0).T
    valid &= np.abs(sand + silt + clay - 100.0) <= TEXTURE_SUM_TOLERANCE
    keys = ["unassigned"] * len(samples)
    codes = classify_texture_array(sand[valid], silt[valid], clay[valid])
    for i, code in zip(np.flatnonzero(valid).tolist(), codes.tolist()):
        keys[i] = stratum_key("texture", USDA_CLASSES[code])
    return keys


def stratify(samples, scheme, oc_edges=DEFAULT_OC_EDGES):
    """Partition samples into strata; unresolvable samples go to 'unassigned'.

    The pressure scheme splits observations, not samples, and is handled by
    the stratified calibrator.
    """
    if scheme not in STRATIFICATION_SCHEMES:
        raise ConfigError(f"unknown stratification scheme {scheme!r}; "
                          f"choose from {STRATIFICATION_SCHEMES}")
    if scheme == "pressure":
        raise ConfigError("the pressure scheme partitions observations, not samples; "
                          "use the stratified calibrator directly")
    samples = tuple(samples)
    texture_keys = _texture_keys(samples) if scheme == "texture" else None
    out = {}
    for i, s in enumerate(samples):
        key = "unassigned"
        if scheme == "texture":
            key = texture_keys[i]
        elif scheme == "oc":
            idx = oc_bin(s.organic_carbon, oc_edges)
            if idx is not None:
                key = stratum_key(scheme, idx)
        elif scheme == "order":
            if s.soil_order in SOIL_ORDERS:
                key = stratum_key(scheme, s.soil_order)
        elif scheme == "temperature":
            if s.temperature_regime in TEMPERATURE_REGIMES:
                key = stratum_key(scheme, s.temperature_regime)
        out.setdefault(key, []).append(s)
    return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True)
class BootstrapReplica:
    index: int
    calibration_ids: tuple  # sample ids drawn with replacement, with multiplicity
    validation_ids: tuple   # out-of-bag ids in original order


def bootstrap_split(samples, n_replicas, seed):
    """Resample whole samples with replacement; out-of-bag ids validate.

    seed can be an int or a tuple of non-negative ints (a derived seed path);
    replica r draws from a generator seeded with seed + (r, 0).
    """
    if n_replicas < 1:
        raise InputError("need at least one replica")
    path = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    if not path or any(int(p) < 0 for p in path):
        raise InputError(f"seed must be non-negative, got {seed!r}")
    path = tuple(int(p) for p in path)
    ids = [s.sample_id for s in samples]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate sample ids; resampling needs unique ids")
    n = len(ids)
    if n == 0:
        raise InputError("no samples to resample")
    replicas = []
    for r in range(n_replicas):
        rng = np.random.default_rng(path + (r, 0))
        draw = rng.integers(0, n, size=n)
        chosen = set(draw.tolist())
        replicas.append(BootstrapReplica(
            index=r,
            calibration_ids=tuple(ids[i] for i in draw),
            validation_ids=tuple(ids[i] for i in range(n) if i not in chosen),
        ))
    return tuple(replicas)


# ---------------------------------------------------------------------------
# canonical file round-trip

CANONICAL_COLUMNS = _METADATA_FIELDS + tuple(f"theta_{h:g}" for h in ALLOWED_HEADS)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_samples(path, samples):
    """Write samples as canonical comma-delimited text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_COLUMNS)
        for s in samples:
            row = [_fmt(getattr(s, f)) for f in _METADATA_FIELDS]
            by_head = {obs.psi: obs.theta for obs in s.observations}
            row.extend(_fmt(by_head.get(h)) for h in ALLOWED_HEADS)
            writer.writerow(row)


def canonical_schema():
    """Schema describing the canonical file layout itself."""
    return Schema(
        columns={f: f for f in _METADATA_FIELDS},
        theta_columns={h: f"theta_{h:g}" for h in ALLOWED_HEADS},
        theta_units="volumetric",
        required_fields=("sand", "silt", "clay"),
        delimiter=",",
    )


def read_samples(path):
    """Read a canonical file back; raises on any rejected row."""
    result = ingest(path, canonical_schema())
    if result.removals:
        first = result.removals[0]
        raise InputError(f"{path}: bad canonical row {first.sample_id}: {first.detail}")
    return result.samples


def write_removals(path, entries):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("sample_id", "stage", "reason_code", "detail"))
        for e in entries:
            writer.writerow((e.sample_id, e.stage, e.reason_code, e.detail))
