"""Retention-sample ingest, quality filtering and resampling.

A sample is one profile/horizon with texture fractions, optional bulk
density, organic carbon and site descriptors, and up to six water-retention
observations at the allowed pressure heads (cm of suction). Source files are
delimited text; a small key = value schema file maps source columns onto the
canonical fields and declares the water-content units.

Samples are held as columns in a SampleTable, the one sample type of the
package: the ids, one float64 column per numeric field (NaN where the value
is missing), the soil order and temperature regime as tuples, and the
observations in long form (owner row, head, water content) grouped by
sample. ingest parses a file straight into columns and checks whole columns
at once; qa_filter takes and returns a table, write_samples writes one
column at a time, and stratum_indices, bootstrap_split and the ensemble's
point assembly read the columns.

Quality filtering applies fixed rules in a fixed order:

    1. bulk density outside [0.5, 2.0] g/cm3      -> sample removed (BD_RANGE)
    2. water content > 1 anywhere                 -> observation removed
    3. water content > 0.6 at 330 or 15000 cm     -> observation removed
    4. content at 330 below content at 15000 cm   -> sample removed (FC_LT_WP)
    5. no observations left                       -> sample removed

Rule 4 is judged on the observations that survive rules 2 and 3. Samples
without a bulk density value pass rule 1 unexamined. qa_filter applies the
rules to a table's columns with whole-column masks.
"""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InputError, SchemaError, open_text
from .ptf import LAYER_LIMITS
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
_NUMERIC_FIELDS = ("latitude", "longitude", "sand", "silt", "clay",
                   "bulk_density", "organic_carbon")
_TEXTURE_FIELDS = ("sand", "silt", "clay")


@dataclass(frozen=True, eq=False, repr=False)
class SampleTable:
    """Samples as columns. len() is the number of samples (rows).

    Numeric fields are float64 columns with NaN for a missing value. The
    observations are long form: obs_owner is the row of each observation,
    non-decreasing, and each row's observations keep the order its sample
    lists them (ascending head from ingest). Row i owns observations
    obs_offsets[i] to obs_offsets[i + 1].
    """

    ids: tuple
    latitude: np.ndarray
    longitude: np.ndarray
    sand: np.ndarray
    silt: np.ndarray
    clay: np.ndarray
    bulk_density: np.ndarray
    organic_carbon: np.ndarray
    soil_order: tuple
    temperature_regime: tuple
    obs_owner: np.ndarray
    obs_psi: np.ndarray
    obs_theta: np.ndarray
    obs_offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        def freeze(name, dtype):
            values = np.array(getattr(self, name), dtype=dtype).reshape(-1)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
            return values

        for name in ("ids", "soil_order", "temperature_regime"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.ids)
        columns = [freeze(name, np.float64) for name in _NUMERIC_FIELDS]
        owner = freeze("obs_owner", np.int64)
        psi, theta = freeze("obs_psi", np.float64), freeze("obs_theta", np.float64)
        if any(c.size != n for c in columns) or \
                len(self.soil_order) != n or len(self.temperature_regime) != n:
            raise InputError("sample table columns differ in length")
        if psi.size != owner.size or theta.size != owner.size or \
                np.any(np.diff(owner) < 0) or np.any((owner < 0) | (owner >= n)):
            raise InputError("observation owners must be rows of the table, in row order")
        if not np.all(np.isfinite(psi) & (psi >= 0.0) & np.isfinite(theta)):
            raise InputError("observations need finite heads >= 0 and finite water contents")
        offsets = np.searchsorted(owner, np.arange(n + 1))
        offsets.setflags(write=False)
        object.__setattr__(self, "obs_offsets", offsets)

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        if isinstance(other, SampleTable):
            return (self.ids == other.ids and self.soil_order == other.soil_order
                    and self.temperature_regime == other.temperature_regime
                    and all(np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
                            for f in _NUMERIC_FIELDS + ("obs_owner", "obs_psi", "obs_theta")))
        return NotImplemented

    def __repr__(self):
        return f"SampleTable({len(self)} samples, {self.obs_owner.size} observations)"

    def obs_index(self, rows):
        """Indices of the observations of the given rows, concatenated in the
        order of rows (a row may repeat)."""
        rows = np.arange(len(self))[np.asarray(rows, dtype=np.int64).reshape(-1)]
        starts = self.obs_offsets[rows]
        counts = self.obs_offsets[rows + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        return np.repeat(starts - ends + counts, counts) + np.arange(total)

    def take(self, rows):
        """The table of the given rows, in that order."""
        rows = np.arange(len(self))[np.asarray(rows, dtype=np.int64).reshape(-1)]
        obs = self.obs_index(rows)
        picked = rows.tolist()
        return SampleTable(
            ids=[self.ids[i] for i in picked],
            **{f: getattr(self, f)[rows] for f in _NUMERIC_FIELDS},
            soil_order=[self.soil_order[i] for i in picked],
            temperature_regime=[self.temperature_regime[i] for i in picked],
            obs_owner=np.repeat(np.arange(rows.size), np.diff(self.obs_offsets)[rows]),
            obs_psi=self.obs_psi[obs], obs_theta=self.obs_theta[obs])


@dataclass(frozen=True)
class RemovalEntry:
    sample_id: str
    stage: str        # "ingest" or "qa"
    reason_code: str
    detail: str
    line: int = None  # source line of the row, for ingest removals


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
        for field_name in self.required_fields:
            if field_name not in _METADATA_FIELDS:
                raise SchemaError(f"unknown required field {field_name!r}")
            if field_name != "sample_id" and field_name not in self.columns:
                raise SchemaError(f"required field {field_name!r} has no column mapping")
        for field_name in self.columns:
            if field_name not in _METADATA_FIELDS:
                raise SchemaError(f"unknown canonical field {field_name!r}")
        if self.delimiter is not None and (len(self.delimiter) != 1
                                           or self.delimiter in '"\r\n'):
            raise SchemaError(f"delimiter must be tab or one character other than a "
                              f"quote or a line break, got {self.delimiter!r}")


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


@dataclass(frozen=True)
class IngestResult:
    samples: SampleTable
    removals: tuple
    n_rows: int


def _sniff_delimiter(sample_line):
    return "\t" if sample_line.count("\t") >= sample_line.count(",") else ","


def _floats(texts):
    """float() of each stripped text as a float64 array, NaN where a text is
    empty or not a number, and the mask of texts that are present but not
    numbers."""
    if not any(texts):
        return np.full(len(texts), np.nan), np.zeros(len(texts), dtype=bool)
    filled = [t or "nan" for t in texts]
    try:
        return np.fromiter(map(float, filled), np.float64, len(filled)), \
            np.zeros(len(filled), dtype=bool)
    except ValueError:
        values = np.full(len(filled), np.nan)
        bad = np.zeros(len(filled), dtype=bool)
        for i, text in enumerate(filled):
            try:
                values[i] = float(text)
            except ValueError:
                bad[i] = True
        return values, bad


def ingest(path, schema):
    """Read a delimited source file into a SampleTable, logging rejected rows.

    Each rejected row gets one RemovalEntry, for the first check it fails in
    this order: a duplicate of an accepted id; per field, in canonical field
    order, a missing required value, then a value that is not a number, not
    finite, (a texture fraction) negative or (organic carbon) outside
    [0, ptf.LAYER_LIMITS]; the texture sum; a bulk density
    for gravimetric units; per head, ascending, a water content that is not
    a number, not finite (after the gravimetric conversion) or negative (as
    written); no water content at all. Removals are in row order.
    """
    with open_text(path, InputError, newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise InputError(f"{path}: empty input file")
        delimiter = schema.delimiter or _sniff_delimiter(first)
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader)
        needed = set(schema.columns.values()) | set(schema.theta_columns.values())
        missing_cols = sorted(needed - set(header))
        if missing_cols:
            raise SchemaError(f"{path}: missing columns: {', '.join(missing_cols)}")
        rows, lines = [], []
        start = reader.line_num + 1
        for row in reader:
            if row:  # blank lines are skipped, as csv.DictReader skips them
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1

    n = len(rows)
    width = len(header)
    if min(map(len, rows), default=width) < width:  # short rows read empty fields
        rows = [r + [""] * (width - len(r)) for r in rows]
    columns = list(zip(*rows)) or [()] * width
    col_of = {name: j for j, name in enumerate(header)}  # a repeated name: the last

    def texts(col):
        return list(map(str.strip, columns[col_of[col]])) if col else [""] * n

    first_fail = np.full(n, -1)
    stages = []  # (reason code, detail, or a format of it and the per-row values)

    def check(mask, code, detail, values=None):
        first_fail[(first_fail < 0) & mask] = len(stages)
        stages.append((code, detail, values))

    numbers, strings = {}, {}
    for name in _METADATA_FIELDS:
        raw = texts(schema.columns.get(name))
        given = np.fromiter(map(bool, raw), bool, n)
        if name in schema.required_fields:
            check(~given, "MISSING_FIELD", f"missing required field {name!r}")
        if name not in _NUMERIC_FIELDS:
            strings[name] = raw
            continue
        values, bad = _floats(raw)
        check(bad, "BAD_NUMBER", f"field {name!r} is not numeric: {{!r}}", raw)
        check(given & ~bad & ~np.isfinite(values), "BAD_NUMBER",
              f"field {name!r} is not finite: {{!r}}", raw)
        if name in _TEXTURE_FIELDS:
            check(values < 0.0, "BAD_NUMBER", f"field {name!r} is negative: {{!r}}", raw)
        if name == "organic_carbon":
            limit = LAYER_LIMITS[name]
            check((values < 0.0) | (values > limit), "BAD_NUMBER",
                  f"field {name!r} is outside [0, {limit:g}]: {{!r}}", raw)
        numbers[name] = values

    # a missing fraction counts as 0; the leading 0.0 makes an all-zero sum +0
    sand, silt, clay = (np.where(np.isfinite(numbers[f]), numbers[f], 0.0)
                        for f in _TEXTURE_FIELDS)
    with np.errstate(over="ignore"):
        total = 0.0 + sand + silt + clay
    check(np.abs(total - 100.0) > TEXTURE_SUM_TOLERANCE, "TEXTURE_SUM",
          "texture sum = {:g}", total.tolist())

    bd = numbers["bulk_density"]
    gravimetric = schema.theta_units == "gravimetric"
    if gravimetric:
        check(np.isnan(bd), "MISSING_FIELD", "bulk_density needed for gravimetric conversion")

    heads = sorted(schema.theta_columns)
    theta = np.empty((n, len(heads)))
    present = np.empty((n, len(heads)), dtype=bool)
    for k, head in enumerate(heads):
        raw = texts(schema.theta_columns[head])
        values, bad = _floats(raw)
        present[:, k] = np.fromiter(map(bool, raw), bool, n)
        check(bad, "BAD_NUMBER", f"water content at psi={head:g} is not numeric: {{!r}}", raw)
        if gravimetric:
            with np.errstate(over="ignore", invalid="ignore"):
                theta[:, k] = values * bd
        else:
            theta[:, k] = values
        check(present[:, k] & ~bad & ~np.isfinite(theta[:, k]), "BAD_NUMBER",
              f"water content at psi={head:g} is not finite: {{!r}}", raw)
        check(values < 0.0, "BAD_NUMBER", f"water content at psi={head:g} is negative: {{!r}}",
              raw)
    check(~present.any(axis=1), "NO_OBSERVATIONS", "no water-content values on the row")

    ids = [sid or f"r{k + 2}" for k, sid in enumerate(strings["sample_id"])]
    if len(set(ids)) < n:  # a repeat of an id already accepted is a duplicate
        accepted = set()
        duplicate = np.zeros(n, dtype=bool)
        for k, (sid, ok) in enumerate(zip(ids, (first_fail < 0).tolist())):
            if sid in accepted:
                duplicate[k] = True
            elif ok:
                accepted.add(sid)
        first_fail[duplicate] = len(stages)
        stages.append(("DUPLICATE_ID", "sample id {!r} already seen", ids))

    removals = []
    for k in np.flatnonzero(first_fail >= 0).tolist():
        code, detail, values = stages[first_fail[k]]
        if values is not None:
            detail = detail.format(values[k])
        removals.append(RemovalEntry(ids[k], "ingest", code, detail, lines[k]))

    kept = np.flatnonzero(first_fail < 0)
    picked = kept.tolist()
    owner, head_of = np.nonzero(present[kept])

    def lower(name):
        raw = strings[name]
        return [raw[k].lower() or None for k in picked] if any(raw) else [None] * len(picked)

    table = SampleTable(
        ids=[ids[k] for k in picked], **{f: numbers[f][kept] for f in _NUMERIC_FIELDS},
        soil_order=lower("soil_order"), temperature_regime=lower("temperature_regime"),
        obs_owner=owner, obs_psi=np.asarray(heads, dtype=np.float64)[head_of],
        obs_theta=theta[kept][owner, head_of])
    return IngestResult(samples=table, removals=tuple(removals), n_rows=n)


@dataclass(frozen=True)
class QaResult:
    kept: SampleTable
    removals: tuple


def qa_filter(samples):
    """Apply the ordered quality rules to a SampleTable's columns; returns
    the survivors, a SampleTable, and a removal log. A NaN bulk density is
    missing."""
    n = len(samples)
    owner, psi, theta = samples.obs_owner, samples.obs_psi, samples.obs_theta
    bd = samples.bulk_density
    bd_out = ~np.isnan(bd) & ~((bd >= BD_MIN) & (bd <= BD_MAX))
    examined = ~bd_out[owner]
    gt_one = examined & (theta > THETA_MAX)
    gt_dry = examined & ~gt_one & ((psi == 330.0) | (psi == 15000.0)) & (theta > THETA_DRY_MAX)
    dropped = gt_one | gt_dry
    surviving = examined & ~dropped

    def first_theta(head):
        """Each row's first surviving water content at head, NaN if none."""
        at = surviving & (psi == head)
        rows, first = np.unique(owner[at], return_index=True)
        out = np.full(n, np.nan)
        out[rows] = theta[at][first]
        return out

    theta_fc, theta_wp = first_theta(330.0), first_theta(15000.0)
    fc_lt_wp = theta_fc < theta_wp
    empty = ~bd_out & ~fc_lt_wp & (np.bincount(owner[surviving], minlength=n) == 0)

    removals = []
    events = bd_out | fc_lt_wp | empty | (np.bincount(owner[dropped], minlength=n) > 0)
    for i in np.flatnonzero(events).tolist():
        sid = samples.ids[i]
        if bd_out[i]:
            removals.append(RemovalEntry(
                sid, "qa", "BD_RANGE",
                f"bulk density {bd[i].item():g} outside [{BD_MIN}, {BD_MAX}]"))
            continue
        lo, hi = samples.obs_offsets[i:i + 2].tolist()
        for j in range(lo, hi):
            if dropped[j]:
                removals.append(RemovalEntry(
                    sid, "qa", "THETA_GT_ONE" if gt_one[j] else "THETA_GT_0_6",
                    f"psi={psi[j].item():g} theta={theta[j].item():g}"))
        if fc_lt_wp[i]:
            removals.append(RemovalEntry(
                sid, "qa", "FC_LT_WP",
                f"theta(330)={theta_fc[i].item():g} < theta(15000)={theta_wp[i].item():g}"))
        elif empty[i]:
            removals.append(RemovalEntry(sid, "qa", "NO_OBSERVATIONS", "all observations removed"))

    kept = replace(samples, obs_owner=owner[surviving], obs_psi=psi[surviving],
                   obs_theta=theta[surviving]).take(np.flatnonzero(~(bd_out | fc_lt_wp | empty)))
    return QaResult(kept=kept, removals=tuple(removals))


def stratum_key(scheme, value):
    return f"{scheme}:{value}"


def _oc_edges(edges):
    """Organic-carbon bin edges as a float64 array; ConfigError unless they
    are finite and strictly increasing."""
    try:
        values = np.asarray(edges, dtype=np.float64)
        if values.ndim == 1 and np.all(np.isfinite(values)) and np.all(np.diff(values) > 0.0):
            return values
    except (TypeError, ValueError):
        pass
    shown = ",".join(map(str, edges)) if isinstance(edges, (tuple, list)) else repr(edges)
    raise ConfigError(f"organic-carbon bin edges must be finite and strictly increasing, "
                      f"got {shown}")


def _stratum_labels(table, scheme, oc_edges):
    """Label of every row under a sample-level scheme (-1: unassigned) and
    the names the labels index. Texture classifies in one
    classify_texture_array call; fractions that are missing, non-finite,
    negative or off the 100 +/- TEXTURE_SUM_TOLERANCE sum are unassigned."""
    if scheme == "texture":
        fractions = np.stack((table.sand, table.silt, table.clay), axis=1)
        valid = np.all(np.isfinite(fractions) & (fractions >= 0.0), axis=1)
        sand, silt, clay = np.where(valid[:, None], fractions, 0.0).T
        valid &= np.abs(sand + silt + clay - 100.0) <= TEXTURE_SUM_TOLERANCE
        labels = np.full(len(table), -1)
        labels[valid] = classify_texture_array(sand[valid], silt[valid], clay[valid])
        return labels, USDA_CLASSES
    if scheme == "oc":
        edges = _oc_edges(oc_edges)
        oc = table.organic_carbon
        return (np.where(np.isfinite(oc), np.searchsorted(edges, oc, side="right"), -1),
                range(edges.size + 1))
    names = SOIL_ORDERS if scheme == "order" else TEMPERATURE_REGIMES
    column = table.soil_order if scheme == "order" else table.temperature_regime
    label_of = {name: k for k, name in enumerate(names)}
    return np.array([label_of.get(v, -1) for v in column], dtype=np.int64), names


def stratum_indices(samples, scheme, oc_edges=DEFAULT_OC_EDGES):
    """Row indices of each stratum, keyed in order of first appearance;
    samples that no stratum takes go to 'unassigned'.

    The pressure scheme splits observations, not samples, and is handled by
    the stratified calibrator. The oc scheme bins organic carbon (percent)
    right-closed at oc_edges, which must be finite and strictly increasing.
    """
    if scheme not in STRATIFICATION_SCHEMES:
        raise ConfigError(f"unknown stratification scheme {scheme!r}; "
                          f"choose from {STRATIFICATION_SCHEMES}")
    if scheme == "pressure":
        raise ConfigError("the pressure scheme partitions observations, not samples; "
                          "use the stratified calibrator directly")
    labels, names = _stratum_labels(samples, scheme, oc_edges)
    found, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rows = np.split(np.argsort(inverse, kind="stable"),
                    np.cumsum(np.bincount(inverse, minlength=found.size))[:-1])
    return {("unassigned" if found[k] < 0 else stratum_key(scheme, names[found[k]])): rows[k]
            for k in np.argsort(first).tolist()}


@dataclass(frozen=True)
class BootstrapReplica:
    index: int
    calibration_rows: tuple  # table rows drawn with replacement, in draw order
    validation_rows: tuple   # out-of-bag rows, ascending


def _seed_path(seed):
    """Normalize an int or tuple-of-ints master seed into a tuple."""
    path = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    if not path or any(int(p) < 0 for p in path):
        raise InputError(f"seed must be non-negative, got {seed!r}")
    return tuple(int(p) for p in path)


def bootstrap_split(samples, n_replicas, seed):
    """Resample whole samples (rows of the sample table) with replacement;
    out-of-bag rows validate.

    seed can be an int or a tuple of non-negative ints (a derived seed path);
    replica r draws from a generator seeded with seed + (r, 0).
    """
    if n_replicas < 1:
        raise InputError("need at least one replica")
    path = _seed_path(seed)
    ids = samples.ids
    if len(set(ids)) != len(ids):
        raise InputError("duplicate sample ids; resampling needs unique ids")
    n = len(ids)
    if n == 0:
        raise InputError("no samples to resample")
    replicas = []
    for r in range(n_replicas):
        draw = np.random.default_rng(path + (r, 0)).integers(0, n, size=n)
        out_of_bag = np.ones(n, dtype=bool)
        out_of_bag[draw] = False
        replicas.append(BootstrapReplica(
            index=r, calibration_rows=tuple(draw.tolist()),
            validation_rows=tuple(np.flatnonzero(out_of_bag).tolist())))
    return tuple(replicas)


# ---------------------------------------------------------------------------
# canonical file round-trip

CANONICAL_COLUMNS = _METADATA_FIELDS + tuple(f"theta_{h:g}" for h in ALLOWED_HEADS)


def _write_csv(path, header, rows):
    """Comma-delimited text with \n line ends. csv quotes a field only for the
    line end's own characters, so a row with a carriage return in a field is
    written fully quoted; a bare \r would split the row when read back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(header)
        for row in rows:
            (quoted if any("\r" in v for v in row) else plain).writerow(row)


def _texts(values):
    """repr of each float, empty for NaN."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def write_samples(path, samples):
    """Write a SampleTable as canonical comma-delimited text, a column at a
    time. A missing value is an empty field; of a sample's repeated head the
    last water content is written, and a head outside ALLOWED_HEADS is not."""
    heads = np.asarray(ALLOWED_HEADS)
    column = np.searchsorted(heads, samples.obs_psi).clip(max=heads.size - 1)
    allowed = heads[column] == samples.obs_psi
    cell = samples.obs_owner[allowed] * heads.size + column[allowed]
    # the last observation of each (row, head): the first of the reversed cells
    cell, first = np.unique(cell[::-1], return_index=True)
    theta = np.full(len(samples) * heads.size, np.nan)
    theta[cell] = samples.obs_theta[allowed][::-1][first]
    _write_csv(path, CANONICAL_COLUMNS, zip(
        map(str, samples.ids), *(_texts(getattr(samples, f)) for f in _NUMERIC_FIELDS),
        *(["" if v is None else str(v) for v in getattr(samples, f)]
          for f in ("soil_order", "temperature_regime")),
        *map(_texts, theta.reshape(len(samples), heads.size).T)))


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
    """Read a canonical file back as a SampleTable; raises on any rejected
    row, naming the file and the row's line."""
    result = ingest(path, canonical_schema())
    if result.removals:
        first = result.removals[0]
        raise InputError(f"{path}:{first.line}: bad canonical row {first.sample_id}: "
                         f"{first.detail}")
    return result.samples


def write_removals(path, entries):
    _write_csv(path, ("sample_id", "stage", "reason_code", "detail"),
               ((e.sample_id, e.stage, e.reason_code, e.detail) for e in entries))
