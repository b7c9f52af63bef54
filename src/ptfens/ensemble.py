"""Weighted multi-predictor ensembles and their calibration.

The ensemble prediction is the weighted mean of its member predictions,
theta_ens = sum_j a_j theta_j / sum_j a_j, and calibration minimizes the
sum of squared errors chi2(a) against observed water contents over the
weight simplex. That objective is a convex quadratic, so every replica is
fitted exactly by simplex_weights, a primal active-set method that starts
from the best single member and only descends: a calibrated ensemble is
never worse than that member on its calibration points. The paper's
real-coded genetic algorithm, optimize_weights, is kept only as a
standalone function on a point set; calibration does not call it.

Uncertainty comes from bootstrap replicas: each replica resamples whole
samples (rows of the sample table) with replacement, calibrates on the
drawn rows' points, and validates on the out-of-bag rows. Stratified
calibration runs the same procedure per stratum and falls back to the
global weights for strata with too few points. Strata are assigned by
dataset.stratum_indices over the sample table's columns; a StratifiedModel
holds one CalibrationResult per calibrated stratum and the global one, and
predictions and maps apply one weight vector at a time. A prediction, of one
profile (a batch of one) or of a sample table (samples_theta), is
ensemble_theta, the map's path: ptf.member_thetas summed member by member
(_kernels.weighted_sum), so a profile equals its table row bit for bit.

All randomness derives from one master seed. Replica r of a calibration
draws its bootstrap from (seed..., r, 0); stratum calibrations extend the
seed with a crc32 of the stratum key. Reruns are bit-identical, and no fit
sum (G = PP', b = Py, chi2, the pooled RMSE) calls BLAS, whose threads
split a product differently: the bytes do not depend on the thread count.
"""

import csv
import zlib
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import (DEFAULT_OC_EDGES, _seed_path, bootstrap_split, stratum_indices,
                      stratum_key)
from .errors import ConfigError, InputError, PtfensError, open_text
from .ptf import PtfId, member_batches, member_thetas, required_inputs
from .ptf import predict_batch  # noqa: F401 - uncalled; in pipebench tracer.TARGETS
from .retention import FIELD_CAPACITY_HEAD, WILTING_POINT_HEAD, _check_psi
from .ptf import predict  # noqa: F401 - uncalled; in pipebench tracer.TARGETS
from .retention import theta_at  # noqa: F401 - uncalled; in pipebench tracer.TARGETS

GLOBAL_STRATUM = "global"


@dataclass(frozen=True)
class WeightVector:
    """Normalized member weights; members keep their given order."""

    members: tuple
    weights: tuple

    def __post_init__(self):
        if not self.members:
            raise InputError("weight vector needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise InputError("duplicate ensemble members")
        if len(self.weights) != len(self.members):
            raise InputError("one weight per member required")
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.all((w >= 0.0) & (w <= 1.0 + 1e-12)):  # NaN fails too
            raise InputError("weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InputError(f"weights must sum to 1, got {w.sum()!r}")

    @classmethod
    def normalized(cls, members, raw):
        raw = np.asarray(raw, dtype=np.float64)
        if np.any(raw < 0.0) or not np.all(np.isfinite(raw)):
            raise InputError("raw weights must be finite and non-negative")
        total = raw.sum()
        if total <= 0.0:  # degenerate genome: fall back to the uniform mix
            raw = np.ones_like(raw)
            total = raw.sum()
        return cls(members=tuple(members), weights=tuple((raw / total).tolist()))

    def as_array(self):
        return np.asarray(self.weights, dtype=np.float64)


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 200
    stall_generations: int = 30
    crossover_prob: float = 0.8
    blx_alpha: float = 0.5
    mutation_prob: float = 0.1
    mutation_sigma: float = 0.1
    tournament: int = 3
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.tournament < 1 or self.generations < 1:
            raise ConfigError("population >= 2, tournament >= 1, generations >= 1")
        if not 0 <= self.elitism < self.population:
            raise ConfigError("elitism must be smaller than the population")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.mutation_sigma < 0.0 or self.blx_alpha < 0.0:
            raise ConfigError("mutation_sigma and blx_alpha must be non-negative")


def chi2(weights, member_preds, observed):
    """Sum of squared errors of the weighted-mean ensemble."""
    if isinstance(weights, WeightVector):
        weights = weights.as_array()
    weights = np.asarray(weights, dtype=np.float64)
    member_preds = np.asarray(member_preds, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if member_preds.shape != (weights.size, observed.size):
        raise InputError(f"member predictions shape {member_preds.shape} does not match "
                         f"{weights.size} members x {observed.size} points")
    total = weights.sum()
    if total <= 0.0:
        weights = np.ones_like(weights)
        total = weights.sum()
    ens = _kernels.weighted_sum(weights / total, member_preds)
    return float(np.sum((ens - observed) ** 2))


def ensemble_theta(weights, heads, **arrays):
    """(rows, heads) weighted-mean water contents of rows of predict_batch
    keyword arrays: ptf.member_thetas weighted by _kernels.weighted_sum. A
    row's bytes do not depend on the other rows, so one profile
    (ptf.profile_arrays) equals its sample-table row (samples_theta)."""
    thetas = member_thetas(weights.members, _check_psi(heads).reshape(-1), **arrays)
    flat = _kernels.weighted_sum(weights.as_array(), thetas.reshape(len(thetas), -1))
    return flat.reshape(thetas.shape[1:]).T


def _fit_inputs(member_preds, observed, members):
    """Contiguous float64 (members, points) predictions, targets and member ids."""
    member_preds = np.ascontiguousarray(member_preds, dtype=np.float64)
    observed = np.ascontiguousarray(observed, dtype=np.float64)
    if member_preds.ndim != 2 or member_preds.shape[1] != observed.size:
        raise InputError(f"member predictions shape {member_preds.shape} does not match "
                         f"{observed.size} points")
    if members is None:
        members = tuple(f"member_{j}" for j in range(member_preds.shape[0]))
    if len(members) != member_preds.shape[0]:
        raise InputError("member id list does not match the prediction rows")
    return member_preds, observed, members


def _support_solution(gram, lin, support):
    """Weights on the support that minimize w'Gw - 2b'w subject to sum(w) = 1.

    Solves the KKT system [[G_SS, 1], [1', 0]] [w; -mu] = [b_S; 1] by least
    squares, so duplicate or collinear members (a singular G_SS) still get
    a solution.
    """
    k = support.size
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram[np.ix_(support, support)]
    kkt[k, k] = 0.0
    rhs = np.append(lin[support], 1.0)
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


# A multiplier counts as non-negative down to -_KKT_TOL times the largest
# diagonal entry of G: rounding in G w - b is about m * 1e-16 of G's scale,
# and a member whose multiplier is this close to zero could lower chi2 by no
# more than about its square.
_KKT_TOL = 1e-12


def simplex_weights(member_preds, observed, members=None):
    """Exact least-squares ensemble weights on the simplex.

    Minimizes chi2(w) = ||w @ P - y||^2 = w'Gw - 2b'w + y'y, with G = PP'
    and b = Py, over w >= 0 and sum(w) = 1 by a primal active-set method
    (Lawson & Hanson 1974): starting from the best single-member corner, it
    solves the equality-constrained problem on the current support, steps
    back to the boundary when a weight would turn negative, and adds the
    member with the most negative multiplier (G w - b)_j - mu, until every
    multiplier off the support is non-negative to within 1e-12 of G's
    largest diagonal entry. Weights off the support are exact zeros, and
    the result is never worse than the best corner. No random numbers are
    drawn, so reruns return identical bytes.
    """
    member_preds, observed, members = _fit_inputs(member_preds, observed, members)
    n_members = member_preds.shape[0]
    # einsum without optimize never calls BLAS (see the module docstring)
    gram = np.einsum("ij,kj->ik", member_preds, member_preds)
    lin = np.einsum("ij,j->i", member_preds, observed)
    corner_chi2 = np.sum((member_preds - observed) ** 2, axis=1)
    best = int(np.argmin(corner_chi2))
    tol = _KKT_TOL * float(np.max(np.diag(gram)))

    w = np.zeros(n_members)
    w[best] = 1.0
    support = np.zeros(n_members, dtype=bool)
    support[best] = True
    # each pass either adds a member or drops at least one; the cap only
    # guards against rounding making the walk cycle
    for _ in range(10 * n_members):
        idx = np.flatnonzero(support)
        z = _support_solution(gram, lin, idx)
        if np.all(z > 0.0):
            w[idx] = z  # w is zero off the support throughout
            grad = np.einsum("ij,j->i", gram, w) - lin
            multipliers = grad - grad[idx].mean()
            multipliers[idx] = np.inf
            j = int(np.argmin(multipliers))
            if multipliers[j] >= -tol:
                break
            support[j] = True
            continue
        # step from w towards z until the first weight reaches zero
        cur = w[idx]
        neg = z <= 0.0
        gap = cur[neg] - z[neg]
        ratio = np.divide(cur[neg], gap, out=np.zeros_like(gap), where=gap > 0.0)
        alpha = ratio.min()
        if alpha <= 0.0:  # the member just added cannot enter: optimal to rounding
            break
        w[idx] = np.maximum(cur + alpha * (z - cur), 0.0)
        w[idx[neg][ratio <= alpha]] = 0.0
        support[idx[w[idx] == 0.0]] = False

    result = WeightVector.normalized(members, w)
    if chi2(result, member_preds, observed) > corner_chi2[best]:
        result = WeightVector.normalized(members, np.eye(n_members)[best])
    return result


def optimize_weights(member_preds, observed, config=None, rng=None, members=None):
    """Fit ensemble weights to observations with the genetic algorithm.

    member_preds has one row per member; observed is the target vector.
    The initial population contains every single-member corner and the
    uniform mix, and the returned vector is the better of the GA optimum
    and the best corner.
    """
    cfg = config or GaConfig()
    member_preds, observed, members = _fit_inputs(member_preds, observed, members)
    n_members = member_preds.shape[0]
    if rng is None:
        rng = np.random.default_rng(_seed_path(cfg.seed))

    pop = rng.random((cfg.population, n_members))
    for j in range(min(n_members, cfg.population)):  # seed the corners
        pop[j] = 0.0
        pop[j, j] = 1.0
    if n_members < cfg.population:
        pop[n_members] = 1.0  # the uniform mix

    fitness = _kernels.chi2_population(pop, member_preds, observed)
    best_idx = int(np.argmin(fitness))
    best_genome = pop[best_idx].copy()
    best_chi2 = float(fitness[best_idx])

    stall = 0
    for _ in range(cfg.generations):
        order = np.argsort(fitness)
        new_pop = np.empty_like(pop)
        new_pop[:cfg.elitism] = pop[order[:cfg.elitism]]
        for i in range(cfg.elitism, cfg.population):
            c1 = rng.integers(0, cfg.population, size=cfg.tournament)
            p1 = pop[c1[np.argmin(fitness[c1])]]
            if rng.random() < cfg.crossover_prob:
                c2 = rng.integers(0, cfg.population, size=cfg.tournament)
                p2 = pop[c2[np.argmin(fitness[c2])]]
                lo = np.minimum(p1, p2) - cfg.blx_alpha * np.abs(p1 - p2)
                hi = np.maximum(p1, p2) + cfg.blx_alpha * np.abs(p1 - p2)
                child = lo + rng.random(n_members) * (hi - lo)
            else:
                child = p1.copy()
            mask = rng.random(n_members) < cfg.mutation_prob
            if np.any(mask):
                child[mask] += rng.normal(0.0, cfg.mutation_sigma, int(mask.sum()))
            new_pop[i] = np.clip(child, 0.0, 1.0)
        pop = new_pop
        fitness = _kernels.chi2_population(pop, member_preds, observed)
        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best_chi2 - 1e-15:
            best_chi2 = float(fitness[gen_best])
            best_genome = pop[gen_best].copy()
            stall = 0
        else:
            stall += 1
            if stall >= cfg.stall_generations:
                break

    # corner sweep: a single member must never beat the returned ensemble
    corner_chi2 = np.sum((member_preds - observed) ** 2, axis=1)
    j = int(np.argmin(corner_chi2))
    if corner_chi2[j] < best_chi2:
        best_genome = np.zeros(n_members)
        best_genome[j] = 1.0
    return WeightVector.normalized(members, best_genome)


# ---------------------------------------------------------------------------
# point-set assembly

def _predictor_arrays(members, table, topsoil=True):
    """predict_batch keyword arrays, the table's columns for every predictor
    the members need; a sample lacking one fails naming the sample."""
    needed = sorted({f for m in members for f in required_inputs(m)})
    arrays = {f: getattr(table, f) for f in needed}
    for f, values in arrays.items():
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise InputError(
                f"sample {table.ids[missing[0]]!r} is missing predictor {f!r} "
                f"required by the selected members")
    arrays["topsoil"] = np.full(len(table), 1.0 if topsoil else 0.0)
    return arrays


def samples_theta(weights, samples, heads, topsoil=True):
    """Weighted-mean water content of every sample at every head: the
    (samples, heads) ensemble_theta of the table's predictor columns."""
    return ensemble_theta(weights, heads, **_predictor_arrays(weights.members, samples, topsoil))


def point_matrix(members, samples):
    """(member predictions (m, N), observed (N,), heads (N,)) over all
    observations of the samples, in sample order: point i is the curve of
    the sample owning observation i, from ptf.member_batches, at its head."""
    members = tuple(map(PtfId, members))
    if not members or len(set(members)) != len(members):
        raise InputError("ensemble needs one or more distinct members")
    if not samples:
        raise InputError("no samples to calibrate on")
    arrays = _predictor_arrays(members, samples)
    owner, psi = samples.obs_owner, samples.obs_psi
    if not owner.size:
        raise InputError("samples carry no observations")
    preds = np.empty((len(members), psi.size))
    for k, (batch, at) in enumerate(member_batches(members, **arrays)):
        preds[k] = _kernels.theta_points(batch.codes[at][owner], batch.rows[at][owner], psi)
    return preds, samples.obs_theta.copy(), psi.copy()


@dataclass(frozen=True)
class ReplicaResult:
    index: int
    weights: "WeightVector"
    cal_rmse: float
    val_rmse: float = None  # None when the replica has no out-of-bag points


@dataclass(frozen=True)
class CalibrationResult:
    members: tuple
    replicas: tuple
    mean_weights: "WeightVector"
    weight_std: tuple
    n_points: int

    def __post_init__(self):
        if not self.replicas:
            raise InputError("calibration needs at least one replica")
        if abs(sum(self.mean_weights.weights) - 1.0) > 1e-9:
            raise InputError("mean weights must sum to 1")

    @property
    def mean_cal_rmse(self):
        return float(np.mean([r.cal_rmse for r in self.replicas]))

    @property
    def mean_val_rmse(self):
        vals = [r.val_rmse for r in self.replicas if r.val_rmse is not None]
        return float(np.mean(vals)) if vals else None


def _calibrate_points(members, preds, observed, samples, point_of, n_replicas, seed_path):
    """Bootstrap-calibrate on one point set; used for both global and strata.

    The replicas resample the rows of samples, a SampleTable; point_of maps
    each of its observations to a point (a column of preds), or to -1 for an
    observation this calibration leaves out.
    """
    def points_of(rows):
        idx = point_of[samples.obs_index(rows)]
        return idx[idx >= 0]

    results = []
    for rep in bootstrap_split(samples, n_replicas, seed_path):
        cal_idx = points_of(rep.calibration_rows)
        if cal_idx.size == 0:
            raise InputError("bootstrap replica drew no observation points")
        preds_cal = np.ascontiguousarray(preds[:, cal_idx])
        obs_cal = np.ascontiguousarray(observed[cal_idx])
        wv = simplex_weights(preds_cal, obs_cal, members=members)

        ens_chi2 = chi2(wv, preds_cal, obs_cal)
        corner = np.min(np.sum((preds_cal - obs_cal) ** 2, axis=1))
        if ens_chi2 > corner + 1e-9 * max(corner, 1.0):
            raise PtfensError("ensemble lost to one of its members on calibration data")
        cal_rmse = float(np.sqrt(ens_chi2 / cal_idx.size))

        val_rmse = None
        val_idx = points_of(rep.validation_rows)
        if val_idx.size:
            val_rmse = float(np.sqrt(chi2(wv, preds[:, val_idx], observed[val_idx])
                                     / val_idx.size))
        results.append(ReplicaResult(index=rep.index, weights=wv, cal_rmse=cal_rmse,
                                     val_rmse=val_rmse))

    w = np.stack([r.weights.as_array() for r in results])
    mean_w = WeightVector.normalized(members, w.mean(axis=0))
    std = w.std(axis=0, ddof=1) if len(results) > 1 else np.zeros(w.shape[1])
    total_points = int(np.count_nonzero(point_of >= 0))
    return CalibrationResult(
        members=members, replicas=tuple(results), mean_weights=mean_w,
        weight_std=tuple(float(s) for s in std), n_points=total_points)


def calibrate(members, samples, n_replicas=100, seed=0):
    """Bootstrap-calibrate ensemble weights on every observation point; each
    replica is fitted by simplex_weights."""
    members = tuple(map(PtfId, members))
    preds, observed, psi = point_matrix(members, samples)
    return _calibrate_points(members, preds, observed, samples, np.arange(psi.size),
                             n_replicas, _seed_path(seed))


@dataclass(frozen=True)
class StratifiedModel:
    """Per-stratum calibrations with the global one as fallback; strata and
    fallback are their mean weight vectors."""

    members: tuple
    calibrations: dict           # "global", then each calibrated stratum -> CalibrationResult
    below_threshold: tuple       # stratum keys that fell back for lack of points
    pooled_rmse_stratified: float
    pooled_rmse_global: float

    @property
    def fallback(self):
        return self.calibrations[GLOBAL_STRATUM].mean_weights

    @property
    def strata(self):
        return {key: result.mean_weights for key, result in self.calibrations.items()
                if key != GLOBAL_STRATUM}

    @property
    def n_params(self):
        return len(self.members) * len(self.strata)


def _stratum_seed(seed_path, key):
    return seed_path + (zlib.crc32(key.encode("utf-8")),)


def calibrate_stratified(members, samples, scheme, n_replicas=100, seed=0,
                         min_stratum_points=50, oc_edges=DEFAULT_OC_EDGES):
    """Calibrate one weight vector per stratum plus the global fallback.

    Sample-level schemes (texture, oc, order, temperature) partition samples;
    the pressure scheme calibrates separate vectors on the observations at
    330 and 15000 cm. Strata with fewer points than min_stratum_points (a
    ConfigError unless it is at least 1) are not calibrated and use the
    global weights. The strata are planned before any fit, so a bad scheme
    or oc_edges fails first.
    """
    if min_stratum_points < 1:
        raise ConfigError(f"min_stratum_points must be at least 1, got {min_stratum_points}")
    seed_path = _seed_path(seed)
    members = tuple(map(PtfId, members))
    preds, observed, psi = point_matrix(members, samples)
    plan = []  # (stratum key, its rows, point_of their observations)
    if scheme == "pressure":
        for head in (FIELD_CAPACITY_HEAD, WILTING_POINT_HEAD):
            rows = np.unique(samples.obs_owner[psi == head])
            obs = samples.obs_index(rows)
            plan.append((stratum_key("psi", f"{head:g}"), rows,
                         np.where(psi[obs] == head, obs, -1)))
    else:
        groups = stratum_indices(samples, scheme, oc_edges)
        for key in sorted(k for k in groups if k != "unassigned"):
            plan.append((key, groups[key], samples.obs_index(groups[key])))

    calibrations = {GLOBAL_STRATUM: _calibrate_points(
        members, preds, observed, samples, np.arange(psi.size), n_replicas, seed_path)}
    below = []
    point_vectors = {}  # stratum key -> flat point indices it covers
    for key, rows, point_of in plan:
        covered = point_of[point_of >= 0]
        if covered.size < min_stratum_points:
            below.append(key)
            continue
        calibrations[key] = _calibrate_points(members, preds, observed, samples.take(rows),
                                              point_of, n_replicas,
                                              _stratum_seed(seed_path, key))
        point_vectors[key] = covered
    fallback = calibrations[GLOBAL_STRATUM].mean_weights

    # pooled comparison on the identical full point set
    def pooled_rmse(vector_for):
        ens = np.empty(observed.size)
        assigned = np.zeros(observed.size, dtype=bool)
        for key, covered in point_vectors.items():
            w = vector_for(key).as_array()
            ens[covered] = _kernels.weighted_sum(w, preds[:, covered])
            assigned[covered] = True
        rest = ~assigned
        if np.any(rest):
            ens[rest] = _kernels.weighted_sum(fallback.as_array(), preds[:, rest])
        return float(np.sqrt(np.mean((ens - observed) ** 2)))

    return StratifiedModel(
        members=members, calibrations=calibrations, below_threshold=tuple(below),
        pooled_rmse_stratified=pooled_rmse(lambda key: calibrations[key].mean_weights),
        pooled_rmse_global=pooled_rmse(lambda key: fallback))


# ---------------------------------------------------------------------------
# weight-table files

def write_weights(path, vector, meta=None):
    """Weight vector as tab-delimited text with # key = value metadata."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(("ptf_id", "weight"))
        for m, w in zip(vector.members, vector.weights):
            writer.writerow((str(m), repr(float(w))))


def _read_table(path):
    """# key = value metadata and the tab-split rows, with their line numbers."""
    meta = {}
    rows = []
    with open_text(path, InputError, newline="") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            if value:
                meta[key.strip()] = value.strip()
        elif line.strip():
            rows.append((lineno, line.split("\t")))
    return meta, rows


def _parse_field(path, lineno, parse, text, what):
    try:
        return parse(text)
    except ValueError:
        raise InputError(f"{path}:{lineno}: bad {what} {text!r}") from None


def read_weights(path):
    meta, rows = _read_table(path)
    if not rows or rows[0][1] != ["ptf_id", "weight"]:
        raise InputError(f"{path}: not a weight table")
    members, weights = [], []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise InputError(f"{path}:{lineno}: expected 2 tab-separated fields "
                             f"(ptf_id, weight), found {len(row)}")
        members.append(_parse_field(path, lineno, PtfId, row[0], "ptf_id"))
        weights.append(_parse_field(path, lineno, float, row[1], "weight"))
    try:
        vector = WeightVector(members=tuple(members), weights=tuple(weights))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return vector, meta


def write_replica_table(path, calibrations, meta=None):
    """All replica weight vectors, one row per (stratum, replica)."""
    members = next(iter(calibrations.values())).members
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(("stratum", "replica", "cal_rmse", "val_rmse")
                        + tuple(f"w_{m}" for m in members))
        for key in calibrations:
            result = calibrations[key]
            if result.members != members:
                raise InputError("replica table needs a common member list")
            for rep in result.replicas:
                writer.writerow((
                    key, rep.index, repr(rep.cal_rmse),
                    "" if rep.val_rmse is None else repr(rep.val_rmse),
                ) + tuple(repr(float(w)) for w in rep.weights.weights))


def read_replica_table(path):
    """Parse a replica table into members, per-stratum weight stacks and meta;
    each row's weights must sum to 1 within 1e-9, as read_weights requires."""
    meta, body = _read_table(path)
    if not body or body[0][1][:4] != ["stratum", "replica", "cal_rmse", "val_rmse"]:
        raise InputError(f"{path}: not a replica table")
    lineno, header = body[0]
    members = tuple(_parse_field(path, lineno, PtfId, c[2:], "member column")
                    for c in header[4:])
    strata = {}
    for lineno, row in body[1:]:
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} tab-separated "
                             f"fields, found {len(row)}")
        index = _parse_field(path, lineno, int, row[1], "replica index")
        cal_rmse = _parse_field(path, lineno, float, row[2], "cal_rmse")
        val_rmse = _parse_field(path, lineno, float, row[3], "val_rmse") if row[3] else None
        raw = [_parse_field(path, lineno, float, v, "weight") for v in row[4:]]
        try:
            if abs(sum(raw) - 1.0) > 1e-9:  # NaN passes here; normalized rejects it
                raise InputError(f"weights must sum to 1, got {sum(raw)!r}")
            weights = WeightVector.normalized(members, raw)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        strata.setdefault(row[0], []).append(ReplicaResult(
            index=index, weights=weights, cal_rmse=cal_rmse, val_rmse=val_rmse))
    return members, strata, meta
