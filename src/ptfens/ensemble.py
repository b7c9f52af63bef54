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

The solver is batched. simplex_weights_batch walks many fits that share one
member list at once: each pass lays out every live fit's bordered KKT system
on all members and solves the stack with one np.linalg.solve, then takes
each fit's accept or step-back branch by masks, and a fit leaves the batch
once it has converged. simplex_weights is a batch of one, and a fit's bytes
do not depend on its batch. Calibration first plans every (stratum, replica)
fit, keeping only its G = PP', b = Py, corner chi2 and drawn rows, then
solves all of them in one call; chi2, RMSEs and the dominance check come
from residuals afterwards. On the benchmark's seed-1 calibrate inputs (13
members, 1 global and 11 texture fits, one BLAS thread) a 100-replica
calibration took 0.56-0.76 s in process against 1.27-1.72 s with one
active-set loop per fit (shared 2-vCPU host), and peaked at about 7 MB more
RSS (60.5-61.4 against 53.6 MB).

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
    return float(np.sum(_residuals(weights, member_preds, observed) ** 2))


def ensemble_theta(weights, heads, **arrays):
    """(rows, heads) weighted-mean water contents of rows of predict_batch
    keyword arrays: ptf.member_thetas weighted by _kernels.weighted_sum. A
    row's bytes do not depend on the other rows, so one profile
    (ptf.profile_arrays) equals its sample-table row (samples_theta)."""
    thetas = member_thetas(weights.members, _check_psi(heads).reshape(-1), **arrays)
    flat = _kernels.weighted_sum(weights.as_array(), thetas.reshape(len(thetas), -1))
    return flat.reshape(thetas.shape[1:]).T


def _fit_inputs(member_preds, observed, members):
    """Contiguous float64 (members, points) predictions, targets and member
    ids of one fit: one member or more, one point or more, finite values."""
    member_preds = np.ascontiguousarray(member_preds, dtype=np.float64)
    observed = np.ascontiguousarray(observed, dtype=np.float64)
    if member_preds.ndim != 2 or member_preds.shape[1] != observed.size:
        raise InputError(f"member predictions shape {member_preds.shape} does not match "
                         f"{observed.size} points")
    if member_preds.size == 0:
        raise InputError(f"a fit needs a member and a point, got shape {member_preds.shape}")
    if not (np.isfinite(member_preds).all() and np.isfinite(observed).all()):
        raise InputError("member predictions and observed values must be finite")
    if members is None:
        members = tuple(f"member_{j}" for j in range(member_preds.shape[0]))
    if len(members) != member_preds.shape[0]:
        raise InputError("member id list does not match the prediction rows")
    return member_preds, observed, members


def _normal_equations(member_preds, observed):
    """G = PP', b = Py and each member's corner chi2 ||p_j - y||^2 of one fit;
    einsum without optimize never calls BLAS (see the module docstring)."""
    return (np.einsum("ij,kj->ik", member_preds, member_preds),
            np.einsum("ij,j->i", member_preds, observed),
            np.sum((member_preds - observed) ** 2, axis=1))


def _residuals(weights, member_preds, observed):
    """Weighted-mean ensemble minus observed at every point; a point's bytes
    do not depend on the other points (_kernels.weighted_sum)."""
    total = weights.sum()
    if total <= 0.0:
        weights = np.ones_like(weights)
        total = weights.sum()
    return _kernels.weighted_sum(weights / total, member_preds) - observed


def _corner(members, corner_chi2):
    """The best single member as a weight vector."""
    return WeightVector.normalized(members, np.eye(len(members))[np.argmin(corner_chi2)])


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


# A solve is accepted when every row of its KKT system holds to this share of
# the row's magnitude, sum_j |K_ij z_j| + |rhs_i|. LU with partial pivoting
# leaves about (m + 1) * 1e-16 of it; an overflow, a NaN or a pivot growth
# that lost the system leaves more. (A consistent system that is singular only
# to rounding passes with one of its solutions, and each of them minimizes
# chi2 on the support.)
_SOLVE_TOL = 1e-12


def _kkt_solutions(gram, lin, support):
    """(F, m) weights on each fit's support that minimize w'Gw - 2b'w subject
    to sum(w) = 1, zero off it.

    Each fit's bordered system [[G_SS, 1], [1', 0]] [w_S; -mu] = [b_S; 1] is
    laid out on all m members, with an identity row for each member off the
    support, so the stack is solved by one np.linalg.solve. When the stack is
    singular each fit is solved alone; a fit whose own system is singular, or
    whose solution does not satisfy its system to rounding, is solved by
    least squares (_support_solution). Every step is the same for a fit in
    any stack, so its weights do not depend on the other fits.
    """
    n_fits, m = lin.shape
    kkt = np.zeros((n_fits, m + 1, m + 1))
    kkt[:, :m, :m] = np.where(support[:, :, None] & support[:, None, :], gram, np.eye(m))
    kkt[:, :m, m] = kkt[:, m, :m] = support
    rhs = np.append(np.where(support, lin, 0.0), np.ones((n_fits, 1)), axis=1)[..., None]
    try:
        z = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        z = np.full(rhs.shape, np.nan)
        for f in range(n_fits):
            try:
                z[f:f + 1] = np.linalg.solve(kkt[f:f + 1], rhs[f:f + 1])
            except np.linalg.LinAlgError:
                pass
    z = z[..., 0]
    with np.errstate(invalid="ignore", over="ignore"):
        terms = kkt * z[:, None, :]
        held = (np.abs(terms.sum(axis=2) - rhs[..., 0])
                <= _SOLVE_TOL * (np.abs(terms).sum(axis=2) + np.abs(rhs[..., 0])))
    for f in np.flatnonzero(~held.all(axis=1)):
        idx = np.flatnonzero(support[f])
        z[f] = 0.0
        z[f, idx] = _support_solution(gram[f], lin[f], idx)
    return np.where(support, z[:, :m], 0.0)


# A multiplier counts as non-negative down to -_KKT_TOL times the largest
# diagonal entry of G: rounding in G w - b is about m * 1e-16 of G's scale,
# and a member whose multiplier is this close to zero could lower chi2 by no
# more than about its square.
_KKT_TOL = 1e-12


def _active_set(gram, lin, corner_chi2):
    """(F, m) simplex weights of F fits from their stacked G (F, m, m), b and
    corner chi2 (F, m), by the active-set walk of simplex_weights.

    Every live fit takes one pass per loop: one batched KKT solve
    (_kkt_solutions), then the accept or step-back branch of each fit, chosen
    by masks. A fit leaves the batch when it has converged. Every sum runs
    along one fit's own row, so a fit's bytes do not depend on its batch.
    """
    n_fits, m = lin.shape
    tol = _KKT_TOL * np.diagonal(gram, axis1=1, axis2=2).max(axis=1)
    w = np.zeros((n_fits, m))
    w[np.arange(n_fits), np.argmin(corner_chi2, axis=1)] = 1.0
    support = w > 0.0
    active = np.ones(n_fits, dtype=bool)
    # each pass either adds a member or drops at least one; the cap only
    # guards against rounding making the walk cycle
    for _ in range(10 * m):
        live = np.flatnonzero(active)
        if not live.size:
            break
        s, cur, g, b = support[live], w[live], gram[live], lin[live]
        z = _kkt_solutions(g, b, s)
        accept = np.all((z > 0.0) | ~s, axis=1)

        # accept: move to z and add the member with the most negative
        # multiplier (G w - b)_j - mu, unless none is below -tol
        grad = np.einsum("fij,fj->fi", g, z) - b
        mu = np.where(s, grad, 0.0).sum(axis=1) / s.sum(axis=1)
        multipliers = np.where(s, np.inf, grad - mu[:, None])
        j = np.argmin(multipliers, axis=1)
        enters = accept & (multipliers[np.arange(live.size), j] < -tol[live])

        # step back: from w towards z until the first weight reaches zero
        # (each ratio is at most 1); a fit that cannot move is optimal to rounding
        neg = s & (z <= 0.0)
        gap = cur - z
        ratio = np.divide(cur, gap, out=np.zeros_like(gap), where=neg & (gap > 0.0))
        alpha = np.where(neg, ratio, 1.0).min(axis=1)
        moves = ~accept & (alpha > 0.0)
        stepped = np.where(s, np.maximum(cur + alpha[:, None] * (z - cur), 0.0), 0.0)
        stepped[neg & (ratio <= alpha[:, None])] = 0.0

        w[live] = np.where(accept[:, None], z, np.where(moves[:, None], stepped, cur))
        support[live] = np.where(moves[:, None], stepped > 0.0, s)
        support[live[enters], j[enters]] = True
        active[live] = enters | moves
    return w


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

    One fit is a batch of one of simplex_weights_batch, the solver every
    calibration uses; its bytes equal the fit's in any batch. Solving the
    1,200 fits of a 100-replica texture calibration together took 0.56-0.76 s
    on the benchmark's seed-1 inputs, against 1.27-1.72 s with one loop per
    fit (see the module docstring). Predictions and targets must be finite,
    with one member and one point or more.
    """
    return simplex_weights_batch([(member_preds, observed)], members)[0]


def simplex_weights_batch(fits, members=None):
    """simplex_weights of each (member_preds, observed) fit, all solved in one
    batched active set (each pass solves every live fit's KKT system in one
    stacked np.linalg.solve). The fits share one member list; their point
    counts may differ. Each result has the bytes of its fit solved alone."""
    fits = [_fit_inputs(preds, observed, members) for preds, observed in fits]
    if len({preds.shape[0] for preds, _, _ in fits}) > 1:
        raise InputError("the fits of one batch need one member list")
    if not fits:
        return ()
    stats = [_normal_equations(preds, observed) for preds, observed, _ in fits]
    raw = _active_set(*map(np.stack, zip(*stats)))
    vectors = []
    for (preds, observed, names), (_, _, corner_chi2), w in zip(fits, stats, raw):
        vector = WeightVector.normalized(names, w)
        if chi2(vector, preds, observed) > corner_chi2.min():
            vector = _corner(names, corner_chi2)
        vectors.append(vector)
    return tuple(vectors)


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


def _calibrate_strata(members, preds, observed, strata, n_replicas):
    """Bootstrap-calibrate each stratum on its own point set, fitting every
    replica of every stratum in one batched solve (_active_set).

    A stratum is (samples, point_of, seed path): its replicas resample the
    rows of samples, a SampleTable, and point_of maps each of its
    observations to a point (a column of preds), or to -1 for an
    observation the stratum leaves out. Until the solve a fit keeps only its
    G, b and corner chi2 and its drawn rows; its chi2 and RMSEs then come
    from the residuals of its stratum's points.
    """
    _fit_inputs(preds, observed, members)  # checks every fit's points at once
    planned, stats = [], []
    for samples, point_of, seed_path in strata:
        covered = point_of >= 0
        local = np.where(covered, np.cumsum(covered) - 1, -1)  # position among the covered
        # np.take gathers columns in C order, which the einsum sums read (a
        # preds[:, idx] gather is F-ordered and would change their bytes)
        points = (np.take(preds, point_of[covered], axis=1), observed[point_of[covered]])
        draws = []
        for rep in bootstrap_split(samples, n_replicas, seed_path):
            drawn = np.array(rep.calibration_rows, dtype=np.int32)
            cal = _points_of(samples, local, drawn)
            if cal.size == 0:
                raise InputError("bootstrap replica drew no observation points")
            stats.append(_normal_equations(np.take(points[0], cal, axis=1), points[1][cal]))
            draws.append((rep.index, drawn))
        planned.append((samples, local, points, draws))
    gram, lin, corner_chi2 = map(np.stack, zip(*stats))
    del stats  # from here on the stacks hold the fits' statistics
    fitted = zip(_active_set(gram, lin, corner_chi2), corner_chi2)

    results = []
    for (samples, local, (preds_s, observed_s), draws), (_, point_of, _) in zip(planned, strata):
        replicas = []
        for index, drawn in draws:
            raw, corners = next(fitted)
            vector, corner = WeightVector.normalized(members, raw), corners.min()
            resid = _residuals(vector.as_array(), preds_s, observed_s)
            cal = _points_of(samples, local, drawn)
            ens_chi2 = float(np.sum(resid[cal] ** 2))
            if ens_chi2 > corner:  # as in simplex_weights
                vector = _corner(members, corners)
                resid = _residuals(vector.as_array(), preds_s, observed_s)
                ens_chi2 = float(np.sum(resid[cal] ** 2))
            if ens_chi2 > corner + 1e-9 * max(corner, 1.0):
                raise PtfensError("ensemble lost to one of its members on calibration data")
            # the out-of-bag rows' points, in row order: those no drawn row owns
            out_of_bag = np.ones(observed_s.size, dtype=bool)
            out_of_bag[cal] = False
            val = np.flatnonzero(out_of_bag)
            val_rmse = float(np.sqrt(np.sum(resid[val] ** 2) / val.size)) if val.size else None
            replicas.append(ReplicaResult(index=index, weights=vector,
                                          cal_rmse=float(np.sqrt(ens_chi2 / cal.size)),
                                          val_rmse=val_rmse))
        w = np.stack([r.weights.as_array() for r in replicas])
        std = w.std(axis=0, ddof=1) if len(replicas) > 1 else np.zeros(w.shape[1])
        results.append(CalibrationResult(
            members=members, replicas=tuple(replicas),
            mean_weights=WeightVector.normalized(members, w.mean(axis=0)),
            weight_std=tuple(float(s) for s in std),
            n_points=int(np.count_nonzero(point_of >= 0))))
    return results


def _points_of(samples, local, rows):
    """Positions of the rows' observations among a stratum's points, in row
    order, leaving out the observations the stratum does not cover."""
    idx = local[samples.obs_index(rows)]
    return idx[idx >= 0]


def calibrate(members, samples, n_replicas=100, seed=0):
    """Bootstrap-calibrate ensemble weights on every observation point; each
    replica is fitted by the solver of simplex_weights."""
    members = tuple(map(PtfId, members))
    preds, observed, psi = point_matrix(members, samples)
    return _calibrate_strata(members, preds, observed,
                             [(samples, np.arange(psi.size), _seed_path(seed))], n_replicas)[0]


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

    strata = {GLOBAL_STRATUM: (samples, np.arange(psi.size), seed_path)}
    below = []
    point_vectors = {}  # stratum key -> flat point indices it covers
    for key, rows, point_of in plan:
        covered = point_of[point_of >= 0]
        if covered.size < min_stratum_points:
            below.append(key)
            continue
        strata[key] = (samples.take(rows), point_of, _stratum_seed(seed_path, key))
        point_vectors[key] = covered
    calibrations = dict(zip(strata, _calibrate_strata(members, preds, observed,
                                                      list(strata.values()), n_replicas)))
    fallback = calibrations[GLOBAL_STRATUM].mean_weights

    # pooled comparison on the identical full point set
    def pooled_rmse(vector_for):
        ens = np.empty(observed.size)
        assigned = np.zeros(observed.size, dtype=bool)
        for key, covered in point_vectors.items():
            w = vector_for(key).as_array()
            ens[covered] = _kernels.weighted_sum(w, np.take(preds, covered, axis=1))
            assigned[covered] = True
        rest = np.flatnonzero(~assigned)
        if rest.size:
            ens[rest] = _kernels.weighted_sum(fallback.as_array(), np.take(preds, rest, axis=1))
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
    strata, seen = {}, set()
    for lineno, row in body[1:]:
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} tab-separated "
                             f"fields, found {len(row)}")
        index = _parse_field(path, lineno, int, row[1], "replica index")
        if (row[0], index) in seen:
            raise InputError(f"{path}:{lineno}: replica {index} of stratum {row[0]!r} repeated")
        seen.add((row[0], index))
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
