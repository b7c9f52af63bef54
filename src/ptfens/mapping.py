"""Gridded application of calibrated ensembles.

Soil property layers come in as ESRI ASCII grids (six header lines, then
nrows lines of ncols values, top row first). Members are evaluated at the
heads 0, 330 and 15000 cm by ptf.member_thetas, as predict evaluates them:
once per cell, a class-table member once per texture class in the block,
gathered back by class; head 0 is the theta_s column, which every curve
gives exactly. The replica mean and sample std (ddof=1) come in closed form
from the replica weights (_kernels.replica_mean_std), giving a mean and a
CV (std over mean) grid per head. Cells where a required layer is nodata,
a texture fraction is negative or the fractions do not sum to 100, bulk
density or organic carbon lies outside its physical range, or the replica
mean is zero are nodata in the outputs; MapProduct counts them by reason.

A grid body is parsed in one numpy.loadtxt call, numpy's C float parser:
its grammar is Python float()'s without digit-group underscores and
non-ASCII digits, a '#' is a bad value, and whitespace-only lines are
skipped. Only a body that fails is scanned again, line by line, to name the
file line at fault. Values are written as repr(float), which reads back
bit for bit, one row at a time, so a writer holds O(ncols) floats and text;
one repr per value is the floor of writing a grid as text, so
write_grids writes several grids at once, split over up to one forked
writer per usable CPU, each grid's bytes being exactly write_grid's. A
writer reports only success or failure; after any failure the grids are
written again in a plain loop, which raises what a serial loop raises.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CoregistrationError, GridFormatError, InputError, open_text
from .ptf import LAYER_LIMITS, PREDICTOR_FIELDS, member_thetas, required_inputs
from .retention import FIELD_CAPACITY_HEAD, SATURATION_HEAD, WILTING_POINT_HEAD, _check_psi
from .texture import TEXTURE_SUM_TOLERANCE
from .ptf import predict_batch  # noqa: F401 - uncalled; in pipebench tracer.TARGETS
from .texture import classify_texture_array  # noqa: F401 - uncalled; in pipebench tracer.TARGETS

MAP_HEADS = (SATURATION_HEAD, FIELD_CAPACITY_HEAD, WILTING_POINT_HEAD)
HEAD_LABELS = {SATURATION_HEAD: "sat", FIELD_CAPACITY_HEAD: "fc", WILTING_POINT_HEAD: "wp"}
DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value")


@dataclass(eq=False)
class Grid:
    """One ESRI ASCII grid in memory; values[0] is the top (northmost) row."""

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise GridFormatError(f"bad grid dimensions {self.nrows} x {self.ncols}")
        if self.cellsize <= 0.0:
            raise GridFormatError(f"cellsize must be positive, got {self.cellsize!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.nrows, self.ncols):
            raise GridFormatError(
                f"values shape {self.values.shape} does not match header "
                f"{self.nrows} x {self.ncols}")

    def georef(self):
        return (self.ncols, self.nrows, self.xllcorner, self.yllcorner, self.cellsize)

    def valid_mask(self, rows=slice(None)):
        """Cells holding data, over all rows or the given slice of rows."""
        values = self.values[rows]
        return np.isfinite(values) & (values != self.nodata)

    def like(self, values, nodata=None):
        """New grid sharing this grid's georeferencing."""
        return Grid(ncols=self.ncols, nrows=self.nrows, xllcorner=self.xllcorner,
                    yllcorner=self.yllcorner, cellsize=self.cellsize,
                    nodata=self.nodata if nodata is None else nodata, values=values)


def read_grid(path):
    """Parse an ESRI ASCII grid; strict six-line header in canonical order,
    then nrows lines of ncols values (blank lines skipped)."""
    with open_text(path, GridFormatError) as fh:
        lines = fh.read().splitlines()
    header = {}
    for i, key in enumerate(_HEADER_KEYS):
        if i >= len(lines):
            raise GridFormatError(f"{path}: truncated header at line {i + 1}")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key.lower():
            raise GridFormatError(
                f"{path}: line {i + 1}: expected '{key} <value>', got {lines[i]!r}")
        header[key] = parts[1]
    try:
        ncols, nrows = int(header["ncols"]), int(header["nrows"])
        xll, yll, cellsize, nodata = (float(header[key]) for key in _HEADER_KEYS[2:])
    except ValueError as exc:
        raise GridFormatError(f"{path}: bad header value: {exc}") from None

    if ncols < 1 or nrows < 1:
        raise GridFormatError(f"{path}: bad grid dimensions {nrows} x {ncols}")
    for line, key, value in zip(range(3, 7), _HEADER_KEYS[2:], (xll, yll, cellsize, nodata)):
        if not math.isfinite(value):
            raise GridFormatError(f"{path}: line {line}: {key} must be finite, "
                                  f"got {header[key]!r}")
    if cellsize <= 0.0:
        raise GridFormatError(f"{path}: line 5: cellsize must be positive, "
                              f"got {header['cellsize']!r}")

    body = lines[6:]
    values = None
    if any(line.strip() for line in body):  # loadtxt warns on an empty body
        try:
            values = _parse_rows(body)
        except ValueError:
            pass
    if values is None or values.shape != (nrows, ncols):
        raise GridFormatError(f"{path}: {_body_fault(body, nrows, ncols)}")
    return Grid(ncols=ncols, nrows=nrows, xllcorner=xll, yllcorner=yll,
                cellsize=cellsize, nodata=nodata, values=values)


def _parse_rows(lines):
    """Whitespace-separated lines as a 2-D float64 array, blank lines
    skipped; comments=None keeps '#' a bad value, not a comment."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _parses(text):
    try:
        _parse_rows([text])
    except ValueError:
        return False
    return True


def _body_fault(body, nrows, ncols):
    """What is wrong with a grid body that did not parse as nrows x ncols
    numbers, naming the file line (the body starts on line 7)."""
    rows = [(n, line) for n, line in enumerate(body, start=7) if line.strip()]
    if len(rows) != nrows:
        return f"expected {nrows} data rows, found {len(rows)}"
    for n, line in rows:
        parts = line.split()
        if len(parts) != ncols:
            return f"line {n}: expected {ncols} values, found {len(parts)}"
        if not _parses(line):
            bad = next(p for p in parts if not _parses(p))
            return f"line {n}: could not convert string to float: {bad!r}"
    return f"body does not parse as {nrows} x {ncols} values"


def write_grid(path, grid):
    """Write a grid in the canonical six-header-line layout; values are
    written as repr(float), which reads back exactly, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {repr(float(grid.xllcorner))}\n")
        fh.write(f"yllcorner {repr(float(grid.yllcorner))}\n")
        fh.write(f"cellsize {repr(float(grid.cellsize))}\n")
        fh.write(f"NODATA_value {repr(float(grid.nodata))}\n")
        for row in grid.values:  # O(ncols) floats and text at a time
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


def write_grids(pairs):
    """Write each (path, Grid) pair with write_grid, the pairs split
    round-robin over at most one writer per usable CPU: this process writes
    pairs 0, k, 2k, ... and k - 1 forked children write the rest. A child
    ends with os._exit, status 0 if each of its writes succeeded and 1
    otherwise, so it never returns into the caller, runs no atexit handler
    and flushes none of the parent's buffers. If anything failed (a write of
    this process, a child's status, or os.fork itself), every pair is
    written again by a plain loop once every child has been reaped, which
    raises what a serial loop raises. Without os.fork, or with one usable
    CPU, this is the plain loop."""
    pairs = list(pairs)
    n_writers = _writer_count(len(pairs))
    pids, failed = [], False
    try:
        for k in range(1, n_writers):
            pid = os.fork()
            if pid == 0:  # the child: write share k, then exit
                status = 1
                try:
                    for pair in pairs[k::n_writers]:
                        write_grid(*pair)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        for pair in pairs[::n_writers]:
            write_grid(*pair)
    except Exception:  # noqa: BLE001 - the plain loop below meets it again, or not
        failed = True
    finally:
        for pid in pids:
            failed |= os.waitpid(pid, 0)[1] != 0
    if failed:
        for pair in pairs:
            write_grid(*pair)


def _writer_count(n_pairs):
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_pairs, cpus))


# Cells per map block. At 4,096 a block's float64 column is 32 KiB, under
# glibc's 128 KiB mmap threshold, so most block temporaries are reused from
# the heap rather than mapped and zero-filled anew. Measured on a 300 x 240
# map with 13 members and 100 replicas, grids written a row at a time (one
# BLAS thread, shared 2-vCPU host), median apply_ensemble_map time per call
# and peak RSS over twelve calls, five rounds: 16,384 cells 120 ms, 59.0 MB;
# 8,192 107 ms, 50.9 MB; 4,096 122 ms, 46.8 MB; 2,048 178 ms, 44.6 MB.
# 4,096 trades about 15 ms per call for 4 MB of peak; below it the
# per-block cost of the member predictions takes over.
MAP_BLOCK_CELLS = 4096


@dataclass(eq=False)
class SoilLayerStack:
    """Co-registered predictor grids; texture is mandatory, the rest optional."""

    sand: Grid
    silt: Grid
    clay: Grid
    bulk_density: Grid = None
    organic_carbon: Grid = None

    def __post_init__(self):
        ref = self.sand.georef()
        for name in PREDICTOR_FIELDS[1:]:
            grid = getattr(self, name)
            if grid is not None and grid.georef() != ref:
                raise CoregistrationError(
                    f"layer {name!r} georeferencing {grid.georef()} does not match "
                    f"the sand layer {ref}")

    def layer(self, name):
        return getattr(self, name)


@dataclass(eq=False)
class MapProduct:
    """Mean and CV grids per head, and nodata counts by reason: a cell is
    counted under the first that applies (a required layer is nodata, the
    fractions are off 100 ± TEXTURE_SUM_TOLERANCE, a fraction is negative, a
    required bulk density or organic carbon is negative or above its
    physical limit); cv_zero_mean_cells counts the (cell, head) pairs nodata
    in CV only."""

    mean: dict   # head (cm) -> Grid
    cv: dict     # head (cm) -> Grid
    n_valid_cells: int
    cv_zero_mean_cells: int
    missing_layer_cells: int
    texture_sum_cells: int
    negative_fraction_cells: int
    out_of_range_cells: int


def apply_ensemble_map(layers, replica_weights, heads=MAP_HEADS, topsoil=True,
                       nodata=DEFAULT_NODATA, block_cells=MAP_BLOCK_CELLS):
    """Mean and CV water-content grids from per-replica ensemble weights.

    replica_weights is the list of calibrated weight vectors, one per
    bootstrap replica, all over the same member list; at least two are
    needed for a spread estimate. heads are suctions in cm, finite and >= 0.
    Blocks of whole rows hold about block_cells cells (at least one row), so
    the working set is flat in raster width and replica count: about 3.5 MiB
    traced at the default, MAP_BLOCK_CELLS, with 11 members, whose 32 KiB
    float64 block columns come from the heap rather than fresh mappings. The
    layers and the mean and CV grids are held whole; write_grid writes a
    grid a row at a time. No output byte depends on block_cells.
    """
    replica_weights = list(replica_weights)
    if len(replica_weights) < 2:
        raise InputError("need at least two replica weight vectors to estimate a CV")
    members = replica_weights[0].members
    for wv in replica_weights[1:]:
        if wv.members != members:
            raise InputError("replica weight vectors disagree on the member list")
    weight_matrix = np.stack([wv.as_array() for wv in replica_weights])

    needed = sorted({f for m in members for f in required_inputs(m)})
    for name in needed:
        if layers.layer(name) is None:
            raise InputError(f"members need a {name!r} layer that was not provided")

    sand = layers.sand
    heads = tuple(float(h) for h in _check_psi(heads))
    mean_out = np.full((len(heads), sand.nrows, sand.ncols), nodata)
    cv_out = np.full_like(mean_out, nodata)
    n_valid = n_zero_mean = n_missing = n_sum = n_negative = n_range = 0

    block_rows = max(1, block_cells // sand.ncols)
    for row0 in range(0, sand.nrows, block_rows):
        rows = slice(row0, row0 + block_rows)
        block = {name: layers.layer(name).values[rows] for name in needed}
        present = np.logical_and.reduce([layers.layer(n).valid_mask(rows) for n in needed])
        fractions = np.stack([block["sand"], block["silt"], block["clay"]])
        with np.errstate(invalid="ignore"):
            sum_ok = np.abs(fractions.sum(axis=0) - 100.0) <= TEXTURE_SUM_TOLERANCE
            nonnegative = np.all(fractions >= 0.0, axis=0)
            in_range = np.ones_like(present)
            for name in needed:
                if name in LAYER_LIMITS:
                    in_range &= (block[name] >= 0.0) & (block[name] <= LAYER_LIMITS[name])
        n_missing += int(np.count_nonzero(~present))
        n_sum += int(np.count_nonzero(present & ~sum_ok))
        valid = present & sum_ok
        n_negative += int(np.count_nonzero(valid & ~nonnegative))
        valid &= nonnegative
        n_range += int(np.count_nonzero(valid & ~in_range))
        valid &= in_range
        if not np.any(valid):
            continue
        cells = {name: block[name][valid] for name in needed}
        n_cells = int(valid.sum())
        n_valid += n_cells

        thetas = member_thetas(members, heads, **cells,
                               topsoil=np.full(n_cells, 1.0 if topsoil else 0.0))
        mean, sd = _kernels.replica_mean_std(weight_matrix, thetas.reshape(len(members), -1))
        mean, sd = mean.reshape(len(heads), n_cells), sd.reshape(len(heads), n_cells)
        nonzero = mean != 0.0
        n_zero_mean += int(np.count_nonzero(~nonzero))
        mean_out[:, rows][:, valid] = mean
        cv_out[:, rows][:, valid] = np.divide(sd, mean, where=nonzero,
                                              out=np.full_like(sd, nodata))

    return MapProduct(
        mean={h: sand.like(mean_out[t], nodata=nodata) for t, h in enumerate(heads)},
        cv={h: sand.like(cv_out[t], nodata=nodata) for t, h in enumerate(heads)},
        n_valid_cells=n_valid, cv_zero_mean_cells=n_zero_mean,
        missing_layer_cells=n_missing, texture_sum_cells=n_sum,
        negative_fraction_cells=n_negative, out_of_range_cells=n_range)
