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

A grid body is parsed by numpy.loadtxt, numpy's C float parser, a block of
rows per call: its grammar is Python float()'s without digit-group
underscores and non-ASCII digits, a '#' is a bad value, and whitespace-only
lines are skipped. A body fault is named by reading the file again, line by
line, for the file line at fault. Values are written as repr(float), which
reads back bit for bit, one row at a time.

apply_ensemble_map maps grids held in memory. map_files, which the map
command runs, streams the layer files instead, so that no process holds a
whole raster: the rows are split into one band per usable CPU, this process
and forked children each read, map and write their own band block by
block, and each output is put together from the bands' rows once every
band has succeeded. After any failure the map runs again as one band in
this process, which raises what a serial run raises.
"""

import contextlib
import itertools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields

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
    then nrows lines of ncols values (blank lines skipped): all its rows as
    one block of the reader that map streams blocks with."""
    with _GridReader(path) as reader:
        return reader.window(reader.nrows)


class _GridReader:
    """An ESRI ASCII grid file read a block of rows at a time from row start
    on: the header is checked on opening and rows are parsed as they are
    asked for. A body fault in any block is named as read_grid names it, by
    reading the whole file again (_body_fault)."""

    def __init__(self, path, start=0):
        self.path = path
        self._lines = _text_lines(path)
        self.header = _parse_header(self._lines, path)
        self.ncols, self.nrows = self.header[:2]
        self._rows = (line for line in self._lines if line.strip())
        next(itertools.islice(self._rows, start, start), None)  # pass over rows before start
        self._done = start  # rows read or passed over

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._lines.close()

    def georef(self):
        return self.header[:5]

    def window(self, n):
        """The next n rows as a Grid with this file's georeferencing."""
        lines = list(itertools.islice(self._rows, n))
        self._done += n
        values = None
        if len(lines) == n:
            try:
                values = _parse_rows(lines)
            except ValueError:
                pass
        if values is None or values.shape != (n, self.ncols) or (
                self._done == self.nrows and next(self._rows, None) is not None):
            raise GridFormatError(
                f"{self.path}: {_body_fault(self.path, self.nrows, self.ncols)}")
        return Grid(self.ncols, n, *self.header[2:], values=values)


def _text_lines(path):
    """The lines of a UTF-8 text file, split as str.splitlines splits, read
    as they are asked for; a file that open_text cannot read raises its
    error, which names the file (and the first byte that is not UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield from line.splitlines()
    except (OSError, UnicodeDecodeError):
        open_text(path, GridFormatError)
        raise


def _parse_header(lines, path):
    """(ncols, nrows, xllcorner, yllcorner, cellsize, nodata), checked."""
    header = {}
    for i, key in enumerate(_HEADER_KEYS):
        line = next(lines, None)
        if line is None:
            raise GridFormatError(f"{path}: truncated header at line {i + 1}")
        parts = line.split()
        if len(parts) != 2 or parts[0].lower() != key.lower():
            raise GridFormatError(
                f"{path}: line {i + 1}: expected '{key} <value>', got {line!r}")
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
    return ncols, nrows, xll, yll, cellsize, nodata


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


def _body_fault(path, nrows, ncols):
    """What is wrong with the body of the grid file at path, which did not
    parse as nrows x ncols numbers, naming the file line (the body starts
    on line 7). The file is read again, a line at a time."""
    def rows():
        for n, line in enumerate(_text_lines(path), start=1):
            if n > 6 and line.strip():
                yield n, line

    found = sum(1 for _ in rows())
    if found != nrows:
        return f"expected {nrows} data rows, found {found}"
    for n, line in rows():
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
    with open(path, "wb") as fh:
        fh.write(_header_text(*grid.georef(), grid.nodata))
        _write_rows(fh, grid.values)


def _header_text(ncols, nrows, *values):
    """A grid's six header lines, as bytes; values in _HEADER_KEYS order."""
    return "".join([f"ncols {ncols}\n", f"nrows {nrows}\n"] + [
        f"{key} {float(value)!r}\n" for key, value in zip(_HEADER_KEYS[2:], values)]).encode()


def _write_rows(fh, values):
    """Append rows of values to a binary file as repr(float) text, holding
    O(ncols) floats and text at a time."""
    for row in values:
        fh.write((" ".join(map(repr, row.tolist())) + "\n").encode())


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
    layers and the mean and CV grids are held whole: this is the in-memory
    library call. map_files, which the map command runs, calls it on one
    block of rows at a time and holds no whole raster; it relies on no
    output byte depending on block_cells or on the window mapped.
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


# map_files' outputs in the order written, and counts in a band's report
_OUTPUTS = tuple((kind, head) for head in MAP_HEADS for kind in ("mean", "cv"))
_COUNTS = tuple(f.name for f in fields(MapProduct))[2:]


def map_files(paths, replica_weights, out_dir, topsoil=True):
    """Map the layer files at paths ({SoilLayerStack field: path}) as
    apply_ensemble_map maps their grids, writing mean_{sat,fc,wp}.asc and
    cv_{sat,fc,wp}.asc to out_dir, in bands of rows as the module docstring
    says; returns MapProduct's counts by name. Bands write to unnamed
    temporary files in out_dir, a forked child reports its counts through a
    pipe and ends with os._exit, and no output is opened before every band
    has succeeded."""
    cpus = _usable_cpus()
    if cpus > 1:
        try:
            return _map_bands(paths, replica_weights, out_dir, topsoil, cpus)
        except Exception:  # noqa: BLE001 - the serial run below meets it again, or not
            pass
    return _map_bands(paths, replica_weights, out_dir, topsoil, 1)


def _usable_cpus():
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_bands(paths, replica_weights, out_dir, topsoil, cpus):
    """map_files over one band per CPU, at most one per row; raises, once
    every child is reaped, if any band failed."""
    outputs = [os.path.join(out_dir, f"{kind}_{HEAD_LABELS[head]}.asc")
               for kind, head in _OUTPUTS]
    with contextlib.ExitStack() as stack:
        readers = {name: stack.enter_context(_GridReader(path)) for name, path in paths.items()}
        SoilLayerStack(**readers)  # the whole layers are co-registered
        georef = readers["sand"].georef()
        n_bands = min(cpus, georef[1])
        bands = [range(georef[1] * b // n_bands, georef[1] * (b + 1) // n_bands)
                 for b in range(n_bands)]
        parts = [[stack.enter_context(tempfile.TemporaryFile(dir=out_dir)) for _ in outputs]
                 for _ in bands]
        read_end, write_end = os.pipe()
        reports = stack.enter_context(open(read_end, "rb"))
        sender = stack.enter_context(open(write_end, "wb", buffering=0))
        pids = []
        try:
            for band, files in zip(bands[1:], parts[1:]):
                pid = os.fork()
                if pid == 0:  # the child: map its band, report its counts, exit
                    status = 1
                    try:
                        own = {name: _GridReader(path, band.start) for name, path in paths.items()}
                        counts = _map_band(own, replica_weights, band, files, topsoil)
                        sender.write(" ".join(map(str, counts.tolist())).encode() + b"\n")
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
            counts = _map_band(readers, replica_weights, bands[0], parts[0], topsoil)
        finally:
            sender.close()  # so that reports ends once every child has exited
            failed = [os.waitpid(pid, 0)[1] != 0 for pid in pids]
        if any(failed):
            raise ChildProcessError("a map band failed")
        for line in reports:
            counts += np.array(line.split(), dtype=np.int64)
        for path, files in zip(outputs, zip(*parts)):
            with open(path, "wb") as fh:
                fh.write(_header_text(*georef, DEFAULT_NODATA))
                for part in files:
                    part.seek(0)
                    shutil.copyfileobj(part, fh)
    return dict(zip(_COUNTS, counts.tolist()))


def _map_band(readers, replica_weights, rows, outs, topsoil):
    """Map the range rows block by block from readers ({layer: _GridReader}
    at row rows.start), appending the six outputs' rows to the binary files
    outs in _OUTPUTS order; the counts, in _COUNTS order."""
    counts = np.zeros(len(_COUNTS), dtype=np.int64)
    block_rows = max(1, MAP_BLOCK_CELLS // readers["sand"].ncols)
    for row0 in range(rows.start, rows.stop, block_rows):
        n = min(block_rows, rows.stop - row0)
        product = apply_ensemble_map(
            SoilLayerStack(**{name: r.window(n) for name, r in readers.items()}),
            replica_weights, topsoil=topsoil)
        for fh, (kind, head) in zip(outs, _OUTPUTS):
            _write_rows(fh, getattr(product, kind)[head].values)
        counts += [getattr(product, name) for name in _COUNTS]
        del product  # not held while the next block is read and mapped
    for fh in outs:
        fh.flush()
    return counts
