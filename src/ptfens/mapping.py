"""Gridded application of calibrated ensembles.

Soil property layers come in as ESRI ASCII grids (six header lines, then
nrows lines of ncols values, top row first). For every valid cell the
ensemble is evaluated once per bootstrap replica at the three standard
heads (0, 330 and 15000 cm of suction), and the replica spread becomes the
uncertainty surface: the outputs are a mean grid and a coefficient of
variation grid (sample std over replicas, ddof=1, divided by the mean) per
head. Cells where any required layer is nodata, where a texture fraction is
negative or the fractions do not sum to 100, or where the replica mean is
zero are nodata in the outputs; zero-mean cells are counted separately.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CoregistrationError, GridFormatError, InputError
from .ptf import predict_batch, required_inputs
from .retention import FIELD_CAPACITY_HEAD, SATURATION_HEAD, WILTING_POINT_HEAD
from .texture import TEXTURE_SUM_TOLERANCE, classify_texture_array

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

    def valid_mask(self):
        return np.isfinite(self.values) & (self.values != self.nodata)

    def like(self, values, nodata=None):
        """New grid sharing this grid's georeferencing."""
        return Grid(ncols=self.ncols, nrows=self.nrows, xllcorner=self.xllcorner,
                    yllcorner=self.yllcorner, cellsize=self.cellsize,
                    nodata=self.nodata if nodata is None else nodata, values=values)


def read_grid(path):
    """Parse an ESRI ASCII grid; strict six-line header in canonical order."""
    with open(path, encoding="utf-8") as fh:
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
        xll, yll = float(header["xllcorner"]), float(header["yllcorner"])
        cellsize = float(header["cellsize"])
        nodata = float(header["NODATA_value"])
    except ValueError as exc:
        raise GridFormatError(f"{path}: bad header value: {exc}") from None

    rows = []
    body = [ln for ln in lines[6:] if ln.strip()]
    if len(body) != nrows:
        raise GridFormatError(f"{path}: expected {nrows} data rows, found {len(body)}")
    for r, line in enumerate(body):
        parts = line.split()
        if len(parts) != ncols:
            raise GridFormatError(
                f"{path}: line {r + 7}: expected {ncols} values, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise GridFormatError(f"{path}: line {r + 7}: {exc}") from None
    return Grid(ncols=ncols, nrows=nrows, xllcorner=xll, yllcorner=yll,
                cellsize=cellsize, nodata=nodata, values=np.asarray(rows))


def write_grid(path, grid):
    """Write a grid in the canonical six-header-line layout."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {repr(float(grid.xllcorner))}\n")
        fh.write(f"yllcorner {repr(float(grid.yllcorner))}\n")
        fh.write(f"cellsize {repr(float(grid.cellsize))}\n")
        fh.write(f"NODATA_value {repr(float(grid.nodata))}\n")
        for row in grid.values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


_LAYER_FIELDS = ("sand", "silt", "clay", "bulk_density", "organic_carbon")


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
        for name in _LAYER_FIELDS[1:]:
            grid = getattr(self, name)
            if grid is not None and grid.georef() != ref:
                raise CoregistrationError(
                    f"layer {name!r} georeferencing {grid.georef()} does not match "
                    f"the sand layer {ref}")

    def layer(self, name):
        return getattr(self, name)


@dataclass(eq=False)
class MapProduct:
    mean: dict   # head (cm) -> Grid
    cv: dict     # head (cm) -> Grid
    n_valid_cells: int
    cv_zero_mean_cells: int


def apply_ensemble_map(layers, replica_weights, heads=MAP_HEADS, topsoil=True,
                       nodata=DEFAULT_NODATA, block_rows=256):
    """Mean and CV water-content grids from per-replica ensemble weights.

    replica_weights is the list of calibrated weight vectors, one per
    bootstrap replica, all over the same member list; at least two are
    needed for a spread estimate.
    """
    replica_weights = list(replica_weights)
    if len(replica_weights) < 2:
        raise InputError("need at least two replica weight vectors to estimate a CV")
    members = replica_weights[0].members
    for wv in replica_weights[1:]:
        if wv.members != members:
            raise InputError("replica weight vectors disagree on the member list")
    weight_matrix = np.ascontiguousarray(
        np.stack([wv.as_array() for wv in replica_weights]))

    needed = sorted({f for m in members for f in required_inputs(m)})
    for name in needed:
        if layers.layer(name) is None:
            raise InputError(f"members need a {name!r} layer that was not provided")

    sand = layers.sand
    heads = tuple(float(h) for h in heads)
    mean_out = {h: np.full((sand.nrows, sand.ncols), nodata) for h in heads}
    cv_out = {h: np.full((sand.nrows, sand.ncols), nodata) for h in heads}
    n_valid = 0
    n_zero_mean = 0

    for row0 in range(0, sand.nrows, block_rows):
        row1 = min(row0 + block_rows, sand.nrows)
        block = {name: layers.layer(name).values[row0:row1]
                 for name in needed}
        valid = np.ones((row1 - row0, sand.ncols), dtype=bool)
        for name in needed:
            valid &= layers.layer(name).valid_mask()[row0:row1]
        total = block["sand"] + block["silt"] + block["clay"]
        with np.errstate(invalid="ignore"):
            valid &= np.abs(total - 100.0) <= TEXTURE_SUM_TOLERANCE
            for name in ("sand", "silt", "clay"):
                valid &= block[name] >= 0.0
        if not np.any(valid):
            continue
        cells = {name: block[name][valid] for name in needed}
        n_cells = int(valid.sum())
        n_valid += n_cells

        texture = classify_texture_array(cells["sand"], cells["silt"], cells["clay"])
        thetas = np.empty((len(members), len(heads) * n_cells))
        for k, m in enumerate(members):
            batch = predict_batch(
                m, sand=cells.get("sand"), silt=cells.get("silt"),
                clay=cells.get("clay"), bulk_density=cells.get("bulk_density"),
                organic_carbon=cells.get("organic_carbon"), texture=texture,
                topsoil=np.full(n_cells, 1.0 if topsoil else 0.0))
            for t, head in enumerate(heads):
                psi = np.full(n_cells, head)
                thetas[k, t * n_cells:(t + 1) * n_cells] = _kernels.theta_points(
                    batch.codes, batch.rows, psi)

        estimates = weight_matrix @ thetas  # (replicas, heads * cells)
        est_mean, est_std = _kernels.replica_mean_std(np.ascontiguousarray(estimates))
        for t, head in enumerate(heads):
            m_slice = est_mean[t * n_cells:(t + 1) * n_cells]
            s_slice = est_std[t * n_cells:(t + 1) * n_cells]
            mean_block = np.full(valid.shape, nodata)
            cv_block = np.full(valid.shape, nodata)
            mean_block[valid] = m_slice
            nonzero = m_slice != 0.0
            n_zero_mean += int(np.sum(~nonzero))
            cv_cells = np.full(n_cells, nodata)
            cv_cells[nonzero] = s_slice[nonzero] / m_slice[nonzero]
            cv_block[valid] = cv_cells
            mean_out[head][row0:row1] = mean_block
            cv_out[head][row0:row1] = cv_block

    return MapProduct(
        mean={h: sand.like(mean_out[h], nodata=nodata) for h in heads},
        cv={h: sand.like(cv_out[h], nodata=nodata) for h in heads},
        n_valid_cells=n_valid, cv_zero_mean_cells=n_zero_mean)
