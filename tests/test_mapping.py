"""ASCII-grid I/O and gridded ensemble application."""

import errno
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptfens import (
    USDA_CLASSES,
    CoregistrationError,
    FIELD_CAPACITY_HEAD,
    Grid,
    GridFormatError,
    InputError,
    MAP_HEADS,
    MemberPredictionError,
    PtfId,
    SoilLayerStack,
    TableLookupError,
    WeightVector,
    apply_ensemble_map,
    classify_texture_array,
    clear_ann_registry,
    predict_batch,
    read_grid,
    register_ann,
    required_inputs,
    write_grid,
)
from ptfens import _kernels, mapping
from ptfens.mapping import DEFAULT_NODATA, HEAD_LABELS
from ptfens.ptf import PREDICTOR_FIELDS
from helpers import drop_class, member_curves, random_net, spliced_text

MEMBERS = (PtfId.COSBY1, PtfId.CARSEL)
REPLICAS = [
    WeightVector(members=MEMBERS, weights=(0.7, 0.3)),
    WeightVector(members=MEMBERS, weights=(0.5, 0.5)),
    WeightVector(members=MEMBERS, weights=(0.9, 0.1)),
]


def small_grid(values, nodata=-9999.0):
    values = np.asarray(values, dtype=np.float64)
    return Grid(ncols=values.shape[1], nrows=values.shape[0], xllcorner=100.0,
                yllcorner=200.0, cellsize=50.0, nodata=nodata, values=values)


def layer_stack(nodata_cell=None):
    """3 x 3 stack; optionally punch a nodata hole into the clay layer."""
    sand = np.array([[40.0, 65.0, 20.0],
                     [82.0, 10.0, 32.0],
                     [95.0, 5.0, 50.0]])
    clay = np.array([[20.0, 10.0, 15.0],
                     [6.0, 57.0, 33.0],
                     [2.0, 7.0, 40.0]])
    silt = 100.0 - sand - clay
    if nodata_cell is not None:
        clay[nodata_cell] = -9999.0
    return SoilLayerStack(sand=small_grid(sand), silt=small_grid(silt),
                          clay=small_grid(clay))


def test_grid_round_trip(tmp_path):
    rng = np.random.default_rng(70)
    grid = small_grid(rng.uniform(0.0, 100.0, size=(4, 5)))
    path = tmp_path / "layer.asc"
    write_grid(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "ncols 5"
    assert lines[1] == "nrows 4"
    assert lines[5].startswith("NODATA_value ")
    back = read_grid(path)
    assert back.georef() == grid.georef()
    assert back.nodata == grid.nodata
    assert np.array_equal(back.values, grid.values)  # repr round-trip is exact


def test_grid_header_errors(tmp_path):
    good = ["ncols 2", "nrows 2", "xllcorner 0.0", "yllcorner 0.0",
            "cellsize 10.0", "NODATA_value -9999.0", "1 2", "3 4"]

    path = tmp_path / "bad_key.asc"
    lines = list(good)
    lines[2] = "xll 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "line 3" in str(err.value)

    path = tmp_path / "bad_value.asc"
    lines = list(good)
    lines[4] = "cellsize ten"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError):
        read_grid(path)

    path = tmp_path / "truncated.asc"
    path.write_text("\n".join(good[:3]) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "line 4" in str(err.value)


def test_grid_body_errors(tmp_path):
    good = ["ncols 2", "nrows 2", "xllcorner 0.0", "yllcorner 0.0",
            "cellsize 10.0", "NODATA_value -9999.0", "1 2", "3 4"]

    path = tmp_path / "short_row.asc"
    lines = list(good)
    lines[7] = "3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "line 8" in str(err.value)

    path = tmp_path / "missing_row.asc"
    path.write_text("\n".join(good[:7]) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "2 data rows" in str(err.value)

    path = tmp_path / "bad_number.asc"
    lines = list(good)
    lines[6] = "1 soil"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "line 7" in str(err.value)

    path = tmp_path / "blank_then_bad.asc"
    path.write_text("\n".join(good[:6] + ["", "1 2", "3 x"]) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "line 9" in str(err.value)  # the file line, counting the blank one


HEADER = ["ncols 2", "nrows 2", "xllcorner 0.0", "yllcorner 0.0", "cellsize 10.0",
          "NODATA_value -9999.0"]


@pytest.mark.parametrize("body, message", [
    ([], "expected 2 data rows, found 0"),          # header only
    (["", "  "], "expected 2 data rows, found 0"),  # blank body
    (["1 2", "3 #4"], "line 8: could not convert string to float: '#4'"),
    (["# note", "1 2"], "line 7: could not convert string to float: '#'"),
    # float() takes these, numpy's parser does not
    (["1 2", "3 1_0"], "line 8: could not convert string to float: '1_0'"),
    (["\u0661 2", "3 4"], "line 7: could not convert string to float: '\u0661'"),
    (["1 2", "", "3 4", "5 6"], "expected 2 data rows, found 3"),
    (["1 2 3", "4 5 6"], "line 7: expected 2 values, found 3"),
])
def test_grid_body_faults_name_the_line(tmp_path, body, message):
    path = tmp_path / "grid.asc"
    path.write_text("\n".join(HEADER + body) + "\n", encoding="utf-8")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert str(err.value) == f"{path}: {message}"


def test_grid_body_skips_blank_lines(tmp_path):
    path = tmp_path / "grid.asc"
    path.write_text("\n".join(HEADER + ["", "1 2", " \t ", "3\t4", ""]) + "\n")
    assert read_grid(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_grid_bad_dimensions(tmp_path):
    path = tmp_path / "grid.asc"
    path.write_text("\n".join(["ncols 2", "nrows 0"] + HEADER[2:]) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert str(err.value) == f"{path}: bad grid dimensions 0 x 2"


@pytest.mark.parametrize("line, text, message", [
    (3, "xllcorner nan", "line 3: xllcorner must be finite, got 'nan'"),
    (4, "yllcorner -inf", "line 4: yllcorner must be finite, got '-inf'"),
    (5, "cellsize nan", "line 5: cellsize must be finite, got 'nan'"),
    (5, "cellsize Infinity", "line 5: cellsize must be finite, got 'Infinity'"),
    (6, "NODATA_value nan", "line 6: NODATA_value must be finite, got 'nan'"),
    (5, "cellsize 0", "line 5: cellsize must be positive, got '0'"),
    (5, "cellsize -10.0", "line 5: cellsize must be positive, got '-10.0'"),
])
def test_grid_header_fields_finite(tmp_path, line, text, message):
    path = tmp_path / "grid.asc"
    lines = HEADER + ["1 2", "3 4"]
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert str(err.value) == f"{path}: {message}"


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    return tmp_path_factory.mktemp("grids") / "grid.asc"


@st.composite
def grids(draw):
    """Grids of 1 x 1 to 6 x 7 cells over every double (subnormals, -0.0,
    nan, +-inf) and the grid's own nodata value."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    nodata = draw(finite)
    cell = st.one_of(st.floats(), st.just(nodata), st.sampled_from([
        -0.0, 5e-324, -2.2250738585072009e-308, np.nan, np.inf, -np.inf]))
    values = draw(st.lists(cell, min_size=nrows * ncols, max_size=nrows * ncols))
    return Grid(ncols=ncols, nrows=nrows, xllcorner=draw(finite), yllcorner=draw(finite),
                cellsize=draw(st.floats(min_value=5e-324, allow_infinity=False)),
                nodata=nodata, values=np.reshape(values, (nrows, ncols)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(grids())
def test_grid_round_trip_property(grid_file, grid):
    write_grid(grid_file, grid)
    back = read_grid(grid_file)
    assert (back.ncols, back.nrows) == (grid.ncols, grid.nrows)
    header = (grid.xllcorner, grid.yllcorner, grid.cellsize, grid.nodata)
    assert np.array_equal(float_bits((back.xllcorner, back.yllcorner, back.cellsize,
                                      back.nodata)), float_bits(header))
    nan = np.isnan(grid.values)  # text keeps no NaN sign or payload
    assert np.array_equal(np.isnan(back.values), nan)
    assert np.array_equal(float_bits(back.values)[~nan], float_bits(grid.values)[~nan])


def test_write_grid_holds_a_row_not_the_grid(tmp_path):
    """write_grid formats and writes one row at a time: its traced peak on a
    300 x 240 full-precision grid stays under a quarter of the grid's value
    bytes (0.06 of them), where one float list and text of the whole raster
    took 4.1 times them."""
    grid = small_grid(np.random.default_rng(77).uniform(0.0, 1.0, (300, 240)))
    tracemalloc.start()
    try:
        write_grid(tmp_path / "grid.asc", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.values.nbytes / 4
    assert read_grid(tmp_path / "grid.asc").values.tobytes() == grid.values.tobytes()


@st.composite
def decimal_tokens(draw):
    """Decimal number tokens: optional sign, digits with an optional (and
    possibly leading or trailing) point, optional exponent."""
    digits = st.text("0123456789", max_size=25)
    whole, frac = draw(digits), draw(digits)
    point = draw(st.booleans()) or bool(frac)
    if not whole and not frac:
        whole = "0"
    token = draw(st.sampled_from(["", "+", "-"])) + whole + ("." if point else "") + frac
    if draw(st.booleans()):
        token += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                  + draw(st.text("0123456789", min_size=1, max_size=3)))
    return token


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(decimal_tokens(), min_size=1, max_size=8))
@example(["1e-320", "+.5", "5.", "-0", "4.9E-324", "1e400", "-1E+308",
          "12345678901234567890123", "0.1000000000000000055511151231257827"])
@example(["nan", "-NaN", "inf", "+Infinity", "-inf"])
def test_grid_tokens_parse_as_float(grid_file, tokens):
    grid_file.write_text("\n".join([f"ncols {len(tokens)}", "nrows 1"] + HEADER[2:]
                                   + [" ".join(tokens)]) + "\n")
    got = read_grid(grid_file).values[0]
    want = np.array([float(tok) for tok in tokens])  # the per-token reference
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(float_bits(got)[~np.isnan(want)],
                          float_bits(want)[~np.isnan(want)])


GRID_TEXT = "\n".join(["ncols 3", "nrows 2"] + HEADER[2:] + ["1 2.5 -9999", "4 5e-1 6"]) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text(GRID_TEXT))
@example(GRID_TEXT.replace("2.5 ", "2.5\u3000"))  # non-ASCII whitespace in a row
@example(GRID_TEXT.replace("1 2.5", "1\x00 2.5"))  # a NUL in a row
def test_read_grid_token_splice_fuzz(grid_file, text):
    """A spliced grid file reads as a grid of its header's shape or raises
    GridFormatError; nothing else escapes."""
    with open(grid_file, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        grid = read_grid(grid_file)
    except GridFormatError:
        return
    assert grid.values.shape == (grid.nrows, grid.ncols)


OUTPUT_NAMES = [f"{kind}_{HEAD_LABELS[head]}.asc" for kind, head in mapping._OUTPUTS]


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def band_case(tmp_path, monkeypatch):
    """Five layer files of nrows x 11 cells (a nodata, an off-sum and a
    negative-fraction cell), 11 members, 4 replicas, blocks of 3 rows, and
    a function that writes apply_ensemble_map's grids with write_grid into
    a directory, returning the product."""
    monkeypatch.setattr(mapping, "MAP_BLOCK_CELLS", 33)

    def make(nrows=40):
        rng = np.random.default_rng(78)
        layers = stack_of(full_stack(rng, nrows=40, ncols=11), np.s_[:nrows])
        layers.sand.values[1, 7] += 3.0
        layers.sand.values[2, 2], layers.silt.values[2, 2], layers.clay.values[2, 2] = \
            -1.0, 61.0, 40.0
        paths = {}
        for name in PREDICTOR_FIELDS:
            paths[name] = tmp_path / f"{name}.asc"
            write_grid(paths[name], layers.layer(name))
        replicas = [WeightVector.normalized(TABLE_AND_REGRESSION, rng.uniform(0.1, 1.0, 11))
                    for _ in range(4)]

        def reference(directory):
            directory.mkdir()
            product = apply_ensemble_map(layers, replicas)
            for name, (kind, head) in zip(OUTPUT_NAMES, mapping._OUTPUTS):
                write_grid(directory / name, getattr(product, kind)[head])
            return product
        return paths, replicas, reference
    return make


def assert_same_files(got, want):
    """got holds the six output grids, byte for byte those in want, and no
    other file (no band or temporary file left behind)."""
    assert sorted(os.listdir(got)) == sorted(OUTPUT_NAMES)
    for name in OUTPUT_NAMES:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


# (usable CPUs, raster rows): 1, 2 and 3 bands, and 4 CPUs over 3 rows
@pytest.mark.parametrize("cpus, nrows", [(1, 40), (2, 40), (3, 40), (4, 3)],
                         ids=["1", "2", "3", "4"])
def test_map_bands_bytes_match_write_grid(tmp_path, monkeypatch, band_case, cpus, nrows):
    paths, replicas, reference = band_case(nrows)
    product = reference(tmp_path / "serial")
    use_cpus(monkeypatch, cpus)
    (tmp_path / "out").mkdir()
    counts = mapping.map_files(paths, replicas, tmp_path / "out")
    assert_no_child_left()
    assert counts == {name: getattr(product, name) for name in mapping._COUNTS}
    assert (counts["texture_sum_cells"], counts["negative_fraction_cells"],
            counts["missing_layer_cells"]) == (1, 1, 1 if nrows > 3 else 0)
    assert_same_files(tmp_path / "out", tmp_path / "serial")


def test_map_bands_without_fork(tmp_path, monkeypatch, band_case):
    paths, replicas, reference = band_case()
    reference(tmp_path / "serial")
    monkeypatch.delattr(os, "fork")
    use_cpus(monkeypatch, 4)
    (tmp_path / "out").mkdir()
    mapping.map_files(paths, replicas, tmp_path / "out")
    assert_same_files(tmp_path / "out", tmp_path / "serial")


def corrupt_row(path, row, column, text="x"):
    """Replace one value of a grid file's data row with text."""
    lines = path.read_text().splitlines()
    values = lines[6 + row].split()
    values[column] = text
    lines[6 + row] = " ".join(values)
    path.write_text("\n".join(lines) + "\n")


def band_failure(tmp_path, paths, replicas, cpus, monkeypatch):
    """What map_files raises over the given number of CPUs, with out_dir
    left empty and every child reaped."""
    out = tmp_path / f"cpus{cpus}"
    out.mkdir()
    use_cpus(monkeypatch, cpus)
    with pytest.raises(GridFormatError) as err:
        mapping.map_files(paths, replicas, out)
    assert_no_child_left()
    assert os.listdir(out) == []
    return str(err.value)


# malformed rows (layer, row) over 40 rows: with two bands this process maps
# rows 0-19 and the child rows 20-39; a serial run meets the faults in block
# order, layer by layer within a block
@pytest.mark.parametrize("bad, first", [
    ([("sand", 5)], ("sand", 5)),
    ([("sand", 30)], ("sand", 30)),
    ([("sand", 30), ("clay", 5)], ("clay", 5)),
    ([("sand", 5), ("clay", 30)], ("sand", 5)),
], ids=["parent", "child", "child-first", "parent-first"])
def test_map_bands_raise_the_serial_failure(tmp_path, monkeypatch, band_case, bad, first):
    paths, replicas, _ = band_case()
    for name, row in bad:
        corrupt_row(paths[name], row, 3)
    serial = band_failure(tmp_path, paths, replicas, 1, monkeypatch)
    name, row = first
    assert serial == f"{paths[name]}: line {7 + row}: could not convert string to float: 'x'"
    for cpus in (2, 4):
        assert band_failure(tmp_path, paths, replicas, cpus, monkeypatch) == serial


def test_map_bands_rerun_after_a_child_exits_1(tmp_path, monkeypatch, band_case):
    """A child that ends with status 1 and raises nothing in this process
    has the whole map run again here, with the same bytes."""
    paths, replicas, reference = band_case()
    reference(tmp_path / "serial")
    parent, real_map_band = os.getpid(), mapping._map_band

    def map_or_die(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real_map_band(*args)

    monkeypatch.setattr(mapping, "_map_band", map_or_die)
    use_cpus(monkeypatch, 2)
    (tmp_path / "out").mkdir()
    mapping.map_files(paths, replicas, tmp_path / "out")
    assert_no_child_left()
    assert_same_files(tmp_path / "out", tmp_path / "serial")


def test_map_bands_survive_a_failed_fork(tmp_path, monkeypatch, band_case):
    """os.fork failing after one child (EAGAIN: too many processes) still
    maps every row."""
    paths, replicas, reference = band_case()
    reference(tmp_path / "serial")
    real_fork, forks = os.fork, []

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forks.append(real_fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    use_cpus(monkeypatch, 4)
    (tmp_path / "out").mkdir()
    mapping.map_files(paths, replicas, tmp_path / "out")
    assert_no_child_left()
    assert_same_files(tmp_path / "out", tmp_path / "serial")


def test_map_bands_map_each_row_once(tmp_path, monkeypatch, band_case):
    """On success there is no rerun: four bands (three forked) map each
    row once, in contiguous bands, this process the first."""
    paths, replicas, _ = band_case()
    log = tmp_path / "bands.log"
    real_map_band = mapping._map_band

    def logged_band(readers, replicas, rows, outs, topsoil):
        counts = real_map_band(readers, replicas, rows, outs, topsoil)
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, f"{os.getpid()} {rows.start} {rows.stop}\n".encode())
        os.close(fd)
        return counts

    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(mapping, "_map_band", logged_band)
    use_cpus(monkeypatch, 4)
    (tmp_path / "out").mkdir()
    mapping.map_files(paths, replicas, tmp_path / "out")
    assert_no_child_left()
    assert len(forks) == 3
    bands = {}
    for line in log.read_text().splitlines():
        pid, start, stop = line.split()
        bands.setdefault(pid, []).append((int(start), int(stop)))
    assert sorted(bands.values()) == [[(0, 10)], [(10, 20)], [(20, 30)], [(30, 40)]]
    assert bands[str(os.getpid())] == [(0, 10)]


def test_grid_shape_validation():
    with pytest.raises(GridFormatError):
        Grid(ncols=3, nrows=2, xllcorner=0.0, yllcorner=0.0, cellsize=10.0,
             nodata=-9999.0, values=np.zeros((2, 2)))
    with pytest.raises(GridFormatError):
        small_grid(np.zeros((0, 3)))
    with pytest.raises(GridFormatError):
        Grid(ncols=2, nrows=2, xllcorner=0.0, yllcorner=0.0, cellsize=-1.0,
             nodata=-9999.0, values=np.zeros((2, 2)))


def test_layer_stack_coregistration():
    sand = small_grid(np.full((3, 3), 40.0))
    silt = small_grid(np.full((3, 3), 40.0))
    shifted = Grid(ncols=3, nrows=3, xllcorner=999.0, yllcorner=200.0,
                   cellsize=50.0, nodata=-9999.0, values=np.full((3, 3), 20.0))
    with pytest.raises(CoregistrationError) as err:
        SoilLayerStack(sand=sand, silt=silt, clay=shifted)
    assert "clay" in str(err.value)


def test_map_matches_per_cell_recomputation():
    layers = layer_stack()
    product = apply_ensemble_map(layers, REPLICAS)
    assert product.n_valid_cells == 9
    assert product.cv_zero_mean_cells == 0
    weight_matrix = np.stack([wv.as_array() for wv in REPLICAS])
    for r in range(3):
        for c in range(3):
            member = member_curves(MEMBERS, MAP_HEADS, sand=layers.sand.values[r, c],
                                   silt=layers.silt.values[r, c],
                                   clay=layers.clay.values[r, c])  # (members, heads)
            estimates = weight_matrix @ member    # (replicas, heads)
            for t, head in enumerate(MAP_HEADS):
                want_mean = estimates[:, t].mean()
                want_cv = estimates[:, t].std(ddof=1) / want_mean
                assert product.mean[head].values[r, c] == pytest.approx(
                    want_mean, rel=1e-12)
                assert product.cv[head].values[r, c] == pytest.approx(
                    want_cv, rel=1e-12)


def test_map_mean_monotone_across_heads():
    product = apply_ensemble_map(layer_stack(), REPLICAS)
    sat = product.mean[MAP_HEADS[0]].values
    fc = product.mean[MAP_HEADS[1]].values
    wp = product.mean[MAP_HEADS[2]].values
    assert np.all(sat >= fc) and np.all(fc >= wp)


def test_map_identical_replicas_zero_cv():
    same = [WeightVector(members=MEMBERS, weights=(0.6, 0.4))] * 3
    product = apply_ensemble_map(layer_stack(), same)
    for head in MAP_HEADS:
        cv = product.cv[head]
        assert np.all(cv.values[cv.valid_mask()] == 0.0)
        assert np.count_nonzero(cv.valid_mask()) == 9


def test_map_nodata_closure():
    product = apply_ensemble_map(layer_stack(nodata_cell=(1, 2)), REPLICAS)
    assert product.n_valid_cells == 8
    for head in MAP_HEADS:
        assert product.mean[head].values[1, 2] == DEFAULT_NODATA
        assert product.cv[head].values[1, 2] == DEFAULT_NODATA
        assert np.count_nonzero(product.mean[head].valid_mask()) == 8


def test_map_texture_sum_violation_is_nodata():
    layers = layer_stack()
    values = layers.silt.values.copy()
    values[0, 0] += 5.0  # sum 105: outside the classification tolerance
    bad = SoilLayerStack(sand=layers.sand, silt=small_grid(values),
                         clay=layers.clay)
    product = apply_ensemble_map(bad, REPLICAS)
    assert product.n_valid_cells == 8
    assert product.mean[MAP_HEADS[0]].values[0, 0] == DEFAULT_NODATA


def test_map_blocked_rows_identical():
    layers = layer_stack(nodata_cell=(2, 0))
    whole = apply_ensemble_map(layers, REPLICAS)
    for budget in (1, 3, 7, 65536):  # one cell, one row, odd; the old default
        blocked = apply_ensemble_map(layers, REPLICAS, block_cells=budget)
        for head in MAP_HEADS:
            assert np.array_equal(whole.mean[head].values, blocked.mean[head].values)
            assert np.array_equal(whole.cv[head].values, blocked.cv[head].values)
        assert whole.n_valid_cells == blocked.n_valid_cells
        assert whole.missing_layer_cells == blocked.missing_layer_cells == 1


def test_map_one_head_row_blocks_identical():
    """One head and one valid cell in a block: a single-column spread."""
    rng = np.random.default_rng(75)
    layers = full_stack(rng, nrows=4, ncols=5)
    bd = layers.bulk_density.values.copy()
    bd[0, :4] = DEFAULT_NODATA  # row 0 keeps one valid cell
    layers = SoilLayerStack(sand=layers.sand, silt=layers.silt, clay=layers.clay,
                            bulk_density=small_grid(bd),
                            organic_carbon=layers.organic_carbon)
    replicas = [WeightVector.normalized(TABLE_AND_REGRESSION, rng.uniform(0.1, 1.0, 11))
                for _ in range(6)]
    heads = (FIELD_CAPACITY_HEAD,)
    whole = apply_ensemble_map(layers, replicas, heads=heads)
    rows = apply_ensemble_map(layers, replicas, heads=heads, block_cells=1)
    for kind in ("mean", "cv"):
        assert getattr(whole, kind)[FIELD_CAPACITY_HEAD].values.tobytes() == \
            getattr(rows, kind)[FIELD_CAPACITY_HEAD].values.tobytes()


def test_map_nodata_counts_by_reason():
    layers = layer_stack(nodata_cell=(1, 2))
    sand, silt = layers.sand.values.copy(), layers.silt.values.copy()
    silt[0, 0] += 5.0                        # sum 105
    sand[2, 1], silt[2, 1] = -1.0, 94.0      # sums to 100, negative sand
    sand[0, 1], silt[0, 1] = -3.0, 20.0      # negative and off the sum
    bad = SoilLayerStack(sand=small_grid(sand), silt=small_grid(silt),
                         clay=layers.clay)
    product = apply_ensemble_map(bad, REPLICAS)
    assert product.n_valid_cells == 5
    assert product.missing_layer_cells == 1
    assert product.texture_sum_cells == 2    # counted before the negative fraction
    assert product.negative_fraction_cells == 1
    assert product.cv_zero_mean_cells == 0
    for cell in ((1, 2), (0, 0), (0, 1), (2, 1)):
        for head in MAP_HEADS:
            assert product.mean[head].values[cell] == DEFAULT_NODATA

    clean = apply_ensemble_map(layer_stack(), REPLICAS)
    assert (clean.missing_layer_cells, clean.texture_sum_cells,
            clean.negative_fraction_cells) == (0, 0, 0)


def _traced_map_memory(layers, replicas, **kwargs):
    """(peak, retained) bytes traced by tracemalloc during one map call."""
    tracemalloc.start()
    try:
        product = apply_ensemble_map(layers, replicas, **kwargs)  # noqa: F841
        retained, peak = tracemalloc.get_traced_memory()  # product's grids included
    finally:
        tracemalloc.stop()
    return peak, retained


def _textured_stack(nrows, ncols, rng):
    sand = rng.uniform(5.0, 80.0, size=(nrows, ncols))
    clay = rng.uniform(2.0, 100.0 - sand)
    return SoilLayerStack(sand=small_grid(sand), silt=small_grid(100.0 - sand - clay),
                          clay=small_grid(clay))


def _random_replicas(n, rng):
    return [WeightVector.normalized(MEMBERS, rng.uniform(0.1, 1.0, size=2))
            for _ in range(n)]


def test_map_memory_flat_in_replicas_and_width():
    rng = np.random.default_rng(71)
    layers = _textured_stack(128, 128, rng)
    few, _ = _traced_map_memory(layers, _random_replicas(2, rng))
    many, _ = _traced_map_memory(layers, _random_replicas(500, rng))
    assert abs(many - few) <= 0.1 * few

    # same cell budget, rasters 8x wider: the working set (peak less the
    # output grids the result keeps) stays the same
    replicas = _random_replicas(20, rng)
    peaks = [_traced_map_memory(_textured_stack(64, ncols, rng), replicas,
                                block_cells=2048)
             for ncols in (64, 512)]
    narrow, wide = (peak - retained for peak, retained in peaks)
    assert wide <= 1.1 * narrow


def test_map_working_set_at_default_budget():
    """The traced working set of one map call (peak less the output grids
    it keeps) on a 300 x 240 stack with 11 members and 20 replicas stays a
    few blocks' worth: 3.5 MiB at the 4,096-cell default, bounded at 4.5
    MiB (a 30% margin), against 6.9 MiB at 8,192 cells and about 44 MiB
    with 65,536-cell blocks and a whole (members x points) spread. The
    grids are the bytes of the old 65,536-cell default."""
    rng = np.random.default_rng(73)
    layers = full_stack(rng, nrows=300, ncols=240)
    replicas = [WeightVector.normalized(TABLE_AND_REGRESSION, rng.uniform(0.1, 1.0, 11))
                for _ in range(20)]
    peak, retained = _traced_map_memory(layers, replicas)
    assert peak - retained <= 4.5 * 2**20
    product = apply_ensemble_map(layers, replicas)
    old = apply_ensemble_map(layers, replicas, block_cells=65536)
    assert product.n_valid_cells == old.n_valid_cells == 300 * 240 - 1
    for head in MAP_HEADS:
        assert product.mean[head].values.tobytes() == old.mean[head].values.tobytes()
        assert product.cv[head].values.tobytes() == old.cv[head].values.tobytes()


@pytest.fixture(scope="module")
def relation_map():
    """A 24 x 20 stack over the whole texture triangle with a nodata, an
    off-sum and a negative-fraction cell, 11 members, 8 replicas, and its
    map at the default budget."""
    rng = np.random.default_rng(76)
    layers = full_stack(rng, nrows=24, ncols=20)
    layers.sand.values[5, 7] += 3.0
    layers.sand.values[9, 2], layers.silt.values[9, 2], layers.clay.values[9, 2] = \
        -1.0, 60.0, 41.0
    replicas = [WeightVector.normalized(TABLE_AND_REGRESSION, rng.uniform(0.1, 1.0, 11))
                for _ in range(8)]
    return layers, replicas, apply_ensemble_map(layers, replicas)


def stack_of(layers, index):
    """The stack whose layers are layers' values[index], georeferenced anew."""
    return SoilLayerStack(**{name: small_grid(layers.layer(name).values[index])
                             for name in PREDICTOR_FIELDS})


def map_grids(product):
    return [getattr(product, kind)[head].values for kind in ("mean", "cv")
            for head in MAP_HEADS]


MAP_RELATIONS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@MAP_RELATIONS
@given(st.data())
def test_map_window_is_the_full_maps_window(relation_map, data):
    """A sub-window mapped with any block budget has the bytes of the full
    map's window: no value depends on its block or on the cells around it."""
    layers, replicas, whole = relation_map
    r0 = data.draw(st.integers(0, layers.sand.nrows - 1))
    r1 = data.draw(st.integers(r0 + 1, layers.sand.nrows))
    c0 = data.draw(st.integers(0, layers.sand.ncols - 1))
    c1 = data.draw(st.integers(c0 + 1, layers.sand.ncols))
    window = np.s_[r0:r1, c0:c1]
    part = apply_ensemble_map(stack_of(layers, window), replicas,
                              block_cells=data.draw(st.integers(1, 9000)))
    for got, want in zip(map_grids(part), map_grids(whole)):
        assert got.tobytes() == want[window].tobytes()


@MAP_RELATIONS
@given(st.data())
def test_map_of_permuted_rows_is_the_permuted_map(relation_map, data):
    layers, replicas, whole = relation_map
    order = data.draw(st.permutations(range(layers.sand.nrows)))
    permuted = apply_ensemble_map(stack_of(layers, order), replicas,
                                  block_cells=data.draw(st.integers(1, 9000)))
    for got, want in zip(map_grids(permuted), map_grids(whole)):
        assert got.tobytes() == want[order].tobytes()
    assert (permuted.n_valid_cells, permuted.texture_sum_cells,
            permuted.negative_fraction_cells) == (whole.n_valid_cells, 1, 1)


# The replica mean and QR factor sum over replicas in their order, so a
# permutation moves a value by rounding only; 2.2e-16 was the largest
# change seen over the 432,000 values of a 300 x 240 map.
REPLICA_ORDER_TOLERANCE = 4.4e-16


@MAP_RELATIONS
@given(st.data())
def test_map_replica_order_moves_values_by_rounding_only(relation_map, data):
    layers, replicas, whole = relation_map
    order = data.draw(st.permutations(range(len(replicas))))
    permuted = apply_ensemble_map(layers, [replicas[i] for i in order])
    for got, want in zip(map_grids(permuted), map_grids(whole)):
        assert np.array_equal(got == DEFAULT_NODATA, want == DEFAULT_NODATA)
        assert np.max(np.abs(got - want)) <= REPLICA_ORDER_TOLERANCE


def reference_map(layers, replicas, nodata=DEFAULT_NODATA):
    """The six grids by the per-cell loop: every member's curve at every head
    on every valid cell, in one block (the layers must hold no off-sum or
    negative-fraction cell)."""
    members = replicas[0].members
    names = sorted({f for m in members for f in required_inputs(m)})
    valid = np.logical_and.reduce([layers.layer(n).valid_mask() for n in names])
    cells = {n: layers.layer(n).values[valid] for n in names}
    n = int(valid.sum())
    texture = classify_texture_array(cells["sand"], cells["silt"], cells["clay"])
    thetas = np.empty((len(members), len(MAP_HEADS), n))
    for k, m in enumerate(members):
        batch = predict_batch(m, texture=texture, **cells, topsoil=np.ones(n))
        for t, head in enumerate(MAP_HEADS):
            thetas[k, t] = _kernels.theta_points(batch.codes, batch.rows, np.full(n, head))
    weights = np.stack([wv.as_array() for wv in replicas])
    mean, sd = _kernels.replica_mean_std(weights, thetas.reshape(len(members), -1))
    mean, sd = mean.reshape(len(MAP_HEADS), n), sd.reshape(len(MAP_HEADS), n)
    grids = {}
    for t, head in enumerate(MAP_HEADS):
        for kind, values in (("mean", mean[t]), ("cv", np.divide(
                sd[t], mean[t], where=mean[t] != 0.0, out=np.full(n, nodata)))):
            grid = np.full(valid.shape, nodata)
            grid[valid] = values
            grids[kind, head] = grid
    return grids


def full_stack(rng, nrows=14, ncols=11):
    """Sand, silt, clay, bulk density and organic carbon grids over the whole
    texture triangle, with one nodata cell."""
    fractions = rng.dirichlet((1.0, 1.0, 1.0), size=(nrows, ncols)) * 100.0
    sand, silt, clay = (fractions[..., i] for i in range(3))
    bd = rng.uniform(1.0, 1.8, size=(nrows, ncols))
    bd[3, 4] = DEFAULT_NODATA
    return SoilLayerStack(sand=small_grid(sand), silt=small_grid(silt),
                          clay=small_grid(clay), bulk_density=small_grid(bd),
                          organic_carbon=small_grid(rng.uniform(0.1, 4.0, (nrows, ncols))))


TABLE_AND_REGRESSION = (PtfId.COSBY0, PtfId.CARSEL, PtfId.CLAPP, PtfId.ROSETTA_H1W,
                PtfId.COSBY1, PtfId.COSBY2, PtfId.RAWLS, PtfId.CAMPBELL,
                PtfId.WOSTEN, PtfId.WEYNANTS, PtfId.VEREECKEN)


@pytest.mark.parametrize("network", [False, True], ids=["table", "h1w_network"])
def test_map_bytes_match_per_cell_loop(network):
    rng = np.random.default_rng(72)
    layers = full_stack(rng)
    replicas = [WeightVector.normalized(TABLE_AND_REGRESSION, rng.uniform(0.1, 1.0, 11))
                for _ in range(5)]
    if network:  # rosetta_h1w leaves its table: one curve per cell
        register_ann(PtfId.ROSETTA_H1W, random_net(rng))
    try:
        product = apply_ensemble_map(layers, replicas)
        want = reference_map(layers, replicas)
    finally:
        clear_ann_registry()
    assert product.n_valid_cells == 14 * 11 - 1
    for head in MAP_HEADS:
        assert product.mean[head].values.tobytes() == want["mean", head].tobytes()
        assert product.cv[head].values.tobytes() == want["cv", head].tobytes()


def test_map_out_of_range_bd_or_oc_cell_is_nodata():
    """A negative or physically impossible bulk density or organic carbon
    makes its cell nodata, counted, with no warning; the other cells keep
    the bytes they have when those cells are plain nodata."""
    rng = np.random.default_rng(74)
    layers = full_stack(rng)
    replicas = [WeightVector.normalized(TABLE_AND_REGRESSION, rng.uniform(0.1, 1.0, 11))
                for _ in range(4)]
    bd, oc = layers.bulk_density.values.copy(), layers.organic_carbon.values.copy()
    sand, silt = layers.sand.values.copy(), layers.silt.values.copy()
    bad_cells = {(0, 0): ("bd", -1.2), (1, 1): ("oc", -0.5), (2, 2): ("bd", 1e300),
                 (5, 5): ("oc", 1e6), (6, 6): ("bd", 2.66), (7, 7): ("oc", 100.5)}
    for cell, (name, value) in bad_cells.items():
        (bd if name == "bd" else oc)[cell] = value
    for cell, (name, value) in {(8, 8): ("bd", 0.0), (9, 9): ("bd", 2.65),
                                (10, 10): ("oc", 0.0), (11, 1): ("oc", 100.0)}.items():
        (bd if name == "bd" else oc)[cell] = value  # the limits themselves are valid
    # negative sand that still sums to 100, and a negative bd: counted once,
    # under the negative fraction
    sand[12, 2], silt[12, 2], bd[12, 2] = -0.5, silt[12, 2] + sand[12, 2] + 0.5, -1.0

    def stack(bd, oc):
        return SoilLayerStack(sand=small_grid(sand), silt=small_grid(silt),
                              clay=layers.clay, bulk_density=small_grid(bd),
                              organic_carbon=small_grid(oc))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        product = apply_ensemble_map(stack(bd, oc), replicas)
    assert product.out_of_range_cells == len(bad_cells)
    assert product.negative_fraction_cells == 1
    assert product.missing_layer_cells == 1  # full_stack's nodata bd cell
    assert product.n_valid_cells == 14 * 11 - 1 - 1 - len(bad_cells)
    for cell in bad_cells:
        assert all(product.mean[h].values[cell] == DEFAULT_NODATA for h in MAP_HEADS)

    bd_hole = bd.copy()
    for cell in bad_cells:
        bd_hole[cell] = DEFAULT_NODATA
    oc_clean = np.where((oc >= 0.0) & (oc <= 100.0), oc, 1.0)
    holed = apply_ensemble_map(stack(bd_hole, oc_clean), replicas)
    assert holed.out_of_range_cells == 0
    for head in MAP_HEADS:
        assert product.mean[head].values.tobytes() == holed.mean[head].values.tobytes()
        assert product.cv[head].values.tobytes() == holed.cv[head].values.tobytes()


def test_map_class_table_lacking_a_present_class(monkeypatch):
    layers = layer_stack()
    classes = {USDA_CLASSES[c] for c in classify_texture_array(
        layers.sand.values.ravel(), layers.silt.values.ravel(), layers.clay.values.ravel())}
    absent = next(c for c in USDA_CLASSES if c not in classes)
    drop_class(monkeypatch, PtfId.CARSEL, absent)
    whole = apply_ensemble_map(layers, REPLICAS)  # a class no cell has is not looked up
    assert whole.n_valid_cells == 9
    drop_class(monkeypatch, PtfId.CARSEL, "loam")  # cell (0, 0)
    with pytest.raises(MemberPredictionError, match="carsel has no entry for texture class"
                                                    r"\(es\): loam$") as err:
        apply_ensemble_map(layers, REPLICAS)
    assert isinstance(err.value.__cause__, TableLookupError)


def test_map_requires_two_replicas():
    with pytest.raises(InputError):
        apply_ensemble_map(layer_stack(), REPLICAS[:1])


@pytest.mark.parametrize("heads", [(-5.0, 330.0), (0.0, float("nan"))])
def test_map_rejects_a_bad_head(heads):
    with pytest.raises(InputError, match="pressure head must be finite and >= 0 cm"):
        apply_ensemble_map(layer_stack(), REPLICAS, heads=heads)


def test_map_member_mismatch():
    other = WeightVector(members=(PtfId.COSBY1, PtfId.CLAPP),
                         weights=(0.5, 0.5))
    with pytest.raises(InputError):
        apply_ensemble_map(layer_stack(), [REPLICAS[0], other])


def test_map_missing_required_layer():
    replicas = [WeightVector(members=(PtfId.WOSTEN,) + MEMBERS,
                             weights=(0.4, 0.3, 0.3)),
                WeightVector(members=(PtfId.WOSTEN,) + MEMBERS,
                             weights=(0.2, 0.4, 0.4))]
    with pytest.raises(InputError) as err:
        apply_ensemble_map(layer_stack(), replicas)
    assert "organic_carbon" in str(err.value) or "bulk_density" in str(err.value)


def test_head_labels():
    assert [HEAD_LABELS[h] for h in MAP_HEADS] == ["sat", "fc", "wp"]
