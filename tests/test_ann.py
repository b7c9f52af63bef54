"""Dense-network forward pass and the text weight format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptfens import AnnSpec, AnnSpecError, ann_forward, read_ann_file, write_ann_file
from ptfens.ann import _ACTIVATIONS, _OUTPUT_TRANSFORMS
from helpers import spliced_text


def identity_spec(d=3):
    return AnnSpec(
        layer_sizes=(d, d),
        weights=(np.eye(d),),
        biases=(np.zeros(d),),
        hidden_activation="linear",
        input_names=tuple(f"x{i}" for i in range(d)),
        input_offset=np.zeros(d),
        input_scale=np.ones(d),
        output_names=tuple(f"y{i}" for i in range(d)),
        output_offset=np.zeros(d),
        output_scale=np.ones(d),
        output_transforms=("none",) * d,
    )


def test_identity_network():
    spec = identity_spec()
    x = np.array([1.5, -2.0, 0.25])
    assert np.allclose(ann_forward(spec, x), x, rtol=0, atol=0)


def test_single_hidden_unit_zero_weights():
    # hidden sigmoid(0) = 0.5, output = 0.5 * w_out + b_out
    spec = AnnSpec(
        layer_sizes=(1, 1, 1),
        weights=(np.zeros((1, 1)), np.array([[2.0]])),
        biases=(np.zeros(1), np.array([1.0])),
        hidden_activation="sigmoid",
        input_names=("x",),
        input_offset=np.zeros(1),
        input_scale=np.ones(1),
        output_names=("y",),
        output_offset=np.zeros(1),
        output_scale=np.ones(1),
        output_transforms=("none",),
    )
    assert ann_forward(spec, np.array([123.0]))[0] == pytest.approx(2.0, abs=1e-15)


def test_input_length_mismatch():
    spec = identity_spec(3)
    with pytest.raises(AnnSpecError):
        ann_forward(spec, np.array([1.0, 2.0]))


def test_batch_matches_rows():
    rng = np.random.default_rng(5)
    spec = AnnSpec(
        layer_sizes=(2, 4, 3),
        weights=(rng.normal(size=(4, 2)), rng.normal(size=(3, 4))),
        biases=(rng.normal(size=4), rng.normal(size=3)),
        hidden_activation="tanh",
        input_names=("a", "b"),
        input_offset=np.array([1.0, -2.0]),
        input_scale=np.array([3.0, 0.5]),
        output_names=("u", "v", "w"),
        output_offset=np.array([0.1, 0.0, -0.3]),
        output_scale=np.array([2.0, 1.0, 0.25]),
        output_transforms=("none", "exp", "pow10"),
    )
    x = rng.normal(size=(6, 2))
    batch = ann_forward(spec, x)
    assert batch.shape == (6, 3)
    for i in range(6):
        assert np.allclose(batch[i], ann_forward(spec, x[i]), rtol=1e-14)


def test_manual_forward_equivalence():
    w1 = np.array([[0.5, -1.0], [2.0, 0.25]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, 1.0]])
    b2 = np.array([0.5])
    spec = AnnSpec(
        layer_sizes=(2, 2, 1),
        weights=(w1, w2),
        biases=(b1, b2),
        hidden_activation="tanh",
        input_names=("a", "b"),
        input_offset=np.array([1.0, 2.0]),
        input_scale=np.array([2.0, 4.0]),
        output_names=("y",),
        output_offset=np.array([0.25]),
        output_scale=np.array([3.0]),
        output_transforms=("exp",),
    )
    x = np.array([2.0, -1.0])
    z = (x - spec.input_offset) / spec.input_scale
    h = np.tanh(w1 @ z + b1)
    y = (w2 @ h + b2) * 3.0 + 0.25
    assert ann_forward(spec, x)[0] == pytest.approx(np.exp(y[0]), rel=1e-14)


def test_spec_validation():
    with pytest.raises(AnnSpecError):
        AnnSpec(
            layer_sizes=(2, 2),
            weights=(np.zeros((3, 2)),),  # wrong shape
            biases=(np.zeros(2),),
            hidden_activation="sigmoid",
            input_names=("a", "b"),
            input_offset=np.zeros(2),
            input_scale=np.ones(2),
            output_names=("u", "v"),
            output_offset=np.zeros(2),
            output_scale=np.ones(2),
            output_transforms=("none", "none"),
        )
    with pytest.raises(AnnSpecError):
        AnnSpec(
            layer_sizes=(2, 2),
            weights=(np.eye(2),),
            biases=(np.zeros(2),),
            hidden_activation="relu",  # unsupported
            input_names=("a", "b"),
            input_offset=np.zeros(2),
            input_scale=np.ones(2),
            output_names=("u", "v"),
            output_offset=np.zeros(2),
            output_scale=np.ones(2),
            output_transforms=("none", "none"),
        )
    with pytest.raises(AnnSpecError):
        AnnSpec(
            layer_sizes=(2, 2),
            weights=(np.eye(2),),
            biases=(np.zeros(2),),
            hidden_activation="sigmoid",
            input_names=("a", "b"),
            input_offset=np.zeros(2),
            input_scale=np.array([1.0, 0.0]),  # zero scale
            output_names=("u", "v"),
            output_offset=np.zeros(2),
            output_scale=np.ones(2),
            output_transforms=("none", "none"),
        )


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    spec = AnnSpec(
        layer_sizes=(3, 5, 4),
        weights=(rng.normal(size=(5, 3)), rng.normal(size=(4, 5))),
        biases=(rng.normal(size=5), rng.normal(size=4)),
        hidden_activation="sigmoid",
        input_names=("sand", "silt", "clay"),
        input_offset=np.array([50.0, 30.0, 20.0]),
        input_scale=np.array([30.0, 25.0, 15.0]),
        output_names=("theta_r", "theta_s", "alpha", "n"),
        output_offset=np.zeros(4),
        output_scale=np.ones(4),
        output_transforms=("none", "none", "pow10", "pow10"),
    )
    path = tmp_path / "net.ann"
    write_ann_file(path, spec)
    loaded = read_ann_file(path)
    assert loaded.layer_sizes == spec.layer_sizes
    assert loaded.hidden_activation == "sigmoid"
    assert loaded.input_names == spec.input_names
    assert loaded.output_transforms == spec.output_transforms
    for a, b in zip(loaded.weights, spec.weights):
        assert np.array_equal(a, b)
    x = rng.normal(size=(4, 3)) * 10.0 + np.array([40.0, 40.0, 20.0])
    assert np.allclose(ann_forward(loaded, x), ann_forward(spec, x), rtol=0, atol=0)


def test_malformed_file_reports_line(tmp_path):
    path = tmp_path / "bad.ann"
    path.write_text(
        "layers 2 2\n"
        "hidden_activation sigmoid\n"
        "input_names a b\n"
        "input_offset 0 0\n"
        "input_scale 1 1\n"
        "output_names u v\n"
        "output_offset 0 0\n"
        "output_scale 1 1\n"
        "output_transforms none none\n"
        "weights 1\n"
        "1 0\n"
    )  # second weight row missing
    with pytest.raises(AnnSpecError):
        read_ann_file(path)


ANN_TEXT = ("layers 2 2\nhidden_activation sigmoid\ninput_names a b\ninput_offset 0 0\n"
            "input_scale 1 1\noutput_names u v\noutput_offset 0 0\noutput_scale 1 1\n"
            "output_transforms none none\nweights 1\n1 0\n0 1\nbias 1\n0 0\n")


@pytest.mark.parametrize("line, bad, message", [
    ("layers 2 2", "layers 2x 2", "line 1: 'layers' needs positive integers, got '2x 2'"),
    ("layers 2 2", "layers 2 0 2", "line 1: 'layers' needs positive integers, got '2 0 2'"),
    ("weights 1", "weights x", "line 10: 'weights' needs positive integers, got 'x'"),
    ("bias 1", "bias one", "line 13: 'bias' needs positive integers, got 'one'"),
    ("weights 1", "weights", "line 10: expected 'weights <transition>', got 'weights'"),
], ids=["layers_token", "layers_zero", "weights_token", "bias_token", "weights_bare"])
def test_malformed_sizes_name_file_and_line(tmp_path, line, bad, message):
    path = tmp_path / "net.ann"
    path.write_text(ANN_TEXT)
    assert read_ann_file(path).layer_sizes == (2, 2)
    path.write_text(ANN_TEXT.replace(line + "\n", bad + "\n", 1))
    with pytest.raises(AnnSpecError) as err:
        read_ann_file(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.fixture(scope="module")
def ann_file(tmp_path_factory):
    return tmp_path_factory.mktemp("nets") / "net.ann"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spliced_text("# a network\n" + ANN_TEXT.replace("0 1\n", "0 1 # row\n", 1)))
def test_read_ann_file_token_splice_fuzz(ann_file, text):
    """A spliced weight file reads as a consistent AnnSpec or raises
    AnnSpecError; nothing else escapes."""
    with open(ann_file, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        spec = read_ann_file(ann_file)
    except AnnSpecError:
        return
    assert [w.shape for w in spec.weights] == list(
        zip(spec.layer_sizes[1:], spec.layer_sizes[:-1]))


NAMES = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
DOUBLES = st.one_of(st.floats(allow_nan=False),
                    st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308]))


@st.composite
def ann_specs(draw):
    """Networks of 2 to 4 layers of 1 to 5 units, every weight and scaling
    entry any non-NaN double (input scales nonzero)."""
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))

    def doubles(*shape, values=DOUBLES):
        flat = draw(st.lists(values, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.float64).reshape(shape)

    return AnnSpec(
        layer_sizes=sizes,
        weights=tuple(doubles(b, a) for a, b in zip(sizes, sizes[1:])),
        biases=tuple(doubles(b) for b in sizes[1:]),
        hidden_activation=draw(st.sampled_from(sorted(_ACTIVATIONS))),
        input_names=tuple(draw(NAMES) for _ in range(sizes[0])),
        input_offset=doubles(sizes[0]),
        input_scale=doubles(sizes[0], values=DOUBLES.filter(lambda v: v != 0.0)),
        output_names=tuple(draw(NAMES) for _ in range(sizes[-1])),
        output_offset=doubles(sizes[-1]),
        output_scale=doubles(sizes[-1]),
        output_transforms=tuple(draw(st.sampled_from(sorted(_OUTPUT_TRANSFORMS)))
                                for _ in range(sizes[-1])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ann_specs())
def test_ann_file_round_trip_is_bit_exact(ann_file, spec):
    write_ann_file(ann_file, spec)
    back = read_ann_file(ann_file)
    for name in ("layer_sizes", "hidden_activation", "input_names", "output_names",
                 "output_transforms"):
        assert getattr(back, name) == getattr(spec, name)
    pairs = list(zip(back.weights + back.biases, spec.weights + spec.biases))
    pairs += [(getattr(back, name), getattr(spec, name)) for name in (
        "input_offset", "input_scale", "output_offset", "output_scale")]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
