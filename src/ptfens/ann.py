"""Small dense feed-forward networks for trained retention-parameter models.

Weights live in a plain text format so externally trained networks can be
dropped in without code changes:

    # comment lines allowed anywhere
    layers 3 5 4
    hidden_activation sigmoid
    input_names sand silt clay
    input_offset 0 0 0
    input_scale 100 100 100
    output_names theta_r theta_s alpha n
    output_offset 0 0 0 0
    output_scale 1 1 1 1
    output_transforms none none pow10 pow10
    weights 1
    <layers[1] rows of layers[0] floats>
    bias 1
    <layers[1] floats>
    weights 2
    ...

Inputs are standardized as (x - offset) / scale, outputs are de-standardized
as y * scale + offset and then run through the per-column transform. The
final layer is always linear; hidden layers use the declared activation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AnnSpecError, open_text

_ACTIVATIONS = {
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "tanh": np.tanh,
    "linear": lambda z: z,
}

_OUTPUT_TRANSFORMS = {
    "none": lambda y: y,
    "exp": np.exp,
    "pow10": lambda y: np.power(10.0, y),
}


@dataclass(frozen=True)
class AnnSpec:
    """Weights and scaling for one dense network."""

    layer_sizes: tuple
    weights: tuple = field(repr=False)  # weights[k] has shape (sizes[k+1], sizes[k])
    biases: tuple = field(repr=False)
    hidden_activation: str
    input_names: tuple
    input_offset: np.ndarray
    input_scale: np.ndarray
    output_names: tuple
    output_offset: np.ndarray
    output_scale: np.ndarray
    output_transforms: tuple

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(int(s) <= 0 for s in sizes):
            raise AnnSpecError(f"bad layer sizes {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise AnnSpecError("need one weight matrix and bias vector per layer transition")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[k + 1], sizes[k]):
                raise AnnSpecError(
                    f"weights {k + 1}: expected shape {(sizes[k + 1], sizes[k])}, got {w.shape}"
                )
            if b.shape != (sizes[k + 1],):
                raise AnnSpecError(f"bias {k + 1}: expected length {sizes[k + 1]}, got {b.shape}")
        if self.hidden_activation not in _ACTIVATIONS:
            raise AnnSpecError(f"unknown hidden activation {self.hidden_activation!r}")
        if len(self.input_names) != sizes[0]:
            raise AnnSpecError("input_names length does not match the input layer size")
        if self.input_offset.shape != (sizes[0],) or self.input_scale.shape != (sizes[0],):
            raise AnnSpecError("input offset/scale length does not match the input layer size")
        if len(self.output_names) != sizes[-1]:
            raise AnnSpecError("output_names length does not match the output layer size")
        if self.output_offset.shape != (sizes[-1],) or self.output_scale.shape != (sizes[-1],):
            raise AnnSpecError("output offset/scale length does not match the output layer size")
        if len(self.output_transforms) != sizes[-1]:
            raise AnnSpecError("output_transforms length does not match the output layer size")
        for t in self.output_transforms:
            if t not in _OUTPUT_TRANSFORMS:
                raise AnnSpecError(f"unknown output transform {t!r}")
        if np.any(self.input_scale == 0.0):
            raise AnnSpecError("input scale entries must be nonzero")


def ann_forward(spec, x):
    """Run the network on (d,) or (batch, d) inputs; returns matching shape."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    z = np.atleast_2d(x)
    if z.shape[1] != spec.layer_sizes[0]:
        raise AnnSpecError(
            f"network expects {spec.layer_sizes[0]} inputs, got {z.shape[1]}"
        )
    act = _ACTIVATIONS[spec.hidden_activation]
    z = (z - spec.input_offset) / spec.input_scale
    last = len(spec.weights) - 1
    for k, (w, b) in enumerate(zip(spec.weights, spec.biases)):
        z = z @ w.T + b
        if k < last:
            z = act(z)
    z = z * spec.output_scale + spec.output_offset
    cols = [_OUTPUT_TRANSFORMS[t](z[:, j]) for j, t in enumerate(spec.output_transforms)]
    out = np.stack(cols, axis=1)
    return out[0] if single else out


def _floats(parts, n, what, where):
    if len(parts) != n:
        raise AnnSpecError(f"{where}: expected {n} values for {what}, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise AnnSpecError(f"{where}: {exc}") from None


def _sizes(parts, key, where):
    """The positive integers of a 'layers', 'weights' or 'bias' line."""
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise AnnSpecError(f"{where}: '{key}' needs positive integers, got {' '.join(parts)!r}")
    return values


def read_ann_file(path):
    """Parse a network weight file into an AnnSpec."""
    with open_text(path, AnnSpecError) as fh:
        raw = fh.readlines()
    lines = [
        (f"{path}: line {i + 1}", ln.strip()) for i, ln in enumerate(raw)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    fields = {}
    matrices = {}
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise AnnSpecError(f"{path}: unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    while pos < len(lines):
        where, line = take()
        key, *parts = line.split()
        if key == "layers":
            fields["layers"] = _sizes(parts, key, where)
        elif key in ("hidden_activation",):
            fields[key] = parts[0] if parts else ""
        elif key in ("input_names", "output_names", "output_transforms"):
            fields[key] = tuple(parts)
        elif key in ("input_offset", "input_scale", "output_offset", "output_scale"):
            fields[key] = (where, parts)
        elif key in ("weights", "bias"):
            if "layers" not in fields:
                raise AnnSpecError(f"{where}: 'layers' must come before weight blocks")
            sizes = fields["layers"]
            if len(parts) != 1:
                raise AnnSpecError(f"{where}: expected '{key} <transition>', got {line!r}")
            (idx,) = _sizes(parts, key, where)
            if idx > len(sizes) - 1:
                raise AnnSpecError(f"{where}: no layer transition {idx}")
            if key == "weights":
                rows = []
                for _ in range(sizes[idx]):
                    rwhere, rline = take()
                    rows.append(_floats(rline.split(), sizes[idx - 1], f"weights {idx}", rwhere))
                matrices[("w", idx)] = np.stack(rows)
            else:
                bwhere, bline = take()
                matrices[("b", idx)] = _floats(bline.split(), sizes[idx], f"bias {idx}", bwhere)
        else:
            raise AnnSpecError(f"{where}: unknown directive {key!r}")

    required = ("layers", "hidden_activation", "input_names", "input_offset", "input_scale",
                "output_names", "output_offset", "output_scale", "output_transforms")
    missing = [k for k in required if k not in fields]
    if missing:
        raise AnnSpecError(f"{path}: missing {', '.join(missing)}")
    sizes = fields["layers"]
    for k in range(1, len(sizes)):
        if ("w", k) not in matrices or ("b", k) not in matrices:
            raise AnnSpecError(f"{path}: missing weights or bias for transition {k}")

    def vec(key, n):
        where, parts = fields[key]
        return _floats(parts, n, key, where)

    return AnnSpec(
        layer_sizes=sizes,
        weights=tuple(matrices[("w", k)] for k in range(1, len(sizes))),
        biases=tuple(matrices[("b", k)] for k in range(1, len(sizes))),
        hidden_activation=fields["hidden_activation"],
        input_names=fields["input_names"],
        input_offset=vec("input_offset", sizes[0]),
        input_scale=vec("input_scale", sizes[0]),
        output_names=fields["output_names"],
        output_offset=vec("output_offset", sizes[-1]),
        output_scale=vec("output_scale", sizes[-1]),
        output_transforms=fields["output_transforms"],
    )


def write_ann_file(path, spec):
    """Inverse of read_ann_file, for tests and for exporting trained nets."""
    def fmt(values):
        return " ".join(repr(float(v)) for v in values)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layers " + " ".join(str(s) for s in spec.layer_sizes) + "\n")
        fh.write(f"hidden_activation {spec.hidden_activation}\n")
        fh.write("input_names " + " ".join(spec.input_names) + "\n")
        fh.write("input_offset " + fmt(spec.input_offset) + "\n")
        fh.write("input_scale " + fmt(spec.input_scale) + "\n")
        fh.write("output_names " + " ".join(spec.output_names) + "\n")
        fh.write("output_offset " + fmt(spec.output_offset) + "\n")
        fh.write("output_scale " + fmt(spec.output_scale) + "\n")
        fh.write("output_transforms " + " ".join(spec.output_transforms) + "\n")
        for k, (w, b) in enumerate(zip(spec.weights, spec.biases), start=1):
            fh.write(f"weights {k}\n")
            for row in w:
                fh.write(fmt(row) + "\n")
            fh.write(f"bias {k}\n")
            fh.write(fmt(b) + "\n")
