"""Shared embedding network: a fully-connected ReLU stack in plain numpy.

:func:`forward` embeds for adaptation and evaluation.  Meta-training runs
:func:`forward_recorded`, which keeps the layer inputs and ReLU masks, and
then :func:`backward`, which pulls an embedding gradient back to the
flattened parameters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"CMETA1"


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture: input_dim -> hidden_dims (ReLU) -> output_dim (affine)."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    init_seed: int = 0

    def __post_init__(self) -> None:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer widths must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return tuple(zip(dims[:-1], dims[1:]))

    @property
    def num_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)


@dataclass
class EncoderParams:
    """Per-layer weights (fan_in, fan_out) and biases (fan_out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up per layer")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("inconsistent layer shapes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters contain non-finite values")

    def flatten(self) -> np.ndarray:
        return _flat_layout(self.weights, self.biases)

    @classmethod
    def unflatten(cls, config: EncoderConfig, vec: np.ndarray) -> "EncoderParams":
        vec = np.asarray(vec, dtype=np.float64)
        expected = config.num_params
        if vec.size != expected:
            raise ValueError(
                f"parameter vector has {vec.size} entries, config needs {expected}"
            )
        views = _read_layout(config, vec)
        return cls(weights=[w.copy() for w in views.weights],
                   biases=[b.copy() for b in views.biases])


def _flat_layout(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """Layer order, weights row-major then bias — the checkpoint layout."""
    return np.concatenate([part for w, b in zip(weights, biases) for part in (w.ravel(), b)])


def _read_layout(config: EncoderConfig, vec: np.ndarray) -> EncoderParams:
    """The layers of a float64 ``vec`` in :func:`_flat_layout`'s order, as views of it.

    Nothing is copied or checked: the result skips :class:`EncoderParams`'
    constructor, so ``vec`` must have the config's size and finite entries,
    and must not be written while the views are in use.
    """
    params = object.__new__(EncoderParams)
    params.weights, params.biases, offset = [], [], 0
    for fan_in, fan_out in config.layer_dims:
        params.weights.append(vec[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        params.biases.append(vec[offset : offset + fan_out])
        offset += fan_out
    return params


def init_params(config: EncoderConfig) -> EncoderParams:
    """He-style init: W ~ N(0, 2/fan_in), biases zero, seeded and deterministic."""
    rng = np.random.default_rng(config.init_seed)
    weights, biases = [], []
    for fan_in, fan_out in config.layer_dims:
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights=weights, biases=biases)


@dataclass
class ActivationRecord:
    """Forward-pass intermediates needed by :func:`backward`."""

    params: EncoderParams
    inputs: list[np.ndarray]  # input to each affine layer
    masks: list[np.ndarray]  # ReLU masks after each hidden layer


def forward(x: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Embed one vector or a batch: the output of :func:`forward_recorded`."""
    u, _ = forward_recorded(x, params)
    return u[0] if np.ndim(x) == 1 else u


def forward_recorded(
    x: np.ndarray, params: EncoderParams
) -> tuple[np.ndarray, ActivationRecord]:
    """Embed one vector as a batch of one, or a batch, keeping what :func:`backward` needs.

    The final layer has no activation.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 1:
        h = h[None, :]
    input_dim = params.weights[0].shape[0]
    if h.ndim != 2 or h.shape[1] != input_dim:
        raise ValueError(f"input dimension {h.shape[-1]} != {input_dim}")
    inputs, masks = [], []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ w
        h += b
        if i < last:
            masks.append(h > 0.0)
            np.maximum(h, 0.0, out=h)
    return h, ActivationRecord(params=params, inputs=inputs, masks=masks)


def backward(record: ActivationRecord, grad_embeddings: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient of sum(grad_embeddings * embeddings) w.r.t.
    the flattened parameters, reusing the recorded activations."""
    params = record.params
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if len(record.inputs) != len(params.weights) or g.shape != (
        record.inputs[0].shape[0],
        params.weights[-1].shape[1],
    ):
        raise ValueError("activation record does not match the gradient or parameters")
    grad_w, grad_b = [], []  # last layer first
    for i in range(len(params.weights) - 1, -1, -1):
        grad_w.append(record.inputs[i].T @ g)
        grad_b.append(g.sum(axis=0))
        if i > 0:
            g = (g @ params.weights[i].T) * record.masks[i - 1]
    return _flat_layout(grad_w[::-1], grad_b[::-1])


def save_checkpoint(path: str, config: EncoderConfig, params: EncoderParams) -> None:
    """Binary layout: magic, little-endian header ints, float64 parameters.

    Header: input_dim, output_dim, hidden-layer count, each hidden width
    (uint32), then init_seed (int64).  Parameters follow in layer order,
    each weight matrix row-major, then its bias vector.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                f"<III{len(config.hidden_dims)}I",
                config.input_dim,
                config.output_dim,
                len(config.hidden_dims),
                *config.hidden_dims,
            )
        )
        fh.write(struct.pack("<q", config.init_seed))
        fh.write(params.flatten().astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[EncoderConfig, EncoderParams]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a crowdmeta checkpoint")
    start = len(CHECKPOINT_MAGIC)
    try:
        input_dim, output_dim, n_hidden = struct.unpack_from("<III", blob, start)
        *hidden, init_seed = struct.unpack_from(f"<{n_hidden}Iq", blob, start + 12)
        config = EncoderConfig(input_dim, tuple(hidden), output_dim, init_seed)
    except struct.error:
        raise ValueError(f"{path}: truncated checkpoint") from None
    except ValueError as exc:  # a zero layer width
        raise ValueError(f"{path}: {exc}") from None
    payload = blob[start + 12 + 4 * n_hidden + 8 :]
    extra = len(payload) - 8 * config.num_params
    if extra:
        cause = f"{extra} trailing bytes" if extra > 0 else "truncated checkpoint"
        raise ValueError(f"{path}: {cause}")
    try:
        params = EncoderParams.unflatten(config, np.frombuffer(payload, dtype="<f8"))
    except ValueError as exc:  # a non-finite parameter
        raise ValueError(f"{path}: {exc}") from None
    return config, params
