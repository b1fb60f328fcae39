"""Simple recurrent network: parameters, initialization, forward pass, losses.

The network keeps one tanh hidden layer with feedback.  Every computation
runs on a batch of N sequences at once; per step k it computes, in
row-vector convention with one row per sequence,

    a(k) = u(k) @ w_in + z(k-1) @ w_rec + b      (N, n_hid)
    z(k) = tanh(a(k))

and reads out once, after the final step:  y = g(z(T) @ w_out), shape
(N, n_out), with g linear (regression) or softmax (classification).  All
benchmark tasks have a single target per sequence, so no per-step outputs are
produced.  A single sequence is a batch of one: ``seq[None]``.
"""

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericalError

MODEL_FORMAT = "srngate-model-v1"


class OutputActivation(Enum):
    LINEAR = "linear"
    SOFTMAX = "softmax"


class LossKind(Enum):
    MSE = "mse"
    CROSS_ENTROPY = "cross_entropy"


@dataclass
class SrnParams:
    """Trainable weights of the network.  Hidden activation is always tanh."""

    w_in: np.ndarray   # (n_in, n_hid)
    w_rec: np.ndarray  # (n_hid, n_hid)
    w_out: np.ndarray  # (n_hid, n_out)
    b: np.ndarray      # (n_hid,)
    output_activation: OutputActivation = OutputActivation.LINEAR

    def __post_init__(self):
        n_hid = self.w_rec.shape[0]
        if self.w_rec.shape != (n_hid, n_hid):
            raise DimensionError(f"w_rec must be square, got {self.w_rec.shape}")
        if self.w_in.ndim != 2 or self.w_in.shape[1] != n_hid:
            raise DimensionError(f"w_in {self.w_in.shape} does not feed {n_hid} hidden units")
        if self.w_out.ndim != 2 or self.w_out.shape[0] != n_hid:
            raise DimensionError(f"w_out {self.w_out.shape} does not read {n_hid} hidden units")
        if self.b.shape != (n_hid,):
            raise DimensionError(f"b {self.b.shape} does not match {n_hid} hidden units")

    @property
    def n_in(self) -> int:
        return self.w_in.shape[0]

    @property
    def n_hid(self) -> int:
        return self.w_rec.shape[0]

    @property
    def n_out(self) -> int:
        return self.w_out.shape[1]

    def copy(self) -> "SrnParams":
        return SrnParams(
            self.w_in.copy(), self.w_rec.copy(), self.w_out.copy(),
            self.b.copy(), self.output_activation,
        )


@dataclass
class ForwardTrace:
    """Everything the forward pass saw over a batch of N sequences, kept for
    backpropagation.  The states and their derivatives are built from ``a``
    on first use, so scoring, which reads only ``y``, never pays for them."""

    inputs: np.ndarray   # (N, T, n_in)
    z0: np.ndarray       # (N, n_hid) initial states
    a: np.ndarray        # (N, T, n_hid) presynaptic activations
    y: np.ndarray        # (N, n_out) readout after the final step
    output_activation: OutputActivation

    @property
    def n_steps(self) -> int:
        return self.a.shape[1]

    @cached_property
    def z(self) -> np.ndarray:
        """(N, T, n_hid) states, tanh(a)."""
        return np.tanh(self.a)

    @cached_property
    def fprime(self) -> np.ndarray:
        """(N, T, n_hid) tanh derivatives, 1 - z**2."""
        return 1.0 - self.z * self.z


def init_gaussian(n_in: int, n_hid: int, n_out: int, sigma: float, seed,
                  output_activation: OutputActivation = OutputActivation.LINEAR) -> SrnParams:
    """Draw all weights i.i.d. from a zero-mean Gaussian; biases start at zero.

    ``sigma`` sets the scale relative to the hidden fan: every entry has
    standard deviation sigma * sqrt(n_hid), which puts the spectral radius of
    the recurrent matrix at about sigma * n_hid.  sigma = 1/n_hid therefore
    sits at the edge between vanishing and exploding gradient flow; the
    benchmark experiments use sigma = 0.01 with 100 hidden units for exactly
    that reason, and 0.005 / 0.02 land firmly on the vanishing / exploding
    sides.
    """
    if n_in < 1 or n_hid < 1 or n_out < 1:
        raise ConfigError(f"layer sizes must be positive, got {(n_in, n_hid, n_out)}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    std = float(sigma * np.sqrt(n_hid))
    return SrnParams(
        w_in=rng.normal(0.0, std, size=(n_in, n_hid)),
        w_rec=rng.normal(0.0, std, size=(n_hid, n_hid)),
        w_out=rng.normal(0.0, std, size=(n_hid, n_out)),
        b=np.zeros(n_hid),
        output_activation=output_activation,
    )


def _softmax(y_pre: np.ndarray) -> np.ndarray:
    # max subtraction for numerical stability; does not change the result
    shifted = y_pre - np.max(y_pre, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward_batch(params: SrnParams, inputs: np.ndarray,
                  z0: np.ndarray | None = None) -> ForwardTrace:
    """Run a batch (N, T, n_in) of sequences from z0, which is (n_hid,) for a
    start shared by all sequences or (N, n_hid); it defaults to zeros."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != params.n_in:
        raise DimensionError(f"batch shape {inputs.shape} does not match n_in={params.n_in}")
    if z0 is None:
        z0 = np.zeros(params.n_hid)
    z0 = np.asarray(z0, dtype=np.float64)
    try:
        z0 = np.broadcast_to(z0, (inputs.shape[0], params.n_hid))
    except ValueError as e:
        raise DimensionError(f"z0 shape {z0.shape} does not match "
                             f"{inputs.shape[0]} sequences of n_hid={params.n_hid}") from e

    n_seqs, n_steps = inputs.shape[:2]
    a = np.empty((n_seqs, n_steps, params.n_hid))
    t = np.empty((n_seqs, params.n_hid))
    r = np.empty_like(t)
    z_prev = z0
    for k in range(n_steps):
        # (x @ w_in + z @ w_rec) + b in contiguous buffers: tanh on the strided
        # a[:, k, :] runs several times slower.  The projection stays one
        # product per step: numpy takes a one-row product through gemv, and a
        # single GEMM over all steps would round a batch of one differently.
        np.matmul(inputs[:, k, :], params.w_in, out=t)
        t += np.matmul(z_prev, params.w_rec, out=r)
        t += params.b
        a[:, k, :] = t
        z_prev = np.tanh(t)
    if not np.isfinite(a).all():
        bad = int(np.argwhere(~np.isfinite(a).all(axis=(0, 2)))[0][0])
        raise NumericalError(f"non-finite activation at step {bad + 1}")
    y_pre = z_prev @ params.w_out
    if params.output_activation is OutputActivation.SOFTMAX:
        y = _softmax(y_pre)
    else:
        y = y_pre
    return ForwardTrace(inputs=inputs, z0=z0, a=a, y=y,
                        output_activation=params.output_activation)


def check_loss_pairing(kind: LossKind, activation: OutputActivation) -> None:
    """MSE needs a linear readout, cross-entropy needs softmax."""
    ok = (kind is LossKind.MSE and activation is OutputActivation.LINEAR) or (
        kind is LossKind.CROSS_ENTROPY and activation is OutputActivation.SOFTMAX)
    if not ok:
        raise ConfigError(f"loss {kind.value} cannot pair with {activation.value} output")


def loss_batch(trace: ForwardTrace, targets, kind: LossKind, tolerance: float = 0.04):
    """Loss and its derivative w.r.t. the presynaptic output, per sequence.

    MSE pairs with a linear readout: E = 0.5 * ||y - t||^2, delta = y - t,
    correct when max|y - t| < tolerance.  Cross-entropy pairs with softmax:
    E = -log y[class], delta = y - onehot(class), correct when argmax hits;
    class ids must lie in [0, n_out).

    Returns (losses (N,), output_deltas (N, n_out), correct (N,) bool), or
    raises NumericalError when a loss is not finite.
    """
    check_loss_pairing(kind, trace.output_activation)
    y = trace.y
    if kind is LossKind.MSE:
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != y.shape:
            raise DimensionError(f"targets shape {t.shape} does not match outputs {y.shape}")
        deltas = y - t
        with np.errstate(over="ignore"):  # an overflow is reported below
            losses = 0.5 * np.sum(deltas * deltas, axis=-1)
        correct = np.max(np.abs(deltas), axis=-1) < tolerance
    elif kind is LossKind.CROSS_ENTROPY:
        cls = np.asarray(targets)
        if cls.shape != y.shape[:-1]:
            raise DimensionError(f"targets shape {cls.shape} does not match batch {y.shape[:-1]}")
        if ((cls < 0) | (cls >= y.shape[1])).any():
            raise ConfigError(f"class ids must lie in [0, {y.shape[1]}), "
                              f"got {cls.min()}..{cls.max()}")
        rows = np.arange(y.shape[0])
        losses = -np.log(np.maximum(y[rows, cls], 1e-300))
        deltas = y.copy()
        deltas[rows, cls] -= 1.0
        correct = np.argmax(y, axis=-1) == cls
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    if not np.isfinite(losses).all():
        bad = int(np.argwhere(~np.isfinite(losses))[0][0])
        raise NumericalError(f"non-finite loss for sequence {bad} of the batch")
    return losses, deltas, correct


def serialize(params: SrnParams, seed: int | None = None) -> bytes:
    """Render parameters as a self-describing UTF-8 JSON document.

    Floats are written with full round-trip precision, so
    deserialize(serialize(p)) reproduces every weight bit-exactly.
    """
    doc = {
        "format": MODEL_FORMAT,
        "n_in": params.n_in,
        "n_hid": params.n_hid,
        "n_out": params.n_out,
        "output_activation": params.output_activation.value,
        "seed": seed,
        "w_in": params.w_in.ravel().tolist(),
        "w_rec": params.w_rec.ravel().tolist(),
        "w_out": params.w_out.ravel().tolist(),
        "b": params.b.tolist(),
    }
    return json.dumps(doc, indent=1).encode("utf-8")


def deserialize(data: bytes) -> SrnParams:
    """Parse a document produced by serialize()."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"not a valid model document: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"unknown model format {doc.get('format')!r}"
                          if isinstance(doc, dict) else "model document must be an object")
    try:
        n_in, n_hid, n_out = int(doc["n_in"]), int(doc["n_hid"]), int(doc["n_out"])
        activation = OutputActivation(doc["output_activation"])
        w_in = np.array(doc["w_in"], dtype=np.float64).reshape(n_in, n_hid)
        w_rec = np.array(doc["w_rec"], dtype=np.float64).reshape(n_hid, n_hid)
        w_out = np.array(doc["w_out"], dtype=np.float64).reshape(n_hid, n_out)
        b = np.array(doc["b"], dtype=np.float64).reshape(n_hid)
    except (KeyError, ValueError, TypeError) as e:
        raise FormatError(f"malformed model document: {e}") from e
    for name, block in (("w_in", w_in), ("w_rec", w_rec), ("w_out", w_out), ("b", b)):
        if not np.isfinite(block).all():
            raise FormatError(f"model document holds non-finite {name} weights")
    return SrnParams(w_in, w_rec, w_out, b, activation)


def save_model(path, params: SrnParams, seed: int | None = None) -> None:
    with open(path, "wb") as f:
        f.write(serialize(params, seed))


def load_model(path) -> SrnParams:
    with open(path, "rb") as f:
        return deserialize(f.read())
