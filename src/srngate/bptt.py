"""Truncated backpropagation through time over a batch of N sequences.

Deltas are the loss derivatives with respect to presynaptic activations, one
row per sequence.  With T forward steps the top delta sits at step T,

    delta[0] = (output_delta @ w_out.T) * f'(a(T))          (N, n_hid)

and one backward step per depth n = 1..h multiplies by the transposed
recurrent matrix and the next diagonal of tanh derivatives,

    delta[n] = (delta[n-1] @ w_rec.T) * f'(a(T-n)).

When h = T the deepest diagonal falls on the initial state and is taken as
1 - z0**2 (exactly 1 for the usual zero start); ``step_fprime`` is the one
place that rule lives.  Weight gradients accumulate the per-step outer
products over the h steps inside the horizon; anything older contributes
nothing.  The gradients are means over the sequences, so the learning rate is
independent of batch size.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .model import ForwardTrace, SrnParams


@dataclass
class BpttConfig:
    h: int  # horizon: number of backward steps from the top delta

    def __post_init__(self):
        if self.h < 1:
            raise ConfigError(f"horizon must be at least 1, got {self.h}")


@dataclass
class Gradients:
    """One array per parameter block, shaped like SrnParams."""

    w_in: np.ndarray
    w_rec: np.ndarray
    w_out: np.ndarray
    b: np.ndarray

    @staticmethod
    def zeros_like(params: SrnParams) -> "Gradients":
        return Gradients(np.zeros_like(params.w_in), np.zeros_like(params.w_rec),
                         np.zeros_like(params.w_out), np.zeros_like(params.b))

    def block_norms(self) -> dict:
        return {name: float(np.linalg.norm(getattr(self, name)))
                for name in ("w_in", "w_rec", "w_out", "b")}


@dataclass
class BpttResult:
    """Deltas for depths 0..h plus accumulated parameter gradients.

    ``deltas`` is (N, h+1, n_hid), ``delta_norms`` (N, h+1), and ``grads``
    holds the mean over the N sequences.
    """

    deltas: np.ndarray
    grads: Gradients
    delta_norms: np.ndarray


def step_fprime(trace: ForwardTrace, step: int) -> np.ndarray:
    """Diagonal f' at 1-based forward step ``step``, shape (N, n_hid).

    Step 0 is the initial state, whose diagonal is 1 - z0**2.
    """
    if step >= 1:
        return trace.fprime[:, step - 1, :]
    return 1.0 - trace.z0 * trace.z0


def backward(params: SrnParams, trace: ForwardTrace, output_delta: np.ndarray,
             cfg: BpttConfig) -> BpttResult:
    """Backpropagate a batch (N, n_out) of output deltas for h steps."""
    n_steps = trace.n_steps
    h = cfg.h
    if h > n_steps:
        raise ConfigError(f"horizon {h} exceeds sequence length {n_steps}")
    output_delta = np.asarray(output_delta, dtype=np.float64)
    if output_delta.shape != trace.y.shape:
        raise DimensionError(
            f"output delta {output_delta.shape} does not match outputs {trace.y.shape}")

    delta = (output_delta @ params.w_out.T) * trace.fprime[:, n_steps - 1, :]
    deltas = [delta]
    for n in range(1, h + 1):
        delta = (delta @ params.w_rec.T) * step_fprime(trace, n_steps - n)
        deltas.append(delta)
    deltas = np.stack(deltas, axis=1)
    if not np.isfinite(deltas).all():
        bad = int(np.argwhere(~np.isfinite(deltas).all(axis=(0, 2)))[0][0])
        raise NumericalError(f"non-finite delta at depth {bad}")

    # outer products summed over the batch rows, then divided through for a
    # per-sequence mean
    grads = Gradients.zeros_like(params)
    grads.w_out += trace.z[:, n_steps - 1, :].T @ output_delta
    for n in range(h):
        step = n_steps - n
        delta_n = deltas[:, n, :]
        z_prev = trace.z[:, step - 2, :] if step >= 2 else trace.z0
        grads.w_rec += z_prev.T @ delta_n
        grads.w_in += trace.inputs[:, step - 1, :].T @ delta_n
        grads.b += delta_n.sum(axis=0)
    n_seqs = trace.a.shape[0]
    for name in ("w_in", "w_rec", "w_out", "b"):
        setattr(grads, name, getattr(grads, name) / n_seqs)

    return BpttResult(deltas=deltas, grads=grads,
                      delta_norms=np.sqrt(np.sum(deltas * deltas, axis=-1)))
