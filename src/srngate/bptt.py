"""Truncated backpropagation through time over a batch of N sequences.

Deltas are the loss derivatives with respect to presynaptic activations, one
row per sequence.  With T forward steps the top delta sits at step T,

    delta[0] = (output_delta @ w_out.T) * f'(a(T))          (N, n_hid)

and one backward step per depth n = 1..h multiplies by the transposed
recurrent matrix and the next diagonal of tanh derivatives,

    delta[n] = (delta[n-1] @ w_rec.T) * f'(a(T-n)).

When h = T the deepest diagonal falls on the initial state and is taken as
1 - z0**2 (exactly 1 for the usual zero start); ``step_fprime`` is the one
place that rule lives.  Weight gradients sum the per-step outer products
over the h steps inside the horizon; anything older contributes nothing.
Each block is summed by one contraction over the h·N (step, sequence) rows,
taken in forward-step order (steps T-h+1..T, the sequences within a step),
so its rounding differs from a step-by-step accumulation in the last bits.
The gradients are means over the sequences, so the learning rate is
independent of batch size.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .model import ForwardTrace, SrnParams

PARAM_BLOCKS = ("w_in", "w_rec", "w_out", "b")


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
                for name in PARAM_BLOCKS}


@dataclass
class BpttResult:
    """Deltas for depths 0..h plus accumulated parameter gradients.

    ``deltas`` is (N, h+1, n_hid), a reversed, transposed view of a
    buffer that holds the deltas in forward-step order (deepest first), so
    each ``deltas[:, n, :]`` is contiguous.
    ``delta_norms`` (N, h+1) is C-ordered on purpose: callers sum it over
    the sequence axis, and numpy sums a contiguous axis pairwise but a
    strided one row by row, so a depth-major layout would change those sums
    in their last bits.  ``grads`` holds the mean over the N sequences.
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

    # deltas in forward-step order: steps[j] is the delta at forward step
    # T-h+j (depth h-j), one contiguous (N, n_hid) block, so the deltas of
    # steps T-h+1..T are one (h·N, n_hid) block whose rows line up with the
    # states window z(T-h)..z(T-1) of trace.states
    n_seqs = trace.y.shape[0]
    steps = np.empty((h + 1, n_seqs, params.n_hid))
    np.matmul(output_delta, params.w_out.T, out=steps[h])
    steps[h] *= trace.fprime[:, n_steps - 1, :]
    for j in range(h - 1, -1, -1):
        np.matmul(steps[j + 1], params.w_rec.T, out=steps[j])
        steps[j] *= step_fprime(trace, n_steps - h + j)
    deltas = steps[::-1].transpose(1, 0, 2)
    finite = np.isfinite(deltas).all(axis=(0, 2))
    if not finite.all():
        raise NumericalError(f"non-finite delta at depth {int(np.argmin(finite))}")

    # one contraction per block over the h·N rows, then divided through for
    # a per-sequence mean; only the small input window is copied
    rows = steps[1:].reshape(h * n_seqs, params.n_hid)
    window = trace.states[n_steps - h:n_steps].reshape(h * n_seqs, params.n_hid)
    inputs = trace.inputs[:, n_steps - h:, :].transpose(1, 0, 2).reshape(h * n_seqs, -1)
    grads = Gradients(w_in=inputs.T @ rows, w_rec=window.T @ rows,
                      w_out=trace.z[:, n_steps - 1, :].T @ output_delta,
                      b=rows.sum(axis=0))
    for name in PARAM_BLOCKS:
        setattr(grads, name, getattr(grads, name) / n_seqs)
    return BpttResult(deltas=deltas, grads=grads,
                      delta_norms=np.sqrt(np.sum(deltas * deltas, axis=-1), order="C"))
