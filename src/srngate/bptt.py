"""Truncated backpropagation through time over a batch of N sequences.

Deltas are the loss derivatives with respect to presynaptic activations, one
row per sequence.  With T forward steps the top delta sits at step T,

    delta[0] = (output_delta @ w_out.T) * f'(a(T))          (N, n_hid)

and one backward step per depth n = 1..h multiplies by the transposed
recurrent matrix and the next diagonal of tanh derivatives,

    delta[n] = (delta[n-1] @ w_rec.T) * f'(a(T-n)).

Each diagonal is 1 - z(s)**2 of the forward state it sits on, computed once,
over the horizon window z(T-h)..z(T) of the states.  Every sequence starts
from the zero state, so at h = T the deepest diagonal falls on z(0) = 0 and
is exactly 1.  Weight gradients sum the per-step outer products over the h
steps inside the horizon; anything older contributes nothing.  Each block is
summed by one contraction over the h·N (step, sequence) rows, taken in
forward-step order (steps T-h+1..T, the sequences within a step), so its
rounding differs from a step-by-step accumulation in the last bits.
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
    each ``deltas[:, n, :]`` is contiguous.  ``fprime`` is laid out the same
    way: ``fprime[:, n]`` is the diagonal 1 - z(T-n)**2 that produced
    ``deltas[:, n]``, and at h = T its deepest block, on the zero start, is
    exactly 1.
    ``delta_norms`` (N, h+1) is C-ordered on purpose: callers sum it over
    the sequence axis, and numpy sums a contiguous axis pairwise but a
    strided one row by row, so a depth-major layout would change those sums
    in their last bits.  ``grads`` holds the mean over the N sequences.
    """

    deltas: np.ndarray
    fprime: np.ndarray
    grads: Gradients
    delta_norms: np.ndarray


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
    # states window z(T-h)..z(T-1) of trace.states; fprime[j] is the
    # diagonal 1 - z(T-h+j)**2 that steps[j] is multiplied by
    n_seqs = trace.y.shape[0]
    window = trace.states[n_steps - h:]
    fprime = 1.0 - window * window
    steps = np.empty((h + 1, n_seqs, params.n_hid))
    # an overflow leaves a non-finite delta, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(output_delta, params.w_out.T, out=steps[h])
        steps[h] *= fprime[h]
        for j in range(h - 1, -1, -1):
            np.matmul(steps[j + 1], params.w_rec.T, out=steps[j])
            steps[j] *= fprime[j]
    deltas = steps[::-1].transpose(1, 0, 2)
    finite = np.isfinite(deltas).all(axis=(0, 2))
    if not finite.all():
        raise NumericalError(f"non-finite delta at depth {int(np.argmin(finite))}")

    # one contraction per block over the h·N rows, then divided through for
    # a per-sequence mean; only the small input window is copied
    rows = steps[1:].reshape(h * n_seqs, params.n_hid)
    prev = window[:h].reshape(h * n_seqs, params.n_hid)
    inputs = trace.inputs[:, n_steps - h:, :].transpose(1, 0, 2).reshape(h * n_seqs, -1)
    grads = Gradients(w_in=inputs.T @ rows, w_rec=prev.T @ rows,
                      w_out=window[h].T @ output_delta, b=rows.sum(axis=0))
    for name in PARAM_BLOCKS:
        setattr(grads, name, getattr(grads, name) / n_seqs)
    return BpttResult(deltas=deltas, fprime=fprime[::-1].transpose(1, 0, 2), grads=grads,
                      delta_norms=np.sqrt(np.sum(deltas * deltas, axis=-1), order="C"))
