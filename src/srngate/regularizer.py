"""Differential of the deep-gradient norm and the minibatch gate.

Writing the deepest backpropagated delta of one sequence as a product over
the horizon,

    delta(k-h)^T = D(T-h) W D(T-h+1) W ... D(T-1) W delta(k)^T,

with W the recurrent matrix and D(s) = diag(1 - z(s)**2), define for a
minibatch of N sequences

    g  = mean over the batch of delta(k-h)^T      (n_hid,)
    S  = 0.5 * ||g||^2                  (half squared deep-delta norm)
    dg = mean over the batch of the sum over factor positions of the same
         product with one W replaced by a candidate update dW (diagonals
         held fixed)
    dS = (g, dg)                        (first-order change of S along dW).

dS is the directional derivative of S with the forward trace frozen:  its
sign predicts whether applying dW grows or shrinks the deep gradient norm.
In training, dW is the recurrent block of the draw's momentum step, the
very array that ``trainer.sgd_step`` applies when the draw is accepted.
The Q-factor log10(||delta(k)|| / ||delta(k-h)||), from batch-mean norms,
measures how much the norm changed across the horizon; together they gate
which minibatches are used for training:

  1. reject when |dS| exceeds the threshold r0 (too large a jump in S);
  2. accept when Q lies inside the safe range [q_min, q_max];
  3. outside the range, accept only when (Q < q_min and dS > 0) or
     (Q > q_max and dS < 0);
  4. otherwise reject.

The threshold is taken literally as |dS| > r0 only in absolute mode; by
default r0 scales with the current S (|dS| > r0 * S), which keeps the rule
meaningful across the many orders of magnitude the deep norm spans.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bptt as bptt_mod
from . import model as model_mod
from .errors import ConfigError, DimensionError
from .model import ForwardTrace, SrnParams


class Decision(Enum):
    ACCEPT = "accept"
    REJECT_LARGE_DS = "reject_large_ds"
    REJECT_Q_DIRECTION = "reject_q_direction"


@dataclass
class RegConfig:
    h: int                    # horizon for the deep delta
    q_min: float = -1.0       # safe range for the Q-factor
    q_max: float = 1.0
    r0: float = 0.5           # |dS| threshold; relative to S unless absolute
    r0_absolute: bool = False

    def __post_init__(self):
        if self.h < 1:
            raise ConfigError(f"horizon must be at least 1, got {self.h}")
        if not self.q_min < self.q_max:
            raise ConfigError(f"qmin/qmax: empty safe range [{self.q_min}, {self.q_max}]")
        if self.r0 <= 0:
            raise ConfigError(f"r0 must be positive, got {self.r0}")


@dataclass
class RegReport:
    """Gate evidence for one minibatch; no weights are touched."""

    dS: float            # (g, dg)
    S: float             # 0.5 * ||g||^2
    q: float             # log10(mean top norm / mean deep norm)
    decision: Decision


def compute_dg(params: SrnParams, back: bptt_mod.BpttResult,
               dw_rec: np.ndarray) -> np.ndarray:
    """Per-sequence differential (N, n_hid) of the deep delta along dw_rec,
    diagonals held fixed, over the horizon h that ``back`` was run with.

    Sum over the h factor positions of the product with that position's W
    replaced by dw_rec.  Linear in dw_rec by construction.  The walk over
    the factor positions runs at one BLAS thread, in row blocks that run at
    once, one core each (``model._row_blocks``); dg does not depend on the
    number of blocks.
    """
    dw_rec = np.asarray(dw_rec, dtype=np.float64)
    if dw_rec.shape != params.w_rec.shape:
        raise DimensionError(
            f"dw_rec {dw_rec.shape} does not match w_rec {params.w_rec.shape}")
    n_seqs, h = back.deltas.shape[0], back.deltas.shape[1] - 1

    # dw_rec applied to each factor position's incoming delta: back.deltas[:, i]
    # is the product of the first i factors applied to delta(k).  One
    # whole-batch product per position, in the calling thread: one stacked
    # (h, N, n_hid) product rounds differently.
    pushed = np.empty((h, n_seqs, params.n_hid))
    for i in range(h):
        np.matmul(back.deltas[:, i, :], dw_rec.T, out=pushed[i])
    dg = np.empty((n_seqs, params.n_hid))

    def walk(rows):
        # walk the prefix operator inward from the deep end while
        # substituting, over these rows only, reusing two (rows, n_hid,
        # n_hid) buffers.  Each sequence's products are separate calls of
        # one shape, so a block gives its rows bit for bit what the whole
        # batch gives them; one stacked GEMM over the sequences would round
        # differently.
        prefix = np.eye(params.n_hid) * back.fprime[rows, h, None, :]
        spare = np.empty_like(prefix)
        for i in range(h, 0, -1):
            term = (prefix @ pushed[i - 1, rows, :, None])[..., 0]
            if i == h:
                dg[rows] = term
            else:
                dg[rows] += term
            if i > 1:
                np.matmul(prefix, params.w_rec, out=spare)
                spare *= back.fprime[rows, i - 1, None, :]
                prefix, spare = spare, prefix

    # the walk is O(h·N·n_hid³), nearly all of a gated draw
    with model_mod._blas_threads(1):
        model_mod._in_blocks(walk, model_mod._row_blocks(n_seqs))
    return dg


def q_factor(norm_top: float, norm_deep: float) -> float:
    """log10 of top/deep delta norm; 0 means the norm survived the horizon.

    Degenerate norms map to signed infinities (never NaN): a vanished deep
    delta gives +inf, a vanished top delta -inf; the gate treats both as
    outside any safe range.
    """
    if norm_deep <= 0.0:
        return float("inf")
    if norm_top <= 0.0:
        return float("-inf")
    return float(np.log10(norm_top / norm_deep))


def gate(dS: float, q: float, cfg: RegConfig, S: float) -> Decision:
    """Accept or reject one minibatch from its (dS, Q) evidence; S scales
    the threshold unless r0 is absolute."""
    r0_eff = cfg.r0 if cfg.r0_absolute else cfg.r0 * S
    if abs(dS) > r0_eff:
        return Decision.REJECT_LARGE_DS
    if not np.isfinite(q):
        # a fully collapsed norm on either end: only norm-growing updates help
        return Decision.ACCEPT if dS > 0 else Decision.REJECT_Q_DIRECTION
    if cfg.q_min <= q <= cfg.q_max:
        return Decision.ACCEPT
    if (q < cfg.q_min and dS > 0) or (q > cfg.q_max and dS < 0):
        return Decision.ACCEPT
    return Decision.REJECT_Q_DIRECTION


def report_from_backward(params: SrnParams, trace: ForwardTrace,
                         back: bptt_mod.BpttResult, candidate_dw_rec: np.ndarray,
                         cfg: RegConfig) -> RegReport:
    """Build the gate report from an already-computed backward pass.

    ``candidate_dw_rec`` is the dW that dS is taken along; the trainer
    passes the w_rec of the step it applies on acceptance.  Everything else
    is read from ``back``; ``trace`` names the forward it came from."""
    h = cfg.h
    if back.deltas.shape[1] != h + 1:
        raise DimensionError(
            f"backward result carries {back.deltas.shape[1] - 1} depths, need h={h}")
    g = back.deltas[:, h, :].mean(axis=0)
    dg = compute_dg(params, back, candidate_dw_rec).mean(axis=0)
    S = 0.5 * float(g @ g)
    dS = float(g @ dg)
    q = q_factor(float(back.delta_norms[:, 0].mean()),
                 float(back.delta_norms[:, h].mean()))
    return RegReport(dS=dS, S=S, q=q, decision=gate(dS, q, cfg, S))
