"""Gradient-flow diagnostics: depth profiles and training-time traces.

A depth scan measures, on a fixed probe set, how the backpropagated delta
norm evolves with depth, together with the per-step weight-gradient
contributions at each depth (the Frobenius norms of the rank-one outer
products, which factor into plain vector-norm products).  The scan answers
"is this network vanishing or exploding, and how fast" before any training
happens, and the correlation check quantifies how tightly the weight-update
magnitudes track the delta norms.

The dynamics recorder is a trainer hook that streams per-iteration state:
delta norms at depths 0, h/2 and h, plus the mean and median of the absolute
presynaptic activations of the current batch (a saturation gauge; collapsed
deltas co-occur with large activations).
"""

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .bptt import BpttConfig, backward
from .errors import DimensionError
from .model import SrnParams
from .tasks import SequenceBatch
from .trainer import write_table

PROFILE_COLUMNS = {"depth": int, "delta_norm": float, "gwin_norm": float,
                   "gwrec_norm": float}
DYNAMICS_COLUMNS = {"iter": int, "delta_norm_d0": float, "delta_norm_dmid": float,
                    "delta_norm_dh": float, "act_mean": float, "act_median": float,
                    "decision": str}


@dataclass
class DepthProfile:
    depths: np.ndarray      # 0..h
    delta_norm: np.ndarray  # mean ||delta(k-n)|| over probes
    gwin_norm: np.ndarray   # mean per-step input-weight gradient norm; nan if no step
    gwrec_norm: np.ndarray  # mean per-step recurrent-weight gradient norm


def depth_scan(params: SrnParams, probes: SequenceBatch, h: int,
               chunk: int = 256) -> DepthProfile:
    """Average delta and weight-contribution norms per depth over probe data.

    Error is injected through the task loss exactly as during training.
    Depth n corresponds to forward step T - n; at n = h = T there is no step
    left, so the weight contributions are recorded as nan.
    """
    if probes.n == 0:
        raise DimensionError("depth_scan needs at least one probe sequence")
    sums = None
    for start in range(0, probes.n, chunk):
        part = probes.subset(slice(start, start + chunk))
        trace = model_mod.forward_batch(params, part)
        _, deltas, _ = model_mod.loss_batch(trace, part.targets, part.spec.loss_kind,
                                            part.spec.success_tolerance)
        back = backward(params, trace, deltas, BpttConfig(h=h))
        delta_norms = back.delta_norms                      # (N, h+1)
        input_norms = np.sqrt(np.sum(trace.inputs ** 2, axis=2))  # (N, T)
        state_norms = np.sqrt(np.sum(trace.states ** 2, axis=2))  # (T+1, N), z(0) = 0

        # each depth n < T pairs with inputs[:, T-1-n] and states[T-1-n];
        # rank-one contribution: ||outer(u, d)||_F = ||u|| * ||d||
        stepped = min(h + 1, trace.n_steps)
        gwin = np.full_like(delta_norms, np.nan)
        gwrec = np.full_like(delta_norms, np.nan)
        gwin[:, :stepped] = input_norms[:, ::-1][:, :stepped] * delta_norms[:, :stepped]
        gwrec[:, :stepped] = state_norms[-2::-1][:stepped].T * delta_norms[:, :stepped]
        part_sums = np.stack([delta_norms.sum(axis=0), gwin.sum(axis=0),
                              gwrec.sum(axis=0)])
        sums = part_sums if sums is None else sums + part_sums
    means = sums / probes.n
    return DepthProfile(depths=np.arange(h + 1), delta_norm=means[0],
                        gwin_norm=means[1], gwrec_norm=means[2])


def correlation_check(profile: DepthProfile) -> float:
    """Pearson correlation between the log delta curve and each log
    weight-contribution curve; returns the smaller of the two.

    Depths where any curve is zero or undefined are skipped.  Degenerate
    inputs (fewer than two usable depths, or a constant curve) return nan.
    """
    curves = np.stack([profile.delta_norm, profile.gwin_norm, profile.gwrec_norm])
    usable = np.isfinite(curves).all(axis=0) & (curves > 0).all(axis=0)
    if usable.sum() < 2:
        return float("nan")
    logs = np.log10(curves[:, usable])
    if np.any(np.ptp(logs, axis=1) == 0):
        return float("nan")
    r_in = float(np.corrcoef(logs[0], logs[1])[0, 1])
    r_rec = float(np.corrcoef(logs[0], logs[2])[0, 1])
    return min(r_in, r_rec)


def write_profile_csv(path, profile: DepthProfile) -> None:
    """One row per depth; nan weight contributions are written as empty cells."""
    write_table(path, PROFILE_COLUMNS, (
        {"depth": int(depth), "delta_norm": float(dn),
         "gwin_norm": None if np.isnan(gi) else float(gi),
         "gwrec_norm": None if np.isnan(gr) else float(gr)}
        for depth, dn, gi, gr in zip(profile.depths, profile.delta_norm,
                                     profile.gwin_norm, profile.gwrec_norm)))


def _median_in_place(values: np.ndarray) -> float:
    """np.median of a 1-D float array of finite values, bit for bit, from a
    single in-place partition: the upper middle value sits at n//2 and, for
    an even count, the lower one is the largest value left of it.  The
    values are reordered."""
    mid = values.size // 2
    values.partition(mid)
    if values.size % 2:
        return float(values[mid])
    return float((values[:mid].max() + values[mid]) / 2)


class DynamicsRecorder:
    """Trainer hook capturing the internal-dynamics trace of a run.

    Records, per draw, the batch-mean delta norms at depths 0, h//2 and h of
    the draw's horizon h and the mean / median of |a(k)| over every unit and
    step of the batch.  The depth-0 and depth-h means are the backward's own
    ``delta_norm_top`` and ``delta_norm_deep``, the values metrics.csv logs.
    """

    def __init__(self):
        self.rows = []

    def __call__(self, state, result, trace, back) -> None:
        # a C-ordered |a| keeps the batch-first summation order of the mean;
        # it is this hook's own buffer, so the median may partition it
        abs_act = np.abs(trace.a, out=np.empty(trace.a.shape))
        d = back.delta_norms  # (N, h+1): depths 0..h
        self.rows.append({
            "iter": state.iteration,
            "delta_norm_d0": back.delta_norm_top,
            "delta_norm_dmid": float(d[:, (d.shape[1] - 1) // 2].mean()),
            "delta_norm_dh": back.delta_norm_deep,
            "act_mean": float(abs_act.mean()),
            "act_median": _median_in_place(abs_act.reshape(-1)),
            "decision": result.report.decision.value if result.report else None,
        })

    def write(self, path) -> None:
        write_table(path, DYNAMICS_COLUMNS, self.rows)
