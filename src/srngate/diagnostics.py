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

import csv
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .bptt import BpttConfig, backward
from .errors import DimensionError
from .model import SrnParams
from .trainer import format_value

PROFILE_COLUMNS = ["depth", "delta_norm", "gwin_norm", "gwrec_norm"]
DYNAMICS_COLUMNS = ["iter", "delta_norm_d0", "delta_norm_dmid", "delta_norm_dh",
                    "act_mean", "act_median", "decision"]


@dataclass
class DepthProfile:
    depths: np.ndarray      # 0..h
    delta_norm: np.ndarray  # mean ||delta(k-n)|| over probes
    gwin_norm: np.ndarray   # mean per-step input-weight gradient norm; nan if no step
    gwrec_norm: np.ndarray  # mean per-step recurrent-weight gradient norm

    @property
    def h(self) -> int:
        return len(self.depths) - 1


def depth_scan(params: SrnParams, probes, h: int, chunk: int = 256) -> DepthProfile:
    """Average delta and weight-contribution norms per depth over probe data.

    ``probes`` is one SequenceBatch or a list of them; error is injected
    through the task loss exactly as during training.  Depth n corresponds
    to forward step T - n; at n = h = T there is no step left, so the weight
    contributions are recorded as nan.
    """
    if not isinstance(probes, (list, tuple)):
        probes = [probes]
    sums = None
    count = 0
    for batch in probes:
        for start in range(0, batch.n, chunk):
            part = batch.subset(slice(start, start + chunk))
            trace = model_mod.forward_batch(params, part.inputs)
            _, deltas, _ = model_mod.loss_batch(trace, part.targets, part.loss_kind,
                                                part.success_tolerance)
            back = backward(params, trace, deltas, BpttConfig(h=h))
            n_steps = trace.n_steps
            delta_norms = back.delta_norms                      # (N, h+1)
            input_norms = np.sqrt(np.sum(trace.inputs ** 2, axis=2))  # (N, T)
            state_norms = np.sqrt(np.sum(trace.z ** 2, axis=2))       # (N, T)
            z0_norms = np.sqrt(np.sum(trace.z0 ** 2, axis=1))

            gwin = np.full_like(delta_norms, np.nan)
            gwrec = np.full_like(delta_norms, np.nan)
            for n in range(h + 1):
                step = n_steps - n  # 1-based
                if step < 1:
                    continue
                # rank-one contribution: ||outer(u, d)||_F = ||u|| * ||d||
                gwin[:, n] = input_norms[:, step - 1] * delta_norms[:, n]
                prev = state_norms[:, step - 2] if step >= 2 else z0_norms
                gwrec[:, n] = prev * delta_norms[:, n]
            part_sums = np.stack([delta_norms.sum(axis=0), gwin.sum(axis=0),
                                  gwrec.sum(axis=0)])
            sums = part_sums if sums is None else sums + part_sums
            count += part.n
    if count == 0:
        raise DimensionError("depth_scan needs at least one probe sequence")
    means = sums / count
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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(PROFILE_COLUMNS)
        for i in range(len(profile.depths)):
            writer.writerow([
                int(profile.depths[i]),
                format_value(float(profile.delta_norm[i])),
                format_value(None if np.isnan(profile.gwin_norm[i])
                             else float(profile.gwin_norm[i])),
                format_value(None if np.isnan(profile.gwrec_norm[i])
                             else float(profile.gwrec_norm[i])),
            ])


def read_profile_csv(path) -> DepthProfile:
    depths, dn, gi, gr = [], [], [], []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            depths.append(int(row["depth"]))
            dn.append(float(row["delta_norm"]))
            gi.append(float(row["gwin_norm"]) if row["gwin_norm"] else np.nan)
            gr.append(float(row["gwrec_norm"]) if row["gwrec_norm"] else np.nan)
    return DepthProfile(np.array(depths), np.array(dn), np.array(gi), np.array(gr))


class DynamicsRecorder:
    """Trainer hook capturing the internal-dynamics trace of a run.

    Records, per draw, the batch-mean delta norms at depths 0, h//2 and h
    and the mean / median of |a(k)| over every unit and step of the batch.
    """

    def __init__(self, h: int):
        self.h = h
        self.depths = (0, h // 2, h)
        self.rows = []

    def __call__(self, state, result, trace, back) -> None:
        abs_act = np.abs(trace.a)
        d = back.delta_norms
        self.rows.append({
            "iter": state.iteration,
            "delta_norm_d0": float(d[:, self.depths[0]].mean()),
            "delta_norm_dmid": float(d[:, self.depths[1]].mean()),
            "delta_norm_dh": float(d[:, self.depths[2]].mean()),
            "act_mean": float(abs_act.mean()),
            "act_median": float(np.median(abs_act)),
            "decision": result.report.decision.value if result.report else None,
        })

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(DYNAMICS_COLUMNS)
            for row in self.rows:
                writer.writerow([format_value(row[c]) for c in DYNAMICS_COLUMNS])


def read_dynamics_csv(path) -> list:
    out = []
    with open(path, newline="") as f:
        for raw in csv.DictReader(f):
            row = dict(raw)
            row["iter"] = int(raw["iter"])
            for key in ("delta_norm_d0", "delta_norm_dmid", "delta_norm_dh",
                        "act_mean", "act_median"):
                row[key] = float(raw[key])
            row["decision"] = raw["decision"] or None
            out.append(row)
    return out
