"""Shared oracle helpers used by both the module tests and the acceptance suite.

The product-form oracles here (``compute_g``, ``deep_norm_half_sq``,
``jacobian``) restate the horizon's boundary rule on their own, so that a
wrong step index in the library cannot also hide in its reference.
``forward_reference`` is the plain step-by-step forward pass that the
library's forward must match bit for bit.
"""

from types import SimpleNamespace

import numpy as np

import linalg
from srngate import bptt, model, regularizer as reg
from srngate.errors import DimensionError
from srngate.model import LossKind, OutputActivation, SrnParams


def random_net(rng, n_in, n_hid, n_out, activation, scale=0.6):
    return SrnParams(
        w_in=rng.standard_normal((n_in, n_hid)) * scale,
        w_rec=rng.standard_normal((n_hid, n_hid)) * scale,
        w_out=rng.standard_normal((n_hid, n_out)) * scale,
        b=rng.standard_normal(n_hid) * 0.1,
        output_activation=activation,
    )


def forward_reference(params, inputs, z0=None):
    """Forward pass one step at a time: per step the input projection, the
    recurrence and the bias, in that order, then tanh once more over all
    steps.  Returns a, z, fprime and y."""
    inputs = np.asarray(inputs, dtype=np.float64)
    z_prev = np.broadcast_to(np.zeros(params.n_hid) if z0 is None else z0,
                             (inputs.shape[0], params.n_hid))
    a_steps = []
    for k in range(inputs.shape[1]):
        a_k = inputs[:, k, :] @ params.w_in + z_prev @ params.w_rec + params.b
        z_prev = np.tanh(a_k)
        a_steps.append(a_k)
    a = np.stack(a_steps, axis=1)
    z = np.tanh(a)
    y = z[:, -1, :] @ params.w_out
    if params.output_activation is OutputActivation.SOFTMAX:
        y = model._softmax(y)
    return SimpleNamespace(a=a, z=z, fprime=1.0 - z * z, y=y)


def loss_of(params, seq, target, kind):
    tr = model.forward_batch(params, seq[None])
    losses, _, _ = model.loss_batch(tr, np.asarray(target)[None], kind)
    return float(losses[0])


def compute_g(params, trace, delta_top, h):
    """Deep deltas (N, n_hid) built as the explicit factor product applied to
    delta(k): factor i = 1..h is D(T-i) W, where the diagonal before step 1
    is 1 - z0**2.  h = 0 returns delta(k) itself."""
    T = trace.n_steps
    g = np.array(delta_top, dtype=np.float64)
    for i in range(1, h + 1):
        fp = trace.fprime[:, T - i - 1, :] if i < T else 1.0 - trace.z0 ** 2
        g = fp * (g @ params.w_rec.T)
    return g


def deep_norm_half_sq(params, trace, delta_top, h, w_rec=None):
    """S as a function of an arbitrary recurrent matrix, trace frozen: half
    the squared norm of the batch-mean deep delta."""
    w = params.w_rec if w_rec is None else np.asarray(w_rec, dtype=np.float64)
    probe = SrnParams(params.w_in, w, params.w_out, params.b, params.output_activation)
    g = compute_g(probe, trace, delta_top, h).mean(axis=0)
    return 0.5 * float(g @ g)


def jacobian(params, fprime_n):
    """State-to-state Jacobian J with delta[n] = delta[n-1] @ J: w_rec.T with
    its columns scaled by the tanh derivatives at the target step."""
    return linalg.scale_cols_by(params.w_rec.T, fprime_n)


def delta_norm_profile(result):
    """Pairs (depth, ||delta||) for a backward result over one sequence."""
    if result.deltas.shape[0] != 1:
        raise DimensionError("profile needs a single-sequence result")
    return [(n, float(norm)) for n, norm in enumerate(result.delta_norms[0])]


def evaluate_minibatch(params, batch, cfg, candidate_dw_rec):
    """Forward, backward and gate report over a batch; mutates nothing."""
    trace = model.forward_batch(params, batch.inputs)
    _, deltas, _ = model.loss_batch(trace, batch.targets, batch.loss_kind,
                                    batch.success_tolerance)
    back = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=cfg.h))
    return reg.report_from_backward(params, trace, back, candidate_dw_rec, cfg)


def fd_gradient(params, seq, target, kind, block, eps=1e-6):
    """Central finite differences of the loss over one weight block."""
    base = getattr(params, block)
    grad = np.zeros_like(base)
    flat = base.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_of(params, seq, target, kind)
        flat[i] = orig - eps
        dn = loss_of(params, seq, target, kind)
        flat[i] = orig
        grad.ravel()[i] = (up - dn) / (2 * eps)
    return grad


def random_tiny_case(seed, activation, kind):
    """One random tiny net with a matching sequence and target."""
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(1, 4))
    n_hid = int(rng.integers(2, 6))
    n_out = int(rng.integers(1, 4)) if kind is LossKind.MSE else int(rng.integers(2, 5))
    T = int(rng.integers(2, 9))
    params = random_net(rng, n_in, n_hid, n_out, activation)
    seq = rng.standard_normal((T, n_in))
    if kind is LossKind.MSE:
        target = rng.standard_normal(n_out)
    else:
        target = int(rng.integers(0, n_out))
    return params, seq, target, T


class _Minibatch:
    def __init__(self, inputs, targets, loss_kind, success_tolerance=0.04):
        self.inputs = inputs
        self.targets = targets
        self.loss_kind = loss_kind
        self.success_tolerance = success_tolerance


def theorem1_trial(seed, dw_scale=1e-5):
    """One sign-prediction trial: gate report vs actually applying the update.

    Returns (dS, second_order_estimate, observed_change) where the change is
    measured on the norm of the batch-mean deep delta after a full recompute
    at w_rec + dw.
    """
    rng = np.random.default_rng(seed)
    n_in, n_hid = int(rng.integers(1, 4)), int(rng.integers(3, 8))
    T = int(rng.integers(4, 10))
    h = T
    n_batch = int(rng.integers(2, 8))
    params = model.init_gaussian(n_in, n_hid, 2, sigma=float(rng.uniform(0.02, 0.12)),
                                 seed=seed, output_activation=OutputActivation.LINEAR)
    inputs = rng.standard_normal((n_batch, T, n_in))
    targets = rng.standard_normal((n_batch, 2))
    dw = rng.standard_normal((n_hid, n_hid))
    dw *= dw_scale / np.linalg.norm(dw)

    cfg = reg.RegConfig(h=h, r0=1e18, r0_absolute=True)
    batch = _Minibatch(inputs, targets, LossKind.MSE)
    report = evaluate_minibatch(params, batch, cfg, dw)

    trace = model.forward_batch(params, inputs)
    _, deltas, _ = model.loss_batch(trace, targets, LossKind.MSE)
    back = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=h))
    top = back.deltas[..., 0, :]
    s_mid = deep_norm_half_sq(params, trace, top, h)
    s_up = deep_norm_half_sq(params, trace, top, h, params.w_rec + dw)
    s_dn = deep_norm_half_sq(params, trace, top, h, params.w_rec - dw)
    second_order = abs(s_up + s_dn - 2 * s_mid)

    moved = SrnParams(params.w_in, params.w_rec + dw, params.w_out, params.b,
                      params.output_activation)
    trace2 = model.forward_batch(moved, inputs)
    _, deltas2, _ = model.loss_batch(trace2, targets, LossKind.MSE)
    back2 = bptt.backward(moved, trace2, deltas2, bptt.BpttConfig(h=h))
    new_norm = float(np.linalg.norm(back2.deltas[..., h, :].mean(axis=0)))
    change = new_norm - float(np.sqrt(2 * report.S))
    return report.dS, second_order, change


def theorem1_hit_rate(n_trials, dw_scale=1e-5, seed_base=0):
    """Fraction of kept trials where sign(dS) predicts the norm change."""
    kept = hits = 0
    for seed in range(seed_base, seed_base + n_trials):
        dS, second_order, change = theorem1_trial(seed, dw_scale)
        if abs(dS) > 10 * second_order and change != 0.0:
            kept += 1
            hits += (dS > 0) == (change > 0)
    return hits, kept
