"""Shared oracle helpers for the module tests.

The product-form oracles here (``compute_g``, ``deep_norm_half_sq``,
``jacobian``) restate the horizon's boundary rule on their own, so that a
wrong step index in the library cannot also hide in its reference.
``forward_reference`` is the plain step-by-step forward pass that the
library's forward must match bit for bit, and ``backward_reference`` is the
same for the backward pass.  ``read_table`` and
``read_profile_csv`` parse back the CSV files that the library writes;
``rewrite_header`` and ``rewrite_inputs`` corrupt a dataset file, and
``traced_peak`` measures the memory a call allocates.
"""

import csv
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np

from srngate import bptt, model, regularizer as reg
from srngate.diagnostics import PROFILE_COLUMNS, DepthProfile
from srngate.errors import DimensionError, FormatError
from srngate.model import LossKind, OutputActivation, SrnParams
from srngate.tasks import TaskKind, TaskSpec, generate


OPENBLAS_BUILD = "openblas" in np.show_config(mode="dicts")[
    "Build Dependencies"]["blas"]["name"].lower()


def generate_task(task, T, n, seed):
    """n sequences of the named task at length T, default tolerance."""
    return generate(TaskSpec(TaskKind(task), T), n, seed)


def rewrite_header(path, cut=0, **change):
    """Change keys of a dataset file's JSON header and drop ``cut`` bytes
    from the end of its payload."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    doc = {**json.loads(header), **change}
    path.write_bytes(b"\n".join([magic, json.dumps(doc).encode(),
                                 payload[:len(payload) - cut]]))


def rewrite_inputs(path, changes: dict):
    """Set entries of a dataset file's float64 inputs, each keyed by its
    (row, step, channel) index, and keep the rest of the file."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    doc = json.loads(header)
    shape = (doc["n"], doc["T"], doc["n_in"])
    inputs = np.frombuffer(payload, dtype="<f8", count=int(np.prod(shape))).reshape(shape)
    inputs = inputs.copy()
    for index, value in changes.items():
        inputs[index] = value
    path.write_bytes(b"\n".join([magic, header,
                                 inputs.tobytes() + payload[inputs.nbytes:]]))


def traced_peak(fn):
    """fn's result and the peak of memory that tracemalloc traced while it
    ran, above what was traced when it started; numpy reports its array
    buffers to tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - base


def read_table(path, columns: dict) -> list:
    """Parse a write_table file back into typed rows (exact float round-trip);
    an empty cell reads as None."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(columns):
            raise FormatError(f"{path}: header {reader.fieldnames} does not match "
                              f"columns {list(columns)}")
        return [{key: _parse_cell(text, columns[key]) for key, text in raw.items()}
                for raw in reader]


def _parse_cell(text: str, kind):
    if text == "":
        return None
    return text == "1" if kind is bool else kind(text)


def read_profile_csv(path) -> DepthProfile:
    rows = read_table(path, PROFILE_COLUMNS)
    # the columns come in DepthProfile's field order; empty cells read as nan
    return DepthProfile(*(np.array([np.nan if row[key] is None else row[key]
                                    for row in rows]) for key in PROFILE_COLUMNS))


def random_net(rng, n_in, n_hid, n_out, activation, scale=0.6):
    return SrnParams(
        w_in=rng.standard_normal((n_in, n_hid)) * scale,
        w_rec=rng.standard_normal((n_hid, n_hid)) * scale,
        w_out=rng.standard_normal((n_hid, n_out)) * scale,
        b=rng.standard_normal(n_hid) * 0.1,
        output_activation=activation,
    )


def forward_reference(params, inputs):
    """Forward pass one step at a time from the zero state: per step the
    input projection, the recurrence and the bias, in that order, then tanh
    once more over all steps.  Returns a, z and y."""
    inputs = np.asarray(inputs, dtype=np.float64)
    z_prev = np.zeros((inputs.shape[0], params.n_hid))
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
    return SimpleNamespace(a=a, z=z, y=y)


def diagonal(trace, step):
    """The tanh derivatives 1 - z**2, (N, n_hid), at 1-based forward step
    ``step``, computed from ``trace.z``; step 0 is the zero start, where
    they are 1."""
    if step < 1:
        return np.ones((trace.z.shape[0], trace.z.shape[2]))
    z = trace.z[:, step - 1, :]
    return 1.0 - z * z


def _reference_deltas(params, trace, output_delta, h):
    """(N, h+1, n_hid) deltas and the diagonals that produced them, by
    depth, each kept in a list and stacked batch-first."""
    n_steps = trace.n_steps
    fprime = [diagonal(trace, n_steps - n) for n in range(h + 1)]
    deltas = [(output_delta @ params.w_out.T) * fprime[0]]
    for n in range(1, h + 1):
        deltas.append((deltas[-1] @ params.w_rec.T) * fprime[n])
    return np.stack(deltas, axis=1), np.stack(fprime, axis=1)


def _mean_over_batch(grads, n_seqs):
    for name in bptt.PARAM_BLOCKS:
        setattr(grads, name, getattr(grads, name) / n_seqs)
    return grads


def backward_reference(params, trace, output_delta, h):
    """Backward pass over batch-first arrays.  Each gradient block is one
    contraction over the h·N rows inside the horizon, taken in forward-step
    order (steps T-h+1..T, sequences within a step), from C-ordered copies
    of batch-first slices.  Returns a BpttResult whose arrays are all
    C-ordered."""
    z = np.ascontiguousarray(trace.z)
    n_steps = trace.n_steps
    deltas, fprime = _reference_deltas(params, trace, output_delta, h)

    def step_rows(x):
        # batch-first (N, h, m) in step order -> (h·N, m), one step after another
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(-1, x.shape[2])

    states = np.concatenate([np.zeros_like(z[:, :1]), z], axis=1)  # z(0) = 0..z(T)
    rows = step_rows(deltas[:, h - 1::-1, :])                    # depths h-1..0
    grads = bptt.Gradients(
        w_in=step_rows(trace.inputs[:, n_steps - h:n_steps, :]).T @ rows,
        w_rec=step_rows(states[:, n_steps - h:n_steps, :]).T @ rows,
        w_out=z[:, n_steps - 1, :].T @ output_delta,
        b=rows.sum(axis=0))
    return bptt.BpttResult(deltas=deltas, fprime=fprime,
                           grads=_mean_over_batch(grads, deltas.shape[0]),
                           delta_norms=np.sqrt(np.sum(deltas * deltas, axis=-1)))


def per_step_gradients(params, trace, output_delta, h):
    """The gradients accumulated one step at a time, deepest-last: per depth
    n = 0..h-1 the outer products of that step are added to the running
    sums.  A second oracle in another summation order."""
    z = np.ascontiguousarray(trace.z)
    n_steps = trace.n_steps
    deltas, _ = _reference_deltas(params, trace, output_delta, h)
    grads = bptt.Gradients.zeros_like(params)
    grads.w_out += z[:, n_steps - 1, :].T @ output_delta
    for n in range(h):
        step = n_steps - n
        delta_n = deltas[:, n, :]
        z_prev = z[:, step - 2, :] if step >= 2 else np.zeros_like(z[:, 0])
        grads.w_rec += z_prev.T @ delta_n
        grads.w_in += trace.inputs[:, step - 1, :].T @ delta_n
        grads.b += delta_n.sum(axis=0)
    return _mean_over_batch(grads, deltas.shape[0])


def compute_dg_reference(params, trace, back, dw_rec):
    """regularizer.compute_dg as a walk that allocates a fresh prefix and a
    fresh sum at every position, in the same order of operations."""
    n_steps = trace.n_steps
    h = back.deltas.shape[1] - 1
    prefix = np.eye(params.n_hid) * diagonal(trace, n_steps - h)[:, None, :]
    dg = None
    for i in range(h, 0, -1):
        term = (prefix @ (back.deltas[:, i - 1, :] @ dw_rec.T)[..., None])[..., 0]
        dg = term if dg is None else dg + term
        if i > 1:
            prefix = ((prefix @ params.w_rec)
                      * diagonal(trace, n_steps - i + 1)[:, None, :])
    return dg


def loss_of(params, seq, target, kind):
    tr = model.forward_batch(params, seq[None])
    losses, _, _ = model.loss_batch(tr, np.asarray(target)[None], kind)
    return float(losses[0])


def compute_g(params, trace, delta_top, h):
    """Deep deltas (N, n_hid) built as the explicit factor product applied to
    delta(k): factor i = 1..h is D(T-i) W, where D(0), on the zero start,
    is 1.  h = 0 returns delta(k) itself."""
    T = trace.n_steps
    g = np.array(delta_top, dtype=np.float64)
    for i in range(1, h + 1):
        g = diagonal(trace, T - i) * (g @ params.w_rec.T)
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
    return params.w_rec.T * fprime_n[..., None, :]


def delta_norm_profile(result):
    """Pairs (depth, ||delta||) for a backward result over one sequence."""
    if result.deltas.shape[0] != 1:
        raise DimensionError("profile needs a single-sequence result")
    return [(n, float(norm)) for n, norm in enumerate(result.delta_norms[0])]


def batch_backward(params, inputs, targets, loss_kind, h):
    """Forward and backward over (N, T, n_in) inputs, error injected by the
    given loss."""
    trace = model.forward_batch(params, inputs)
    _, deltas, _ = model.loss_batch(trace, targets, loss_kind)
    return trace, bptt.backward(params, trace, deltas, bptt.BpttConfig(h=h))


def evaluate_minibatch(params, inputs, targets, cfg, candidate_dw_rec):
    """Forward, backward and gate report over inputs scored by squared
    error; mutates nothing."""
    trace, back = batch_backward(params, inputs, targets, LossKind.MSE, cfg.h)
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
    report = evaluate_minibatch(params, inputs, targets, cfg, dw)

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
