"""SGD-with-momentum training loop with the minibatch gate in the inner loop.

An epoch draws minibatches from a shuffled pool until the configured number
of *accepted* corrections has been applied; rejected batches go back to the
end of the pool and stay eligible (they may be usable later once the
network's gradient flow has moved).  A starvation guard force-accepts the
next draw after too many consecutive rejections, so an epoch always
terminates.  After each epoch the current network is scored on the
validation split and the best snapshot so far is kept; that snapshot is what
gets scored on the test split at the end.

Each draw appends one row to the metrics log: iteration and epoch counters,
batch loss, the gate evidence (dS, S, Q, decision), the top and deep delta
norms, and per-block gradient norms.  Rows are written with full float
precision, so a metrics file is a bit-exact record of the run.
"""

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import tasks as tasks_mod
from .bptt import PARAM_BLOCKS, BpttConfig, Gradients, backward
from .config import RunConfig
from .errors import NumericalError
from .model import SrnParams
from .regularizer import Decision, RegReport, report_from_backward
from .tasks import SequenceBatch

METRICS_COLUMNS = {
    "iter": int, "epoch": int, "loss": float, "dS": float, "S": float,
    "q": float, "decision": str, "applied": bool,
    "delta_norm_top": float, "delta_norm_deep": float,
    "gnorm_w_in": float, "gnorm_w_rec": float, "gnorm_w_out": float,
    "gnorm_b": float,
}


@dataclass
class TrainState:
    params: SrnParams
    velocity: Gradients
    iteration: int = 0
    epoch: int = 0
    best_params: SrnParams | None = None
    best_valid_accuracy: float = -1.0

    @staticmethod
    def fresh(params: SrnParams) -> "TrainState":
        return TrainState(params=params, velocity=Gradients.zeros_like(params))


@dataclass
class IterationResult:
    applied: bool
    loss: float
    report: RegReport | None
    grad_norms: dict
    norm_top: float
    norm_deep: float
    forced: bool = False


@dataclass
class TrainOutcome:
    best_valid_accuracy: float
    test_accuracy: float
    rows: list
    starvation_events: int
    final_params: SrnParams
    best_params: SrnParams
    total_corrections: int


def sgd_step(state: TrainState, grads: Gradients, cfg: RunConfig) -> None:
    """Heavy-ball update: v <- mu*v - alpha*g, w <- w + v.  The applied dw
    is the new state.velocity."""
    for name in PARAM_BLOCKS:
        v = cfg.mu * getattr(state.velocity, name) - cfg.alpha * getattr(grads, name)
        setattr(state.velocity, name, v)
        block = getattr(state.params, name)
        block += v
        if not np.isfinite(block).all():
            raise NumericalError(
                f"non-finite {name} after update at iteration {state.iteration}")


def candidate_update(state: TrainState, grads: Gradients, cfg: RunConfig) -> np.ndarray:
    """The dw_rec that sgd_step would apply right now; mutates nothing."""
    return cfg.mu * state.velocity.w_rec - cfg.alpha * grads.w_rec


def train_iteration(state: TrainState, batch: SequenceBatch, cfg: RunConfig,
                    force_accept: bool = False, hook=None) -> IterationResult:
    """One minibatch draw: forward, backward, gate, maybe apply."""
    state.iteration += 1
    trace = model_mod.forward_batch(state.params, batch.inputs)
    losses, deltas, _ = model_mod.loss_batch(trace, batch.targets, batch.spec.loss_kind,
                                             batch.spec.success_tolerance)
    back = backward(state.params, trace, deltas, BpttConfig(h=cfg.h))
    loss = float(losses.mean())
    norm_top = float(back.delta_norms[:, 0].mean())
    norm_deep = float(back.delta_norms[:, cfg.h].mean())

    report = None
    if cfg.reg == "on":
        dw_rec = candidate_update(state, back.grads, cfg)
        report = report_from_backward(state.params, trace, back, dw_rec,
                                      cfg.reg_config())
        applied = force_accept or report.decision is Decision.ACCEPT
    else:
        applied = True
    if applied:
        sgd_step(state, back.grads, cfg)

    result = IterationResult(applied=applied, loss=loss, report=report,
                             grad_norms=back.grads.block_norms(),
                             norm_top=norm_top, norm_deep=norm_deep,
                             forced=force_accept)
    if hook is not None:
        hook(state, result, trace, back)
    return result


def evaluate(params: SrnParams, batch: SequenceBatch, chunk: int = 512) -> float:
    """Fraction of sequences answered correctly, streamed in chunks."""
    hits = 0
    for start in range(0, batch.n, chunk):
        part = batch.subset(slice(start, start + chunk))
        trace = model_mod.forward_batch(params, part.inputs)
        _, _, correct = model_mod.loss_batch(trace, part.targets, part.spec.loss_kind,
                                             part.spec.success_tolerance)
        hits += int(correct.sum())
    return hits / batch.n


def _iteration_row(state: TrainState, res: IterationResult) -> dict:
    row = {
        "iter": state.iteration,
        "epoch": state.epoch,
        "loss": res.loss,
        "dS": res.report.dS if res.report else None,
        "S": res.report.S if res.report else None,
        "q": res.report.q if res.report else None,
        "decision": res.report.decision.value if res.report else None,
        "applied": res.applied,
        "delta_norm_top": res.norm_top,
        "delta_norm_deep": res.norm_deep,
    }
    for name in PARAM_BLOCKS:
        row[f"gnorm_{name}"] = res.grad_norms[name]
    return row


def train(cfg: RunConfig, seed: int, data: dict | None = None,
          hook=None, log=print) -> TrainOutcome:
    """Run the full protocol and report validation-selected test accuracy.

    ``data`` may carry pre-generated {train, valid, test} splits; otherwise
    they are derived from ``seed``.  ``hook`` (if given) is called after
    every draw with (state, result, trace, backward result).
    """
    spec = cfg.task_spec()
    data_seed, init_seed, shuffle_seed = np.random.SeedSequence(seed).spawn(3)
    if data is None:
        data = tasks_mod.make_splits(spec, data_seed,
                                     (cfg.train_size, cfg.valid_size, cfg.test_size))

    params = model_mod.init_gaussian(
        spec.n_in, cfg.hidden, spec.n_out, cfg.sigma,
        seed=init_seed, output_activation=spec.output_activation)
    state = TrainState.fresh(params)
    state.best_params = params.copy()
    state.best_valid_accuracy = evaluate(params, data["valid"])

    shuffle_rng = np.random.default_rng(shuffle_seed)
    train_set = data["train"]
    n_batches = (train_set.n + cfg.batch - 1) // cfg.batch
    rows = []
    starvation_events = 0
    total_corrections = 0

    for epoch in range(1, cfg.epochs + 1):
        state.epoch = epoch
        order = shuffle_rng.permutation(train_set.n)
        pool = deque(order[i * cfg.batch:(i + 1) * cfg.batch]
                     for i in range(n_batches))
        accepted = 0
        consecutive_rejects = 0
        force_next = False
        while accepted < cfg.iters:
            idx = pool.popleft()
            batch = train_set.subset(idx)
            res = train_iteration(state, batch, cfg, force_accept=force_next,
                                  hook=hook)
            force_next = False
            rows.append(_iteration_row(state, res))
            if res.applied:
                accepted += 1
                total_corrections += 1
                consecutive_rejects = 0
            else:
                pool.append(idx)  # rejected batches stay eligible later
                consecutive_rejects += 1
                if consecutive_rejects >= cfg.max_consecutive_rejects:
                    starvation_events += 1
                    consecutive_rejects = 0
                    force_next = True
                    log(f"warning: epoch {epoch}: {cfg.max_consecutive_rejects} "
                        f"consecutive rejections, force-accepting next batch")
        valid_acc = evaluate(state.params, data["valid"])
        if valid_acc > state.best_valid_accuracy:
            state.best_valid_accuracy = valid_acc
            state.best_params = state.params.copy()

    test_accuracy = evaluate(state.best_params, data["test"])
    return TrainOutcome(best_valid_accuracy=state.best_valid_accuracy,
                        test_accuracy=test_accuracy, rows=rows,
                        starvation_events=starvation_events,
                        final_params=state.params,
                        best_params=state.best_params,
                        total_corrections=total_corrections)


def format_value(value) -> str:
    """Full-precision, round-trippable text for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path, columns: dict, rows) -> None:
    """Write dict rows as CSV: a header of the column names, then one line
    per row in column order, each cell through format_value."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(row[c]) for c in columns])


def write_metrics_csv(path, rows) -> None:
    write_table(path, METRICS_COLUMNS, rows)
