"""SGD-with-momentum training loop with the minibatch gate in the inner loop.

A ``TrainState`` owns the run: parameters, velocity, shuffle generator,
counters, best snapshot and metrics rows.  ``start_run`` builds the starting
state, and ``train`` calls ``run_epoch`` on it once per epoch.  Neither
catches a ``NumericalError``: the caller holds the state, so after a failure
its rows are the draws logged before the failing one.

An epoch draws minibatches from a shuffled pool until the configured number
of *accepted* corrections has been applied; rejected batches go back to the
end of the pool and stay eligible (they may be usable later once the
network's gradient flow has moved).  Each draw computes its momentum step
once; the gate judges that step's recurrent block, and an applied draw
applies the same step through ``sgd_step``.  A starvation guard
force-accepts the next draw after too many consecutive rejections, so an
epoch always terminates.  The pool and the guard start afresh every epoch,
so they are locals of ``run_epoch``.  After each epoch the current network
is scored on the validation split and the best snapshot so far is kept;
that snapshot is what gets scored on the test split at the end.

Each draw appends its own row to ``state.rows``: iteration and epoch
counters, batch loss, the gate evidence (dS, S, Q, decision), the top and
deep delta norms, and per-block gradient norms.  Rows are written with full
float precision, so a metrics file is a bit-exact record of the run.
"""

import csv
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from . import tasks as tasks_mod
from .bptt import PARAM_BLOCKS, BpttConfig, Gradients, backward
from .config import RunConfig
from .errors import ConfigError, NumericalError
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
    shuffle_rng: np.random.Generator
    iteration: int = 0
    epoch: int = 0
    corrections: int = 0          # applied updates, forced ones included
    starvation_events: int = 0
    best_params: SrnParams | None = None
    best_valid_accuracy: float = -1.0
    rows: list = field(default_factory=list)  # one METRICS_COLUMNS row per draw

    @staticmethod
    def fresh(params: SrnParams, shuffle_seed=None) -> "TrainState":
        return TrainState(params=params, velocity=Gradients.zeros_like(params),
                          shuffle_rng=np.random.default_rng(shuffle_seed))


@dataclass
class IterationResult:
    applied: bool
    report: RegReport | None
    forced: bool = False


def momentum_step(state: TrainState, grads: Gradients, cfg: RunConfig) -> Gradients:
    """The heavy-ball step v' = mu*v - alpha*g of every block; mutates nothing.
    The gate judges its w_rec, and sgd_step applies it."""
    # an overflow leaves a non-finite block, which sgd_step reports if applied
    with np.errstate(over="ignore", invalid="ignore"):
        return Gradients(*(cfg.mu * getattr(state.velocity, name)
                           - cfg.alpha * getattr(grads, name) for name in PARAM_BLOCKS))


def sgd_step(state: TrainState, step: Gradients) -> None:
    """Apply a momentum_step: it becomes state.velocity, w <- w + step."""
    state.velocity = step
    with np.errstate(over="ignore", invalid="ignore"):
        for name in PARAM_BLOCKS:
            block = getattr(state.params, name)
            block += getattr(step, name)
            if not np.isfinite(block).all():
                raise NumericalError(
                    f"non-finite {name} after update at iteration {state.iteration}")


def train_iteration(state: TrainState, batch: SequenceBatch, cfg: RunConfig,
                    force_accept: bool = False, hook=None) -> IterationResult:
    """One minibatch draw: forward, backward, gate, log a row, maybe apply."""
    state.iteration += 1
    trace = model_mod.forward_batch(state.params, batch)
    losses, deltas, _ = model_mod.loss_batch(trace, batch.targets, batch.spec.loss_kind,
                                             batch.spec.success_tolerance)
    back = backward(state.params, trace, deltas, BpttConfig(h=cfg.h))

    step = momentum_step(state, back.grads, cfg)
    report = None
    if cfg.reg == "on":
        report = report_from_backward(state.params, trace, back, step.w_rec,
                                      cfg.reg_config())
        applied = force_accept or report.decision is Decision.ACCEPT
    else:
        applied = True

    # logged, and shown to the hook, before the update, so a draw whose
    # update fails keeps its rows
    row = {"iter": state.iteration, "epoch": state.epoch, "loss": float(losses.mean()),
           "dS": None, "S": None, "q": None, "decision": None, "applied": applied,
           "delta_norm_top": float(back.delta_norms[:, 0].mean()),
           "delta_norm_deep": float(back.delta_norms[:, cfg.h].mean())}
    if report is not None:
        row.update(dS=report.dS, S=report.S, q=report.q, decision=report.decision.value)
    for name, norm in back.grads.block_norms().items():
        row[f"gnorm_{name}"] = norm
    state.rows.append(row)
    result = IterationResult(applied=applied, report=report, forced=force_accept)
    if hook is not None:
        hook(state, result, trace, back)
    if applied:
        sgd_step(state, step)
        state.corrections += 1
    return result


def evaluate(params: SrnParams, batch: SequenceBatch, chunk: int = 512) -> float:
    """Fraction of sequences answered correctly, streamed in chunks, each a
    ``SequenceBatch`` view of the split, the only input a scoring forward
    takes.  That forward keeps no per-step activations and builds the
    float64 inputs of one step at a time.

    The forward splits each chunk into row blocks, one core each, that
    run at once, the first in the calling thread and the others on a
    thread pool's workers, while ``model._blas_threads``, the one place
    that sets the count, holds OpenBLAS at one thread for the whole
    process; the readout is bit-equal to the unsplit one (see
    ``model.forward_batch``), so the accuracy does not depend on the
    number of cores."""
    hits = 0
    for start in range(0, batch.n, chunk):
        part = batch.subset(slice(start, start + chunk))
        trace = model_mod.forward_batch(params, part, keep_trace=False)
        _, _, correct = model_mod.loss_batch(trace, part.targets, part.spec.loss_kind,
                                             part.spec.success_tolerance)
        hits += int(correct.sum())
    return hits / batch.n


def start_run(cfg: RunConfig, seed: int, data: dict | None = None) -> tuple:
    """The starting state of a run and its {train, valid, test} splits.

    ``SeedSequence(seed).spawn(3)`` gives the data, init and shuffle seeds;
    ``data`` may carry pre-generated splits, otherwise they are derived from
    the data seed.  The initial network is the first best snapshot.
    """
    spec = cfg.task_spec()
    data_seed, init_seed, shuffle_seed = np.random.SeedSequence(seed).spawn(3)
    if data is None:
        data = tasks_mod.make_splits(spec, data_seed,
                                     (cfg.train_size, cfg.valid_size, cfg.test_size))
    params = model_mod.init_gaussian(
        spec.n_in, cfg.hidden, spec.n_out, cfg.sigma,
        seed=init_seed, output_activation=spec.output_activation)
    state = TrainState.fresh(params, shuffle_seed)
    state.best_params = params.copy()
    state.best_valid_accuracy = evaluate(params, data["valid"])
    return state, data


def check_epoch_pool(cfg: RunConfig, n: int) -> None:
    """Raise ConfigError unless an epoch over a train split of ``n``
    sequences can apply cfg.iters corrections: its pool holds ⌈n / batch⌉
    minibatches, and each applied one leaves the pool."""
    batches = -(-n // cfg.batch)
    if cfg.iters > batches:
        raise ConfigError(f"iters: {cfg.iters} corrections per epoch need as many batches, "
                          f"but a train split of {n} sequences in batches of {cfg.batch} "
                          f"has {batches}")


def run_epoch(state: TrainState, data: dict, cfg: RunConfig, hook=None,
              log=print) -> float:
    """One epoch: shuffle, draw until cfg.iters updates are applied, then
    validate and keep the best snapshot.  Returns the validation accuracy.

    ``hook`` (if given) is called for every draw, after its row is logged
    and before its update, with (state, result, trace, backward result).
    """
    train_set = data["train"]
    check_epoch_pool(cfg, train_set.n)
    state.epoch += 1
    order = state.shuffle_rng.permutation(train_set.n)
    pool = deque(order[start:start + cfg.batch]
                 for start in range(0, train_set.n, cfg.batch))
    target = state.corrections + cfg.iters
    rejects = 0  # consecutive; at the limit the next draw is forced, and resets it
    while state.corrections < target:
        idx = pool.popleft()
        res = train_iteration(state, train_set.subset(idx), cfg,
                              force_accept=rejects == cfg.max_consecutive_rejects, hook=hook)
        if res.applied:
            rejects = 0
        else:
            pool.append(idx)  # rejected batches stay eligible later
            rejects += 1
            if rejects == cfg.max_consecutive_rejects:
                state.starvation_events += 1
                log(f"warning: epoch {state.epoch}: {cfg.max_consecutive_rejects} "
                    f"consecutive rejections, force-accepting next batch")
    valid_acc = evaluate(state.params, data["valid"])
    if valid_acc > state.best_valid_accuracy:
        state.best_valid_accuracy = valid_acc
        state.best_params = state.params.copy()
    return valid_acc


def train(state: TrainState, data: dict, cfg: RunConfig, hook=None,
          log=print) -> float:
    """Run cfg.epochs epochs of a run that start_run began; returns the test
    accuracy of the validation-selected best snapshot.  See run_epoch."""
    for _ in range(cfg.epochs):
        run_epoch(state, data, cfg, hook, log)
    return evaluate(state.best_params, data["test"])


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
