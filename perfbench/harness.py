"""Workloads, measurement and output checks of the srngate benchmark.

One benchmark run writes its inputs with ``srngate gen`` from the given
seed, then runs the workload's command, ``srngate train --data ...`` or
``srngate eval ...``, through ``srngate.cli.main`` in this process, each
time into a fresh output directory.  The command repeats until the next
repeat would end after the time budget; it runs at least twice, so that the
outputs of two runs can be compared byte for byte.  Outputs are checked
after the timed part.

With tracing off the run reports end-to-end figures.  With tracing on it
runs the command once untraced and once traced, whatever the time budget,
and reports per-layer figures from the spans of ``tracer.Tracer``.
README.md defines every metric.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from srngate import bptt, cli, model, regularizer, tasks

import reference
import tracer

HIDDEN = 100
SIGMA = 0.01
BATCH = 10
ALPHA = 3e-4
MU = 0.9
R0 = 0.5
Q_RANGE = (-1.0, 1.0)

TRAIN_SEED = 1       # seed of train and of the scored model; --seed sets the data
SETUP_REPEATS = 5
MIN_REPEATS = 2
GATE_CHECK_DRAWS = 3

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "step_ms_p50": "ms",
              "step_ms_p90": "ms", "pass_s_p50": "s", "peak_rss_mb": "MB"}

SPAN_METRICS = {"calls": "count", "self_s": "s", "ms_p50": "ms", "share": "ratio"}
LAYER_EXTRAS = {"regularizer.accept_ratio": "ratio",
                "regularizer.reject_q_direction": "count",
                "regularizer.reject_large_ds": "count",
                "trainer.forced_accepts": "count",
                "trainer.evaluate.seq_per_s": "1/s",
                "tasks.load_batch.mb": "MB",
                "trace.overhead_s": "s"}

GATE_SPAN = "regularizer.report_from_backward"
SCORING_SPANS = {"cli", "model.forward_batch.eval", "model.loss_batch.eval",
                 "model.save_model", "trainer.evaluate", "tasks.make_splits",
                 "tasks.save_batch", "tasks.load_batch"}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    T: int
    sizes: tuple            # train, valid, test sequences written by gen
    train: bool = True      # False: score the test split with eval
    h: int | None = None
    gate: bool = True
    iters: int = 50         # accepted corrections per epoch
    epochs: int = 1
    dynamics: bool = False

    def active_spans(self) -> set:
        """Span labels that must record calls; every other label must not."""
        if not self.train:
            return set(SCORING_SPANS)
        spans = set(tracer.span_labels())
        if not self.gate:
            spans.discard(GATE_SPAN)
        if not self.dynamics:
            spans -= {s for s in spans if s.startswith("diagnostics.")}
        return spans


# The gated workload trains three epochs so that draws, not the validation
# passes between them, carry most of its time.
WORKLOADS = {w.name: w for w in (
    Workload("gated_order100", "temporal_order", 100, (20000, 1000, 1000),
             h=100, gate=True, iters=50, epochs=3),
    Workload("ungated_add200", "adding", 200, (20000, 1000, 1000),
             h=100, gate=False, iters=200, epochs=2, dynamics=True),
    Workload("score_order10k", "temporal_order", 100, (1, 1, 10000), train=False),
)}


@dataclass
class Repeat:
    out_dir: Path
    code: int
    wall_s: float
    n_draws: int
    step_s: list    # per draw (training) or per scoring chunk
    pass_s: list    # per epoch (training) or per eval command


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "cpu": cpu}


def _call_cli(argv: list, trace: tracer.Tracer | None = None) -> int:
    span = trace.span(tracer.ROOT) if trace else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _split_path(w: Workload, data_dir: Path, split: str) -> Path:
    return data_dir / f"{w.task}_T{w.T}_{split}.dat"


def setup(w: Workload, seed: int, data_dir: Path, trace=None) -> None:
    """Write the workload's splits with gen and, for scoring, a saved model."""
    argv = ["gen", "--task", w.task, "--T", str(w.T), "--seed", str(seed),
            "--out", str(data_dir)]
    for flag, size in zip(("--train-size", "--valid-size", "--test-size"), w.sizes):
        argv += [flag, str(size)]
    code = _call_cli(argv, trace)
    if code != 0:
        raise RuntimeError(f"srngate gen exited with {code}")
    if not w.train:
        spec = tasks.TaskSpec(tasks.TaskKind(w.task), w.T)
        params = model.init_gaussian(spec.n_in, HIDDEN, spec.n_out, SIGMA,
                                     seed=TRAIN_SEED,
                                     output_activation=spec.output_activation)
        model.save_model(data_dir / "model.json", params, seed=TRAIN_SEED)


def command(w: Workload, data_dir: Path, out_dir: Path) -> list:
    if not w.train:
        return ["eval", "--model", str(data_dir / "model.json"),
                "--data", str(_split_path(w, data_dir, "test")),
                "--out", str(out_dir / "eval.json")]
    argv = ["train", "--task", w.task, "--T", str(w.T), "--h", str(w.h),
            "--hidden", str(HIDDEN), "--sigma", str(SIGMA),
            "--alpha", str(ALPHA), "--mu", str(MU), "--batch", str(BATCH),
            "--epochs", str(w.epochs), "--iters", str(w.iters),
            "--reg", "on" if w.gate else "off", "--r0", str(R0),
            "--qmin", str(Q_RANGE[0]), "--qmax", str(Q_RANGE[1]),
            "--seed", str(TRAIN_SEED), "--data", str(data_dir),
            "--out", str(out_dir), "--run-name", "bench"]
    return argv + (["--record-dynamics"] if w.dynamics else [])


def run_command(w: Workload, data_dir: Path, out_dir: Path,
                trace: tracer.Tracer | None = None) -> Repeat:
    """One command of the workload; traced when ``trace`` is given (its
    wrappers must already be installed)."""
    out_dir.mkdir(parents=True)
    argv = command(w, data_dir, out_dir)
    if trace is not None:
        first = len(trace.spans)
        start = time.perf_counter()
        code = _call_cli(argv, trace)
        wall = time.perf_counter() - start
        n_draws = sum(1 for s in trace.spans[first:]
                      if s[0] == "trainer.train_iteration")
        return Repeat(out_dir, code, wall, n_draws, [], [])
    stamps = tracer.Stamps()
    with stamps.installed(chunks=not w.train):
        start = time.perf_counter()
        code = _call_cli(argv)
        wall = time.perf_counter() - start
    if w.train:
        return Repeat(out_dir, code, wall, len(stamps.draws),
                      [end - begin for _, begin, end in stamps.draws],
                      stamps.epoch_intervals())
    return Repeat(out_dir, code, wall, 0, stamps.chunks, [wall])


def measure(w: Workload, data_dir: Path, work: Path, seconds: float) -> list:
    """Repeat the command until the next repeat would end after ``seconds``,
    at least MIN_REPEATS times."""
    reps = []
    begin = time.perf_counter()
    while len(reps) < MIN_REPEATS or \
            (time.perf_counter() - begin) * (len(reps) + 1) / len(reps) <= seconds:
        reps.append(run_command(w, data_dir, work / f"rep{len(reps)}"))
        if reps[-1].code != 0:
            break
    return reps


# ---------------------------------------------------------------- checks

def _sha256(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _output_digests(w: Workload, rep: Repeat) -> list:
    if not w.train:
        files = [rep.out_dir / "eval.json"]
    else:
        run_dir = rep.out_dir / f"bench_seed{TRAIN_SEED}"
        files = [run_dir / "metrics.csv", run_dir / "model.json",
                 rep.out_dir / "bench_summary.json"]
        files += [run_dir / "dynamics.csv"] if w.dynamics else []
    return [_sha256(p) for p in files]


def _check_repeat(w: Workload, rep: Repeat) -> None:
    if rep.code != 0:
        raise reference.CheckError(f"command exited with {rep.code}")
    if w.train:
        path = rep.out_dir / f"bench_seed{TRAIN_SEED}" / "metrics.csv"
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != rep.n_draws:
            raise reference.CheckError(f"{rep.n_draws} draw stamps but "
                                       f"{len(rows)} metrics.csv rows")
        applied = sum(row["applied"] == "1" for row in rows)
        if applied != w.epochs * w.iters:
            raise reference.CheckError(f"{applied} corrections applied, "
                                       f"expected {w.epochs * w.iters}")


def _check_accuracy(w: Workload, data_dir: Path, rep: Repeat) -> None:
    if w.train:
        with open(rep.out_dir / "bench_summary.json") as f:
            reported = json.load(f)["per_seed"][str(TRAIN_SEED)]["test_accuracy"]
        model_path = rep.out_dir / f"bench_seed{TRAIN_SEED}" / "model.json"
    else:
        with open(rep.out_dir / "eval.json") as f:
            reported = json.load(f)["accuracy"]
        model_path = data_dir / "model.json"
    hits, n = reference.count_correct(model_path, _split_path(w, data_dir, "test"))
    if hits / n != reported:
        raise reference.CheckError(f"reported accuracy {reported!r}, "
                                   f"reference forward gives {hits}/{n}")


def _check_gate(w: Workload, data_dir: Path, rep: Repeat) -> None:
    """dS of the first few draws of the train split, under the trained model,
    against a central difference of the product-form S."""
    model_path = rep.out_dir / f"bench_seed{TRAIN_SEED}" / "model.json"
    params = model.load_model(model_path)
    weights = reference.load_weights(model_path)
    inputs, classes, tolerance = reference.load_dataset(
        _split_path(w, data_dir, "train"), limit=GATE_CHECK_DRAWS * BATCH)
    kind = tasks.TaskSpec(tasks.TaskKind(w.task), w.T).loss_kind
    reg = regularizer.RegConfig(h=w.h, q_min=Q_RANGE[0], q_max=Q_RANGE[1], r0=R0)
    for start in range(0, len(inputs), BATCH):
        x, c = inputs[start:start + BATCH], classes[start:start + BATCH]
        trace = model.forward_batch(params, x)
        _, deltas, _ = model.loss_batch(trace, c, kind, tolerance)
        back = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=w.h))
        dw_rec = -ALPHA * back.grads.w_rec
        report = regularizer.report_from_backward(params, trace, back, dw_rec, reg)
        reference.check_ds(weights, x, c, w.h, dw_rec, report.S, report.dS)


def check_outputs(w: Workload, data_dir: Path, reps: list) -> dict:
    """Failure message per command index; commands absent from it passed.

    Every command must write outputs byte-identical to the first one's.
    Accuracy and the gate are checked on the first command.
    """
    failures = {}
    first_digests = None
    for i, rep in enumerate(reps):
        try:
            _check_repeat(w, rep)
            digests = _output_digests(w, rep)
            if first_digests is not None:
                if digests != first_digests:
                    raise reference.CheckError("outputs differ from the first run")
                continue
            first_digests = digests
            _check_accuracy(w, data_dir, rep)
            if w.train and w.gate:
                _check_gate(w, data_dir, rep)
        except reference.CheckError as e:
            failures[i] = str(e)
    return failures


# --------------------------------------------------------------- metrics

def _percentile(values: list, q: float) -> float:
    """0 when a failed command left no samples."""
    return float(np.percentile(values, q)) if values else 0.0


def _step_percentile(reps: list, q: float) -> float:
    """Median over commands of each command's q-th percentile step time, so
    that a burst of load on the machine during one command does not set it."""
    return _percentile([_percentile(r.step_s, q) for r in reps if r.step_s], 50)


def end_to_end_metrics(w: Workload, setup_s: list, reps: list,
                       peak_rss_mb: float) -> dict:
    """name -> (value, sample description)."""
    wall = sum(r.wall_s for r in reps)
    steps = [s for r in reps for s in r.step_s]
    passes = [p for r in reps for p in r.pass_s]
    if w.train:
        work = w.epochs * w.iters * len(reps)
        work_note = (f"corrections_per_s: {work} corrections in {wall:.3f} s "
                     f"of {len(reps)} train commands")
        step, pass_ = "draw", "epoch"
    else:
        work = w.sizes[2] * len(reps)
        work_note = (f"eval_seq_per_s: {work} sequences in {wall:.3f} s "
                     f"of {len(reps)} eval commands")
        step, pass_ = "chunk", "eval"
    return {
        "setup_s": (statistics.median(setup_s), f"median of {len(setup_s)} setups"),
        "work_per_s": (work / wall, work_note),
        "step_ms_p50": (_step_percentile(reps, 50) * 1e3,
                        f"{step}_ms_p50 over {len(steps)} {step}s"),
        "step_ms_p90": (_step_percentile(reps, 90) * 1e3,
                        f"{step}_ms_p90 over {len(steps)} {step}s"),
        "pass_s_p50": (_percentile(passes, 50),
                       f"{pass_}_s_p50 over {len(passes)} {pass_}s"),
        "peak_rss_mb": (peak_rss_mb, "peak resident memory of this process"),
    }


def layer_metrics(trace: tracer.Tracer, traced: Repeat, untraced: Repeat) -> dict:
    """name -> (value, sample description)."""
    out = {}
    for label, stats in trace.summary().items():
        for key in SPAN_METRICS:
            out[f"{label}.{key}"] = (stats[key], f"{stats['calls']} calls")
    gated = sum(trace.decisions.values())
    eval_s = sum(end - start for label, start, end, _ in trace.spans
                 if label == "trainer.evaluate")
    out.update({
        "regularizer.accept_ratio": (
            trace.decisions.get("accept", 0) / gated if gated else 0.0,
            f"{gated} gated draws"),
        "regularizer.reject_q_direction": (
            trace.decisions.get("reject_q_direction", 0), f"{gated} gated draws"),
        "regularizer.reject_large_ds": (
            trace.decisions.get("reject_large_ds", 0), f"{gated} gated draws"),
        "trainer.forced_accepts": (trace.forced_accepts, f"{traced.n_draws} draws"),
        "trainer.evaluate.seq_per_s": (
            trace.seqs_evaluated / eval_s if eval_s else 0.0,
            f"{trace.seqs_evaluated} sequences"),
        "tasks.load_batch.mb": (trace.bytes_loaded / 1e6, "bytes read by load_batch"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s,
                             f"traced {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s"),
    })
    return out


def metric_units(trace: bool) -> dict:
    """name -> unit of every metric a run reports in the given mode."""
    if not trace:
        return dict(END_TO_END)
    units = {f"{label}.{key}": unit for label in tracer.span_labels()
             for key, unit in SPAN_METRICS.items()}
    units.update(LAYER_EXTRAS)
    return units


# ------------------------------------------------------------------- run

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _expectation_failures(w: Workload, trace: tracer.Tracer) -> list:
    """Layers that ran where they should not, or not where they should; and,
    on a gated workload, a largest self share that is not the gate's."""
    active = w.active_spans()
    summary = trace.summary()
    out = []
    for label, stats in summary.items():
        if label in active and stats["calls"] == 0:
            out.append(f"layer {label} recorded no calls on {w.name}")
        elif label not in active and stats["calls"]:
            out.append(f"layer {label} recorded {stats['calls']} calls on "
                       f"{w.name}, where it should not run")
    if w.train and w.gate:
        largest = max(summary, key=lambda label: summary[label]["self_s"])
        if largest != GATE_SPAN:
            out.append(f"{largest} has the largest self share on {w.name}, "
                       f"not {GATE_SPAN}")
    return out


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        log=print) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    tracer.resolve_all()
    work = root / f"{w.name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    data_dir = work / "data"
    log(json.dumps({"workload": w.name, "gen_seed": seed,
                    ("train_seed" if w.train else "model_seed"): TRAIN_SEED,
                    "trace": int(trace), "machine": machine_facts()}))
    try:
        if trace:
            spans = tracer.Tracer()
            with spans.installed():
                setup(w, seed, data_dir, spans)
            untraced = run_command(w, data_dir, work / "rep0")
            with spans.installed():
                traced = run_command(w, data_dir, work / "rep1", spans)
            reps = [untraced, traced]
            failures = check_outputs(w, data_dir, reps)
            extra = _expectation_failures(w, spans)
            if extra:
                failures[1] = "; ".join(filter(None, [failures.get(1)] + extra))
            values = layer_metrics(spans, traced, untraced)
        else:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                setup(w, seed, data_dir)
                setup_s.append(time.perf_counter() - start)
            reps = measure(w, data_dir, work, seconds)
            peak = _peak_rss_mb()
            failures = check_outputs(w, data_dir, reps)
            values = end_to_end_metrics(w, setup_s, reps, peak)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()

    units = metric_units(trace)
    for name, (value, note) in values.items():
        log(f"{name:46s} {value:>14.6g} {units[name]:6s} {note}")
    for i, message in sorted(failures.items()):
        log(f"FAILED command {i}: {message}")
    log(f"failed_share {len(failures)}/{len(reps)} commands")
    return {"correct": not failures, "attempted": len(reps),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, (value, _) in values.items()}}
