"""Command-line entry point: dataset generation, training, scans, evaluation.

Exit codes: 0 success, 1 usage error, 2 input/config error, 3 numerical
failure.  ``train`` runs every seed even when one fails numerically, keeps
the failed seed's partial records, and then exits 3.  Every command is
reproducible bit-for-bit given the same seed; run directories are named by
timestamp and seed (override with --run-name) so sweeps never overwrite
each other.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import diagnostics, model, tasks, trainer
from .config import RunConfig, load_config_file
from .errors import ConfigError, NumericalError, SrnError

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--task", choices=sorted(k.value for k in tasks.TaskKind))
    p.add_argument("--T", type=int, help="sequence length")
    p.add_argument("--seed", type=int, help="single seed")
    p.add_argument("--out", help="output directory")


def _add_model_flags(p):
    p.add_argument("--hidden", type=int, help="hidden units")
    p.add_argument("--sigma", type=float, help="init scale")
    p.add_argument("--h", type=int, help="BPTT horizon")


def _add_data_flags(p):
    p.add_argument("--train-size", type=int, dest="train_size")
    p.add_argument("--valid-size", type=int, dest="valid_size")
    p.add_argument("--test-size", type=int, dest="test_size")
    p.add_argument("--tolerance", type=float, help="regression success tolerance")


def build_parser() -> _Parser:
    parser = _Parser(prog="srngate",
                     description="train recurrent nets with gradient-norm-gated "
                                 "minibatch selection")
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("gen", help="generate train/valid/test dataset files")
    _add_common(gen)
    _add_data_flags(gen)

    train = sub.add_parser("train", help="run the training protocol")
    _add_common(train)
    _add_model_flags(train)
    train.add_argument("--alpha", type=float, help="learning rate")
    train.add_argument("--mu", type=float, help="momentum")
    train.add_argument("--batch", type=int, help="minibatch size")
    train.add_argument("--epochs", type=int)
    train.add_argument("--iters", type=int, help="accepted corrections per epoch")
    train.add_argument("--reg", choices=["on", "off"], help="minibatch gate")
    train.add_argument("--qmin", type=float)
    train.add_argument("--qmax", type=float)
    train.add_argument("--r0", type=float)
    train.add_argument("--r0-absolute", action="store_true", default=None,
                       dest="r0_absolute")
    train.add_argument("--seeds", help="comma-separated seed list")
    _add_data_flags(train)
    train.add_argument("--data", help="directory of dataset files from 'gen'")
    train.add_argument("--run-name", help="run directory prefix instead of a timestamp")
    train.add_argument("--record-dynamics", action="store_true", default=None,
                       dest="record_dynamics")

    scan = sub.add_parser("scan", help="depth profiles of a fresh network")
    _add_common(scan)
    _add_model_flags(scan)
    scan.add_argument("--sigmas", help="comma-separated init scales to sweep")
    scan.add_argument("--probes", type=int, help="probe sequences per scan")

    ev = sub.add_parser("eval", help="accuracy of a saved model on a dataset file")
    ev.add_argument("--model", required=True, help="model file")
    ev.add_argument("--data", required=True, help="dataset file")
    ev.add_argument("--out", help="JSON summary path (default: stdout only)")
    return parser


def _parse_list(text: str, kind, name: str) -> list:
    """A comma-separated flag value as a list of ``kind``."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {text!r}") from e


def _config_from_args(args) -> RunConfig:
    """Defaults < config file < flags; a flag left at None was not given."""
    values = load_config_file(args.config) if args.config is not None else {}
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if flags["seeds"] is not None:
        if args.seed is not None:
            raise ConfigError("--seed and --seeds: give one or the other")
        flags["seeds"] = _parse_list(flags["seeds"], int, "seeds")
    elif args.seed is not None:
        flags["seeds"] = (args.seed,)
    values.update({key: value for key, value in flags.items() if value is not None})
    cfg = RunConfig(**values)
    # only train has --seeds; gen and scan run once, from one seed
    if len(cfg.seeds) > 1 and not hasattr(args, "seeds"):
        raise ConfigError(f"seeds: {args.command} takes one seed, got {list(cfg.seeds)}")
    return cfg


def _split_path(out_dir: Path, cfg, name: str) -> Path:
    return out_dir / f"{cfg.task}_T{cfg.T}_{name}.dat"


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = tasks.make_splits(cfg.task_spec(), cfg.seeds[0],
                               (cfg.train_size, cfg.valid_size, cfg.test_size))
    for name, batch in splits.items():
        path = _split_path(out_dir, cfg, name)
        tasks.save_batch(path, batch, seed=cfg.seeds[0])
        print(f"wrote {path} ({batch.n} sequences)")
    return 0


def _load_splits(data_dir: Path, cfg) -> dict:
    splits = {}
    for name in ("train", "valid", "test"):
        path = _split_path(data_dir, cfg, name)
        if not path.exists():
            raise ConfigError(f"dataset file {path} not found; run 'gen' first")
        splits[name] = tasks.load_batch(path)
        if splits[name].spec != cfg.task_spec():
            raise ConfigError(f"{path} holds {splits[name].spec}; the config "
                              f"asks for {cfg.task_spec()}")
    return splits


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    if args.run_name == "":
        raise ConfigError("--run-name: must not be empty")
    data = _load_splits(Path(args.data), cfg) if args.data is not None else None
    if cfg.epochs:  # a run of no epochs draws no minibatch
        trainer.check_epoch_pool(cfg, data["train"].n if data else cfg.train_size)
    out_root = Path(cfg.out)
    prefix = time.strftime("%Y%m%d-%H%M%S") if args.run_name is None else args.run_name
    run_dirs = {seed: out_root / f"{prefix}_seed{seed}" for seed in cfg.seeds}
    summary_path = out_root / f"{prefix}_summary.json"
    # every output path is checked before the first seed trains
    for path in (*run_dirs.values(), summary_path):
        if path.exists():
            raise ConfigError(f"{path} already exists; outputs are append-only")
    out_root.mkdir(parents=True, exist_ok=True)

    results, failed = {}, []
    for seed, run_dir in run_dirs.items():
        run_dir.mkdir(parents=True)
        recorder = diagnostics.DynamicsRecorder() if cfg.record_dynamics else None
        state = error = None  # state stays None if the run fails while starting
        try:
            # one BLAS thread, so that outputs do not depend on the thread count
            with model._blas_threads(1):
                state, splits = trainer.start_run(cfg, seed, data)
                test_accuracy = trainer.train(state, splits, cfg, hook=recorder, log=print)
        except NumericalError as e:
            error = e
        # a failed seed keeps the rows and dynamics drawn before its failure
        trainer.write_metrics_csv(run_dir / "metrics.csv", state.rows if state else [])
        if recorder is not None:
            recorder.write(run_dir / "dynamics.csv")
        if error is not None:
            _write_json(run_dir / "failure.json", {
                "seed": seed, "epoch": state.epoch if state else 0,
                "iteration": state.iteration if state else 0, "message": str(error)})
            print(f"numerical failure: seed {seed}: {error} -> {run_dir}", file=sys.stderr)
            failed.append(seed)
            continue
        model.save_model(run_dir / "model.json", state.best_params, seed=seed)
        results[seed] = {"best_valid_accuracy": state.best_valid_accuracy,
                         "test_accuracy": test_accuracy,
                         "corrections": state.corrections,
                         "starvation_events": state.starvation_events}
        print(f"seed {seed}: best valid {state.best_valid_accuracy:.4f}, "
              f"test {test_accuracy:.4f} -> {run_dir}")

    tests = [results[s]["test_accuracy"] for s in results]
    summary = {
        "task": cfg.task, "T": cfg.T, "reg": cfg.reg,
        "seeds": list(cfg.seeds),
        "per_seed": {str(s): results[s] for s in results},
        "test_accuracy_best": max(tests) if tests else None,
        "test_accuracy_mean": sum(tests) / len(tests) if tests else None,
    }
    if failed:
        summary["failed_seeds"] = failed
    _write_json(summary_path, summary)
    if failed:
        print(f"{cfg.task} T={cfg.T} reg={cfg.reg}: {len(results)} of "
              f"{len(cfg.seeds)} seeds finished, failed seeds {failed} -> {summary_path}")
        return EXIT_NUMERICAL
    print(f"{cfg.task} T={cfg.T} reg={cfg.reg}: "
          f"best {summary['test_accuracy_best']:.4f}, "
          f"mean {summary['test_accuracy_mean']:.4f} -> {summary_path}")
    return 0


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    sigmas = (_parse_list(args.sigmas, float, "sigmas")
              if args.sigmas is not None else [cfg.sigma])
    files = {}  # profile file name -> sigma
    for sigma in sigmas:  # RunConfig checks each one as it checks --sigma
        replace(cfg, sigma=sigma)
        name = f"depth_profile_sigma{sigma:g}.csv"
        if name in files:
            raise ConfigError(f"sigmas: {files[name]!r} and {sigma!r} both write {name}")
        files[name] = sigma
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = cfg.task_spec()
    probes = tasks.generate(spec, cfg.probes, seed=cfg.seeds[0])
    for name, sigma in files.items():
        params = model.init_gaussian(spec.n_in, cfg.hidden, spec.n_out, sigma,
                                     seed=cfg.seeds[0],
                                     output_activation=spec.output_activation)
        profile = diagnostics.depth_scan(params, probes, cfg.h)
        path = out_dir / name
        diagnostics.write_profile_csv(path, profile)
        corr = diagnostics.correlation_check(profile)
        print(f"sigma={sigma:g}: depth 0 norm {profile.delta_norm[0]:.3e}, "
              f"depth {cfg.h} norm {profile.delta_norm[-1]:.3e}, "
              f"delta/weight-gradient correlation {corr:.3f} -> {path}")
    return 0


def cmd_eval(args) -> int:
    # a summary that open() could not write fails here with open()'s error, before the
    # scoring: a path made only to ask the OS is removed, and an existing one is left as
    # it is (a dangling symlink's target is made, as open() would make it)
    if args.out is not None:
        try:
            os.close(os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(args.out)
        except FileExistsError:
            os.close(os.open(args.out, os.O_WRONLY | os.O_CREAT))
    params = model.load_model(args.model)
    batch = tasks.load_batch(args.data)
    if batch.spec.n_in != params.n_in:
        raise ConfigError(f"model expects {params.n_in} input channels, "
                          f"dataset has {batch.spec.n_in}")
    if params.n_out != batch.spec.n_out:
        raise ConfigError(f"model has {params.n_out} outputs, {batch.spec.kind.value} "
                          f"needs {batch.spec.n_out}")
    accuracy = trainer.evaluate(params, batch)
    print(f"accuracy {accuracy:.6f} on {batch.n} sequences")
    if args.out is not None:
        summary = {"model": str(args.model), "data": str(args.data),
                   "task": batch.spec.kind.value, "n": batch.n,
                   "accuracy": accuracy}
        _write_json(args.out, summary)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    handlers = {"gen": cmd_gen, "train": cmd_train, "scan": cmd_scan,
                "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SrnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
