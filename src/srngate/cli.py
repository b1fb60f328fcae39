"""Command-line entry point: dataset generation, training, scans, evaluation.

Exit codes: 0 success, 1 usage error, 2 input/config error, 3 numerical
failure.  Every command is reproducible bit-for-bit given the same seed; run
directories are named by timestamp and seed (override with --run-name) so
sweeps never overwrite each other.
"""

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import diagnostics, model, tasks, trainer
from .config import RunConfig, build_config, load_config_file
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
    file_values = load_config_file(args.config) if args.config else None
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if flags["seeds"] is not None:
        flags["seeds"] = _parse_list(flags["seeds"], int, "seeds")
    elif getattr(args, "seed", None) is not None:
        flags["seeds"] = (args.seed,)
    return build_config(file_values, **flags)


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
    data = _load_splits(Path(args.data), cfg) if args.data else None
    out_root = Path(cfg.out)
    out_root.mkdir(parents=True, exist_ok=True)
    prefix = args.run_name or time.strftime("%Y%m%d-%H%M%S")

    results = {}
    for seed in cfg.seeds:
        run_dir = out_root / f"{prefix}_seed{seed}"
        if run_dir.exists():
            raise ConfigError(f"run directory {run_dir} already exists; "
                              f"outputs are append-only")
        run_dir.mkdir(parents=True)
        recorder = diagnostics.DynamicsRecorder(cfg.h) if cfg.record_dynamics else None
        state, test_accuracy = trainer.train(cfg, seed, data=data, hook=recorder,
                                             log=print)
        trainer.write_metrics_csv(run_dir / "metrics.csv", state.rows)
        model.save_model(run_dir / "model.json", state.best_params, seed=seed)
        if recorder is not None:
            recorder.write(run_dir / "dynamics.csv")
        results[seed] = {"best_valid_accuracy": state.best_valid_accuracy,
                         "test_accuracy": test_accuracy,
                         "corrections": state.corrections,
                         "starvation_events": state.starvation_events}
        print(f"seed {seed}: best valid {state.best_valid_accuracy:.4f}, "
              f"test {test_accuracy:.4f} -> {run_dir}")

    tests = [results[s]["test_accuracy"] for s in cfg.seeds]
    summary = {
        "task": cfg.task, "T": cfg.T, "reg": cfg.reg,
        "seeds": list(cfg.seeds),
        "per_seed": {str(s): results[s] for s in cfg.seeds},
        "test_accuracy_best": max(tests),
        "test_accuracy_mean": sum(tests) / len(tests),
    }
    summary_path = out_root / f"{prefix}_summary.json"
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{cfg.task} T={cfg.T} reg={cfg.reg}: "
          f"best {summary['test_accuracy_best']:.4f}, "
          f"mean {summary['test_accuracy_mean']:.4f} -> {summary_path}")
    return 0


def cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    sigmas = (_parse_list(args.sigmas, float, "sigmas")
              if args.sigmas else [cfg.sigma])
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = cfg.task_spec()
    probes = tasks.generate(spec, cfg.probes, seed=cfg.seeds[0])
    for sigma in sigmas:
        if sigma <= 0:
            raise ConfigError(f"sigma: must be positive, got {sigma}")
        params = model.init_gaussian(spec.n_in, cfg.hidden, spec.n_out, sigma,
                                     seed=cfg.seeds[0],
                                     output_activation=spec.output_activation)
        profile = diagnostics.depth_scan(params, probes, cfg.h)
        path = out_dir / f"depth_profile_sigma{sigma:g}.csv"
        diagnostics.write_profile_csv(path, profile)
        corr = diagnostics.correlation_check(profile)
        print(f"sigma={sigma:g}: depth 0 norm {profile.delta_norm[0]:.3e}, "
              f"depth {cfg.h} norm {profile.delta_norm[-1]:.3e}, "
              f"delta/weight-gradient correlation {corr:.3f} -> {path}")
    return 0


def cmd_eval(args) -> int:
    params = model.load_model(args.model)
    batch = tasks.load_batch(args.data)
    if batch.inputs.shape[2] != params.n_in:
        raise ConfigError(f"model expects {params.n_in} input channels, "
                          f"dataset has {batch.inputs.shape[2]}")
    if params.n_out != batch.spec.n_out:
        raise ConfigError(f"model has {params.n_out} outputs, {batch.spec.kind.value} "
                          f"needs {batch.spec.n_out}")
    accuracy = trainer.evaluate(params, batch)
    print(f"accuracy {accuracy:.6f} on {batch.n} sequences")
    if args.out:
        summary = {"model": str(args.model), "data": str(args.data),
                   "task": batch.spec.kind.value, "n": batch.n,
                   "accuracy": accuracy}
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
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
