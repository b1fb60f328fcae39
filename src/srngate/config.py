"""Run configuration: documented defaults, file loading, flag precedence.

A run is described by one flat key-value document (JSON).  Command-line
flags override file values, which override the defaults below; validation
happens before any compute and names the offending field.
"""

import json
from dataclasses import dataclass, fields

from .errors import ConfigError
from .tasks import TaskKind, TaskSpec
from .trainer import TrainConfig

TASK_NAMES = {kind.value: kind for kind in TaskKind}


@dataclass
class RunConfig:
    task: str = "temporal_order"   # one of the four benchmark names
    T: int = 100                   # sequence length
    hidden: int = 100              # hidden units
    sigma: float = 0.01            # init scale (entry std = sigma * sqrt(hidden))
    alpha: float = 3e-4            # learning rate
    mu: float = 0.9                # momentum
    batch: int = 10                # minibatch size
    epochs: int = 2000             # training epochs
    iters: int = 50                # accepted corrections per epoch
    h: int | None = None           # BPTT horizon; defaults to T (full depth)
    reg: str = "on"                # minibatch gate on/off
    qmin: float = -1.0             # safe range lower edge
    qmax: float = 1.0              # safe range upper edge
    r0: float = 0.5                # |dS| threshold (relative to S by default)
    r0_absolute: bool = False      # interpret r0 as an absolute threshold
    seeds: tuple = (0,)            # one run per seed
    out: str = "runs"              # output directory
    train_size: int = 20000        # dataset split sizes
    valid_size: int = 1000
    test_size: int = 10000
    tolerance: float = 0.04        # regression success tolerance
    probes: int = 100              # probe sequences per depth scan
    max_consecutive_rejects: int = 200
    record_dynamics: bool = False  # also write dynamics.csv per run

    def validate(self) -> None:
        if self.task not in TASK_NAMES:
            raise ConfigError(
                f"task: unknown task {self.task!r}; choose from "
                f"{sorted(TASK_NAMES)}")
        if self.T < 1:
            raise ConfigError(f"T: sequence length must be positive, got {self.T}")
        if self.h is None:
            self.h = self.T
        if self.h < 1 or self.h > self.T:
            raise ConfigError(f"h: horizon must lie in [1, T={self.T}], got {self.h}")
        if self.reg not in ("on", "off"):
            raise ConfigError(f"reg: expected 'on' or 'off', got {self.reg!r}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if self.probes < 1:
            raise ConfigError(f"probes: need at least one probe, got {self.probes}")
        for name in ("train_size", "valid_size", "test_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be positive, got {getattr(self, name)}")
        self.task_spec().validate()
        self.train_config(self.seeds[0])  # reuses TrainConfig's own checks

    def task_spec(self) -> TaskSpec:
        return TaskSpec(TASK_NAMES[self.task], self.T, self.tolerance)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            n_hid=self.hidden, sigma=self.sigma, alpha=self.alpha, mu=self.mu,
            batch_size=self.batch, epochs=self.epochs, iters_per_epoch=self.iters,
            h=self.h, reg_enabled=self.reg == "on", q_min=self.qmin,
            q_max=self.qmax, r0=self.r0, r0_absolute=self.r0_absolute,
            seed=seed, max_consecutive_rejects=self.max_consecutive_rejects,
            split_sizes=(self.train_size, self.valid_size, self.test_size))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path) -> dict:
    """Read a JSON config document into a plain dict of known keys."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    unknown = set(doc) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {sorted(unknown)}")
    return doc


def build_config(file_values: dict | None = None, **flag_values) -> RunConfig:
    """Merge defaults < file values < explicit flags into a validated config.

    Flags set to None count as "not given" and fall through to the file
    value or the default.
    """
    merged = {}
    if file_values:
        merged.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    if "seeds" in merged and not isinstance(merged["seeds"], tuple):
        merged["seeds"] = tuple(merged["seeds"])
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg
