"""Run configuration: documented defaults, file loading, flag precedence.

A run is described by one flat key-value document (JSON).  Command-line
flags override file values, which override the defaults below; the CLI
merges the three into one RunConfig.  Every field
is checked when a RunConfig is constructed, before any compute or output,
and an error names the offending field.
"""

import json
import math
from dataclasses import dataclass, fields
from typing import get_args

from .errors import ConfigError
from .regularizer import RegConfig
from .tasks import TaskKind, TaskSpec

TASK_NAMES = {kind.value: kind for kind in TaskKind}


def _finite_as_float(value) -> bool:
    """Whether float(value) is finite; math.isfinite converts an int."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
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
    r0: float = 0.5                # |dS| threshold, relative to S
    seeds: tuple = (0,)            # one run per seed
    out: str = "runs"              # output directory
    train_size: int = 20000        # dataset split sizes
    valid_size: int = 1000
    test_size: int = 10000
    tolerance: float = 0.04        # regression success tolerance
    probes: int = 100              # probe sequences per depth scan
    record_dynamics: bool = False  # also write dynamics.csv per run

    def __post_init__(self):
        self._check_types()
        if self.task not in TASK_NAMES:
            raise ConfigError(
                f"task: unknown task {self.task!r}; choose from "
                f"{sorted(TASK_NAMES)}")
        self.task_spec().validate()  # T and tolerance, before h defaults to T
        if self.h is None:
            object.__setattr__(self, "h", self.T)
        if self.h < 1 or self.h > self.T:
            raise ConfigError(f"h: horizon must lie in [1, T={self.T}], got {self.h}")
        if self.reg not in ("on", "off"):
            raise ConfigError(f"reg: expected 'on' or 'off', got {self.reg!r}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: need distinct non-negative seeds, got {self.seeds}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma: must be positive, got {self.sigma}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha: must be positive, got {self.alpha}")
        if not 0.0 <= self.mu < 1.0:
            raise ConfigError(f"mu: must lie in [0, 1), got {self.mu}")
        if self.epochs < 0:
            raise ConfigError(f"epochs: must be >= 0, got {self.epochs}")
        for name in ("hidden", "batch", "iters", "train_size", "valid_size",
                     "test_size", "probes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        self.reg_config()  # RegConfig checks qmin < qmax and r0 > 0

    def _check_types(self) -> None:
        """Every field against its declared type; seeds become a tuple."""
        if not (isinstance(self.seeds, (list, tuple)) and all(
                isinstance(s, int) and not isinstance(s, bool) for s in self.seeds)):
            raise ConfigError(f"seeds: expected a list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for f in fields(self):
            value = getattr(self, f.name)
            accepted = get_args(f.type) or (f.type,)  # int | None: (int, NoneType)
            if float in accepted:
                accepted += (int,)
            # bool subclasses int, but is no number here
            if (not isinstance(value, accepted)
                    or isinstance(value, bool) and bool not in accepted):
                name = getattr(f.type, "__name__", str(f.type))
                raise ConfigError(f"{f.name}: expected {name}, got {value!r}")
            # nan passes every range check below, as comparisons with it are
            # false; an int in a float field is used as a float, and one too
            # large for a float would first fail inside training
            if float in accepted and not _finite_as_float(value):
                shown = (f"an integer of {value.bit_length()} bits"
                         if isinstance(value, int) else repr(value))
                raise ConfigError(f"{f.name}: must be finite, got {shown}")

    def task_spec(self) -> TaskSpec:
        return TaskSpec(TASK_NAMES[self.task], self.T, self.tolerance)

    def reg_config(self) -> RegConfig:
        return RegConfig(h=self.h, q_min=self.qmin, q_max=self.qmax, r0=self.r0)


def load_config_file(path) -> dict:
    """Read a JSON config document into a plain dict of known keys."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:  # bad JSON, or an int of too many digits
        raise ConfigError(f"config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {sorted(unknown)}")
    return doc

