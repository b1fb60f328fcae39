"""Seeded generators for the four synthetic long-range benchmarks.

All four tasks hide the relevant information early in a long input sequence
and ask for a single answer after the final step, so solving them requires
carrying information across most of the sequence:

* adding / multiplication: channel 0 carries i.i.d. uniform [0, 1] values,
  channel 1 marks exactly two positions with 1.0.  The first marker falls in
  steps [1, T//10], the second in (T//10, T//2] (1-based).  The target is the
  mean (respectively product) of the two marked values, predicted by a linear
  output under squared error; a prediction counts as correct when it lands
  within the success tolerance (0.04 by default).

* temporal order (2 or 3 specials): sequences over a 6-symbol alphabet,
  one-hot encoded.  Four symbols are uniform distractor noise; at one random
  position inside each of 2 (or 3) disjoint windows a special symbol X or Y
  appears.  The class is the ordered tuple of specials read as a binary
  number with X=0 and Y=1, giving 4 (or 8) classes under softmax /
  cross-entropy.  Windows sit at [0.1T, 0.2T] and [0.5T, 0.6T], the 3-special
  variant at [0.1T, 0.2T], [0.3T, 0.4T] and [0.6T, 0.7T].

Generation is a pure function of (spec, n, seed): repeating a call gives a
bit-identical batch.  Split generation derives independent child seeds with
numpy's SeedSequence spawning, so train / validation / test never share a
stream.
"""

import json
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, FormatError
from .model import LossKind, OutputActivation

DATA_MAGIC = b"SRNDATA1"

N_DISTRACTORS = 4  # temporal-order alphabet: distractors 0..3, X=4, Y=5
SYMBOL_X = 4
SYMBOL_Y = 5


class TaskKind(Enum):
    ADDING = "adding"
    MULTIPLICATION = "multiplication"
    TEMPORAL_ORDER = "temporal_order"
    TEMPORAL_ORDER_3BIT = "temporal_order_3bit"


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    T: int
    success_tolerance: float = 0.04

    @property
    def regression(self) -> bool:
        return self.kind in (TaskKind.ADDING, TaskKind.MULTIPLICATION)

    @property
    def n_in(self) -> int:
        return 2 if self.regression else N_DISTRACTORS + 2

    @property
    def n_out(self) -> int:
        if self.regression:
            return 1
        return 2 ** self.special_count

    @property
    def special_count(self) -> int:
        if self.kind is TaskKind.TEMPORAL_ORDER:
            return 2
        if self.kind is TaskKind.TEMPORAL_ORDER_3BIT:
            return 3
        return 0

    @property
    def loss_kind(self) -> LossKind:
        return LossKind.MSE if self.regression else LossKind.CROSS_ENTROPY

    @property
    def output_activation(self) -> OutputActivation:
        return OutputActivation.LINEAR if self.regression else OutputActivation.SOFTMAX

    def windows(self) -> list:
        """1-based inclusive [lo, hi] windows holding markers or specials."""
        if self.regression:
            return [(1, self.T // 10), (self.T // 10 + 1, self.T // 2)]
        # windows are tenths of T; integer arithmetic keeps them exact
        tenths = {2: [(1, 2), (5, 6)],
                  3: [(1, 2), (3, 4), (6, 7)]}[self.special_count]
        return [(lo * self.T // 10, hi * self.T // 10) for lo, hi in tenths]

    def validate(self) -> None:
        if self.regression and self.T < 10:
            raise ConfigError(f"{self.kind.value} needs T >= 10, got T={self.T}")
        if self.success_tolerance <= 0:
            raise ConfigError(f"success tolerance must be positive, "
                              f"got {self.success_tolerance}")
        last_hi = 0
        for lo, hi in self.windows():
            if lo < 1 or hi > self.T or lo > hi:
                raise ConfigError(
                    f"{self.kind.value}: window [{lo}, {hi}] does not fit in "
                    f"[1, {self.T}]; increase T")
            if lo <= last_hi:
                raise ConfigError(
                    f"{self.kind.value}: window [{lo}, {hi}] overlaps the "
                    f"previous one ending at {last_hi}")
            last_hi = hi

    def __str__(self) -> str:
        return f"{self.kind.value} T={self.T} tolerance={self.success_tolerance}"


@dataclass
class SequenceBatch:
    inputs: np.ndarray        # (n, T, n_in) float64
    targets: np.ndarray       # (n, n_out) float64 or (n,) int64 class ids
    spec: TaskSpec

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices) -> "SequenceBatch":
        return replace(self, inputs=self.inputs[indices],
                       targets=self.targets[indices])


def _marked_value_data(spec: TaskSpec, n: int, rng) -> tuple:
    """Values and markers; the target is the mean of the two marked values
    for adding (so it stays inside [0, 1]) and their product otherwise."""
    T = spec.T
    values = rng.uniform(0.0, 1.0, size=(n, T))
    (lo1, hi1), (lo2, hi2) = spec.windows()
    m1 = rng.integers(lo1, hi1 + 1, size=n)
    m2 = rng.integers(lo2, hi2 + 1, size=n)
    markers = np.zeros((n, T))
    rows = np.arange(n)
    markers[rows, m1 - 1] = 1.0
    markers[rows, m2 - 1] = 1.0
    v1, v2 = values[rows, m1 - 1], values[rows, m2 - 1]
    targets = (v1 + v2) / 2.0 if spec.kind is TaskKind.ADDING else v1 * v2
    return np.stack([values, markers], axis=2), targets[:, None]


def _temporal_order_data(spec: TaskSpec, n: int, rng) -> tuple:
    """One-hot symbol streams and the class of their ordered specials."""
    symbols = rng.integers(0, N_DISTRACTORS, size=(n, spec.T))
    rows = np.arange(n)
    classes = np.zeros(n, dtype=np.int64)
    for lo, hi in spec.windows():
        pos = rng.integers(lo, hi + 1, size=n)
        bit = rng.integers(0, 2, size=n)  # 0 -> X, 1 -> Y
        symbols[rows, pos - 1] = SYMBOL_X + bit
        classes = classes * 2 + bit
    return np.eye(spec.n_in)[symbols], classes


def generate(spec: TaskSpec, n: int, seed) -> SequenceBatch:
    """Generate n sequences for any task spec; the batch carries the spec."""
    spec.validate()
    build = _marked_value_data if spec.regression else _temporal_order_data
    inputs, targets = build(spec, n, np.random.default_rng(seed))
    return SequenceBatch(inputs=inputs, targets=targets, spec=spec)


def make_splits(spec: TaskSpec, seed,
                sizes: tuple = (20000, 1000, 10000)) -> dict:
    """Disjoint train / validation / test batches from one master seed.

    Child seeds come from SeedSequence(seed).spawn, so the three streams are
    statistically independent and the same master seed always reproduces the
    same splits.  ``seed`` may be an int or an existing SeedSequence.
    """
    names = ("train", "valid", "test")
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise ConfigError(f"sizes must be three positive counts, got {sizes}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(3)
    return {name: generate(spec, size, child)
            for name, size, child in zip(names, sizes, children)}


def save_batch(path, batch: SequenceBatch, seed: int | None = None) -> None:
    """Write a batch as a self-describing flat binary file.

    Layout: magic line, one JSON header line, then the raw little-endian
    C-order array bytes (inputs, then targets).  Identical batches produce
    byte-identical files.
    """
    header = {
        "task": batch.spec.kind.value,
        "T": batch.spec.T,
        "n": batch.n,
        "n_in": batch.inputs.shape[2],
        "seed": seed,
        "loss_kind": batch.spec.loss_kind.value,
        "success_tolerance": batch.spec.success_tolerance,
        "targets_dtype": str(batch.targets.dtype),
        "targets_shape": list(batch.targets.shape),
    }
    with open(path, "wb") as f:
        f.write(DATA_MAGIC + b"\n")
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        f.write(np.ascontiguousarray(batch.inputs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(batch.targets).astype(
            "<f8" if batch.targets.dtype.kind == "f" else "<i8").tobytes())


def load_batch(path) -> SequenceBatch:
    """Read a file produced by save_batch.

    The batch's spec comes from the header's task, T and success tolerance.
    Rejects with FormatError a file whose loss_kind contradicts its task, a
    file holding no sequences, a spec that fails TaskSpec.validate, non-finite
    inputs or targets and, for the temporal-order tasks, class ids outside
    [0, 2**specials).
    """
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n")
        if magic != DATA_MAGIC:
            raise FormatError(f"not a dataset file (bad magic {magic!r})")
        try:
            header = json.loads(f.readline().decode("utf-8"))
            n, T, n_in = int(header["n"]), int(header["T"]), int(header["n_in"])
            spec = TaskSpec(TaskKind(header["task"]), T,
                            float(header["success_tolerance"]))
            loss = LossKind(header["loss_kind"])
            t_shape = tuple(int(d) for d in header["targets_shape"])
            t_dtype = np.dtype(header["targets_dtype"])
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
            raise FormatError(f"malformed dataset header: {e}") from e
        if loss is not spec.loss_kind:
            raise FormatError(f"{spec.kind.value} is scored by "
                              f"{spec.loss_kind.value}, header says {loss.value}")
        if n < 1:
            raise FormatError(f"dataset holds {n} sequences; need at least one")
        if min((T, n_in) + t_shape) < 0:
            raise FormatError(f"malformed dataset header: negative size in "
                              f"T={T}, n_in={n_in}, targets_shape={list(t_shape)}")
        try:
            spec.validate()
        except ConfigError as e:
            raise FormatError(f"dataset header: {e}") from e
        payload_bytes = os.fstat(f.fileno()).st_size - f.tell()
        expected = n * T * n_in * 8 + int(np.prod(t_shape)) * 8
        if payload_bytes != expected:
            raise FormatError(f"dataset payload has {payload_bytes} bytes, "
                              f"expected {expected}")
        # read straight into the arrays that are returned: no intermediate copy
        inputs = np.empty((n, T, n_in), dtype="<f8")
        raw = np.empty(t_shape, dtype="<f8" if t_dtype.kind == "f" else "<i8")
        for block in (inputs, raw):
            if f.readinto(block) != block.nbytes:
                raise FormatError("dataset payload ended early")
    targets = raw.astype(t_dtype, copy=False)
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise FormatError("dataset holds non-finite inputs or targets")
    if not spec.regression and ((targets < 0) | (targets >= spec.n_out)).any():
        raise FormatError(f"{spec.kind.value} class ids must lie in [0, {spec.n_out})")
    return SequenceBatch(inputs=inputs, targets=targets, spec=spec)
