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
bit-identical batch.  Each batch is built in place, block by block: its
inputs array is allocated once, and the per-step draws (values or
distractors) are made and written into it one block of rows at a time, so a
split needs its returned arrays plus one block of rows.  The block size never
changes the bytes: the blocks take the draws from the stream in the order
that one whole-batch draw would.  Split generation derives independent child
seeds with numpy's SeedSequence spawning, so train / validation / test never
share a stream.
"""

import json
import math
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

# Rows per generation block.  Even, because Generator.integers draws a small
# range two values to each 64-bit word and drops the unused half at the end
# of a call: an even block of rows spends whole words for any T, so the
# blocks read the stream exactly as one whole-batch call does.
GEN_BLOCK_ROWS = 1024


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
        # T >= 10 is exactly the condition under which every task's windows
        # lie in [1, T], ordered and disjoint; the tests check the table
        if self.T < 10:
            raise ConfigError(f"T: {self.kind.value} needs T >= 10 for its windows "
                              f"to fit in [1, T] without overlap, got {self.T}")
        if not 0 < self.success_tolerance < math.inf:
            raise ConfigError(f"success tolerance must be positive and finite, "
                              f"got {self.success_tolerance}")

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


def _row_blocks(n: int):
    """Consecutive row slices of at most GEN_BLOCK_ROWS rows covering n."""
    return (slice(start, min(start + GEN_BLOCK_ROWS, n))
            for start in range(0, n, GEN_BLOCK_ROWS))


def _marked_value_data(spec: TaskSpec, n: int, rng) -> tuple:
    """Values and markers; the target is the mean of the two marked values
    for adding (so it stays inside [0, 1]) and their product otherwise."""
    # one (n, T, 2) allocation: the values are drawn into one block buffer
    # and copied into channel 0, the markers written into channel 1; the
    # draws keep the order values (row by row), m1, m2, which fixes the
    # batch.  random() is uniform(0, 1) bit for bit and can fill a buffer
    inputs = np.zeros((n, spec.T, 2))
    values, markers = inputs[:, :, 0], inputs[:, :, 1]
    drawn = np.empty((min(n, GEN_BLOCK_ROWS), spec.T))
    for block in _row_blocks(n):
        values[block] = rng.random(out=drawn[:block.stop - block.start])
    del drawn  # not held while the (n,) marker arrays are built
    (lo1, hi1), (lo2, hi2) = spec.windows()
    m1 = rng.integers(lo1, hi1 + 1, size=n)
    m2 = rng.integers(lo2, hi2 + 1, size=n)
    rows = np.arange(n)
    markers[rows, m1 - 1] = 1.0
    markers[rows, m2 - 1] = 1.0
    v1, v2 = values[rows, m1 - 1], values[rows, m2 - 1]
    targets = (v1 + v2) / 2.0 if spec.kind is TaskKind.ADDING else v1 * v2
    return inputs, targets[:, None]


def _temporal_order_data(spec: TaskSpec, n: int, rng) -> tuple:
    """One-hot symbol streams and the class of their ordered specials."""
    # the distractors are drawn and one-hot expanded into the inputs one
    # block of rows at a time; then each window's positions and bits are
    # drawn for all rows and their specials overwrite the distractors there
    inputs = np.empty((n, spec.T, spec.n_in))
    eye = np.eye(spec.n_in)
    for block in _row_blocks(n):
        # every id is in range, so mode="clip" changes nothing; it lets take
        # write straight into out, where "raise" would buffer the block
        np.take(eye, rng.integers(0, N_DISTRACTORS, size=inputs[block].shape[:2]),
                axis=0, out=inputs[block], mode="clip")
    rows = np.arange(n)
    classes = np.zeros(n, dtype=np.int64)
    for lo, hi in spec.windows():
        pos = rng.integers(lo, hi + 1, size=n)
        bit = rng.integers(0, 2, size=n)  # 0 -> X, 1 -> Y
        inputs[rows, pos - 1] = eye[SYMBOL_X + bit]
        classes = classes * 2 + bit
    return inputs, classes


def generate(spec: TaskSpec, n: int, seed) -> SequenceBatch:
    """Generate n sequences for any task spec; the batch carries the spec."""
    spec.validate()
    build = _marked_value_data if spec.regression else _temporal_order_data
    inputs, targets = build(spec, n, np.random.default_rng(seed))
    return SequenceBatch(inputs=inputs, targets=targets, spec=spec)


def make_splits(spec: TaskSpec, seed, sizes: tuple) -> dict:
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
    byte-identical files.  The payload goes out from the arrays' own
    buffers, with no copy; only a non-contiguous or non-``<f8``/``<i8``
    array is converted first.
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
        f.write(np.ascontiguousarray(batch.inputs, dtype="<f8"))
        f.write(np.ascontiguousarray(
            batch.targets, dtype="<f8" if batch.targets.dtype.kind == "f" else "<i8"))


def load_batch(path) -> SequenceBatch:
    """Read a file produced by save_batch.

    The batch's spec comes from the header's task, T and success tolerance.
    Rejects with FormatError a header whose sizes are not JSON integers or
    whose success tolerance is not a JSON number, a file whose loss_kind
    contradicts its task, a file holding no sequences, targets that are not
    float (n, 1) for the regression tasks or integer (n,) for the
    temporal-order tasks, a spec that fails TaskSpec.validate, an n_in other
    than the task's, non-finite inputs or targets and, for the temporal-order
    tasks, class ids outside [0, 2**specials).
    """
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n")
        if magic != DATA_MAGIC:
            raise FormatError(f"not a dataset file (bad magic {magic!r})")
        try:
            header = json.loads(f.readline().decode("utf-8"))
            n, T, n_in = header["n"], header["T"], header["n_in"]
            t_shape = tuple(header["targets_shape"])
            # JSON integers only: int() would truncate 30.5 and parse "20"
            if any(type(size) is not int for size in (n, T, n_in) + t_shape):
                raise ValueError(f"sizes must be JSON integers, got n={n!r}, T={T!r}, "
                                 f"n_in={n_in!r}, targets_shape={list(t_shape)!r}")
            tolerance = header["success_tolerance"]
            # a JSON number only: float() would also parse the string "0.04"
            if type(tolerance) not in (int, float):
                raise ValueError(f"success_tolerance must be a JSON number, "
                                 f"got {tolerance!r}")
            spec = TaskSpec(TaskKind(header["task"]), T, float(tolerance))
            loss = LossKind(header["loss_kind"])
            t_dtype = np.dtype(header["targets_dtype"])
        except (KeyError, ValueError, TypeError, OverflowError) as e:
            raise FormatError(f"malformed dataset header: {e}") from e
        if loss is not spec.loss_kind:
            raise FormatError(f"{spec.kind.value} is scored by "
                              f"{spec.loss_kind.value}, header says {loss.value}")
        if n < 1:
            raise FormatError(f"dataset holds {n} sequences; need at least one")
        if min((T, n_in) + t_shape) < 0:
            raise FormatError(f"malformed dataset header: negative size in "
                              f"T={T}, n_in={n_in}, targets_shape={list(t_shape)}")
        want_shape, want_kinds = ((n, 1), "f") if spec.regression else ((n,), "iu")
        if t_shape != want_shape or t_dtype.kind not in want_kinds:
            raise FormatError(
                f"{spec.kind.value} targets must be "
                f"{'float' if spec.regression else 'integer'} {list(want_shape)}, "
                f"header says {t_dtype} {list(t_shape)}")
        try:
            spec.validate()
        except ConfigError as e:
            raise FormatError(f"dataset header: {e}") from e
        if n_in != spec.n_in:
            raise FormatError(f"{spec.kind.value} has {spec.n_in} input channels, "
                              f"header says n_in={n_in}")
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
    # min and max need no input-sized temporary: a nan propagates through
    # both and an infinity is one of them
    if not (np.isfinite(inputs.min()) and np.isfinite(inputs.max())
            and np.isfinite(targets).all()):
        raise FormatError("dataset holds non-finite inputs or targets")
    if not spec.regression and ((targets < 0) | (targets >= spec.n_out)).any():
        raise FormatError(f"{spec.kind.value} class ids must lie in [0, {spec.n_out})")
    return SequenceBatch(inputs=inputs, targets=targets, spec=spec)
