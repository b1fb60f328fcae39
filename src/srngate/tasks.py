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

In memory, a batch holds one uint8 symbol per step: the temporal-order
symbol id (distractors 0-3, X = 4, Y = 5), or the 0/1 marker of adding and
multiplication, whose float64 values sit beside it.  The network reads
float64 inputs, which ``SequenceBatch.dense_inputs`` builds only for the
rows at hand: the (n, T, n_in) inputs of a draw, a probe block or a file
chunk, and, while an evaluation chunk is scored, the (n, n_in) inputs of
one step of it at a time.  The dataset file holds float64 inputs for every
task.

Generation is a pure function of (spec, n, seed): repeating a call gives a
bit-identical batch.  Each batch is built in place: its arrays are allocated
once, the values are drawn straight into theirs, and the int64 distractor
draws are made one block of rows at a time, so a split needs its returned
arrays plus one block of draws.  The block size never changes the bytes: the
blocks take the draws from the stream in the order that one whole-batch draw
would.  Split generation derives independent child seeds with numpy's
SeedSequence spawning, so train / validation / test never share a stream.
"""

import json
import math
import os
import stat
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, FormatError
from .model import LossKind, OutputActivation

DATA_MAGIC = b"SRNDATA1"

# Bytes a dataset header line may take, its newline included; save_batch's
# headers take about 250.  load_batch reads no further to find the newline.
HEADER_MAX_BYTES = 1 << 16

N_DISTRACTORS = 4  # temporal-order alphabet: distractors 0..3, X=4, Y=5
SYMBOL_X = 4
SYMBOL_Y = 5

# row s is the one-hot float64 input of temporal-order symbol s
ONE_HOT = np.eye(N_DISTRACTORS + 2)
ONE_HOT.flags.writeable = False

# Rows per generation block.  Even, because Generator.integers draws a small
# range two values to each 64-bit word and drops the unused half at the end
# of a call: an even block of rows spends whole words for any T, so the
# blocks read the stream exactly as one whole-batch call does.
GEN_BLOCK_ROWS = 1024

# Bytes of float64 inputs per file chunk, for every task: save_batch builds
# and writes, and load_batch reads and decodes, one chunk of rows at a time
# in a reused buffer.  That buffer is nearly all either allocates beside the
# batch; a smaller one takes more write and read calls per file.
IO_CHUNK_BYTES = 1 << 18


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
        return 1 if self.regression else 2 ** len(self.windows())

    @property
    def loss_kind(self) -> LossKind:
        return LossKind.MSE if self.regression else LossKind.CROSS_ENTROPY

    @property
    def output_activation(self) -> OutputActivation:
        return OutputActivation.LINEAR if self.regression else OutputActivation.SOFTMAX

    @property
    def first_special(self) -> int:
        """The least symbol that marks a window: marker 1, or X."""
        return 1 if self.regression else SYMBOL_X

    def windows(self) -> list:
        """1-based inclusive [lo, hi] windows holding markers or specials."""
        if self.regression:
            return [(1, self.T // 10), (self.T // 10 + 1, self.T // 2)]
        # windows are tenths of T; integer arithmetic keeps them exact
        tenths = {TaskKind.TEMPORAL_ORDER: [(1, 2), (5, 6)],
                  TaskKind.TEMPORAL_ORDER_3BIT: [(1, 2), (3, 4), (6, 7)]}[self.kind]
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
    """A task's sequences in memory; ``dense_inputs`` builds their float64 inputs."""

    symbols: np.ndarray        # (n, T) uint8: temporal-order symbol ids, or 0/1 markers
    values: np.ndarray | None  # (n, T) float64 marked values; None for temporal order
    targets: np.ndarray        # (n, 1) float64, or (n,) int64 class ids
    spec: TaskSpec

    @property
    def n(self) -> int:
        return self.symbols.shape[0]

    def dense_inputs(self, rows: slice = slice(None), out=None,
                     step: int | slice = slice(None)) -> np.ndarray:
        """The float64 inputs of a slice of rows: values and markers as
        channels 0 and 1, or one-hot symbols.  They are (rows, T, n_in), or
        (rows, n_in) for one 0-based ``step``, and are written into ``out``
        if given, else into a new array; writes to the result never reach
        the batch."""
        symbols = self.symbols[rows, step]
        if out is None:
            out = np.empty(symbols.shape + (self.spec.n_in,))
        if not self.spec.regression:
            # the symbols lie in [0, n_in) by construction, so clipping
            # changes none; "raise" would buffer a copy of out
            return np.take(ONE_HOT, symbols, axis=0, out=out, mode="clip")
        out[..., 0] = self.values[rows, step]
        out[..., 1] = symbols
        return out

    def subset(self, indices) -> "SequenceBatch":
        """The batch of some rows: a view of this one for a slice, a copy
        for an index array."""
        return replace(self, symbols=self.symbols[indices],
                       values=self.values[indices] if self.spec.regression else None,
                       targets=self.targets[indices])


def _row_blocks(n: int, rows: int = GEN_BLOCK_ROWS):
    """Consecutive row slices of at most ``rows`` rows covering n."""
    return (slice(start, min(start + rows, n)) for start in range(0, n, rows))


def _io_rows(T: int, n_in: int) -> int:
    """Rows per file chunk: as many as fit IO_CHUNK_BYTES as float64, at least one."""
    return max(1, IO_CHUNK_BYTES // (8 * T * n_in))


def _targets_of(spec: TaskSpec, marks: list) -> np.ndarray:
    """The targets of rows whose windows hold ``marks``, one (rows,) array
    per window in order: the mean of the two marked values for adding (so it
    stays inside [0, 1]) and their product for multiplication, or for
    temporal order the class, the X = 0 / Y = 1 bits read as a binary
    number."""
    if spec.regression:
        v1, v2 = marks
        return ((v1 + v2) / 2.0 if spec.kind is TaskKind.ADDING else v1 * v2)[:, None]
    classes = np.zeros(len(marks[0]), dtype=np.int64)
    for bit in marks:
        classes = classes * 2 + bit
    return classes


def _marked_value_data(spec: TaskSpec, n: int, rng) -> tuple:
    """Markers, values and the targets of their two marked values."""
    # the draws keep the order values (row by row), m1, m2, which fixes the
    # batch; random() is uniform(0, 1) bit for bit
    values = rng.random((n, spec.T))
    (lo1, hi1), (lo2, hi2) = spec.windows()
    m1 = rng.integers(lo1, hi1 + 1, size=n)
    m2 = rng.integers(lo2, hi2 + 1, size=n)
    rows = np.arange(n)
    markers = np.zeros((n, spec.T), dtype=np.uint8)
    markers[rows, m1 - 1] = 1
    markers[rows, m2 - 1] = 1
    return markers, values, _targets_of(spec, [values[rows, m1 - 1], values[rows, m2 - 1]])


def _temporal_order_data(spec: TaskSpec, n: int, rng) -> tuple:
    """uint8 symbol streams, no values, and the class of their ordered specials."""
    # the distractors are drawn one block of rows at a time; then each
    # window's positions and bits are drawn for all rows and their specials
    # overwrite the distractors there
    symbols = np.empty((n, spec.T), dtype=np.uint8)
    for block in _row_blocks(n):
        symbols[block] = rng.integers(0, N_DISTRACTORS, size=symbols[block].shape)
    rows = np.arange(n)
    bits = []
    for lo, hi in spec.windows():
        pos = rng.integers(lo, hi + 1, size=n)
        bits.append(rng.integers(0, 2, size=n))  # 0 -> X, 1 -> Y
        symbols[rows, pos - 1] = SYMBOL_X + bits[-1]
    return symbols, None, _targets_of(spec, bits)


def generate(spec: TaskSpec, n: int, seed) -> SequenceBatch:
    """Generate n sequences for any task spec; the batch carries the spec."""
    spec.validate()
    build = _marked_value_data if spec.regression else _temporal_order_data
    symbols, values, targets = build(spec, n, np.random.default_rng(seed))
    return SequenceBatch(symbols=symbols, values=values, targets=targets, spec=spec)


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


def _open_without_truncating(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _header(spec: TaskSpec, n: int, seed) -> dict:
    """The header of a file of n sequences of ``spec``: save_batch writes
    it, and load_batch requires its n_in, loss_kind, targets_dtype and
    targets_shape, which the task, T and n fix."""
    return {"task": spec.kind.value, "T": spec.T, "n": n, "n_in": spec.n_in,
            "seed": seed, "loss_kind": spec.loss_kind.value,
            "success_tolerance": spec.success_tolerance,
            "targets_dtype": "float64" if spec.regression else "int64",
            "targets_shape": [n, 1] if spec.regression else [n]}


def _file_dtype(header: dict) -> np.dtype:
    """The little-endian dtype of the targets in a file with this header."""
    return np.dtype(header["targets_dtype"]).newbyteorder("<")


def save_batch(path, batch: SequenceBatch, seed: int | None = None) -> None:
    """Write a batch as a self-describing flat binary file.

    Layout: magic line, the JSON header line of ``_header``, then the raw
    little-endian C-order array bytes: float64 inputs, then the targets in
    the header's dtype, cast from any dtype of the same kind.  Identical
    batches produce byte-identical files.  ``dense_inputs`` builds the
    inputs in one reused IO_CHUNK_BYTES buffer, a chunk of rows at a time,
    and each is written before the next: no input-sized copy exists.

    An existing regular file is written over in place and then cut to the
    new length, not truncated first: on ext4 freeing and reallocating a
    large file's blocks, and the flush that closing a file truncated to
    zero forces, cost more than the writes.  The magic goes in last, over
    eight zero bytes written first, so a file whose write stopped part-way
    fails load_batch's magic check whatever the old file held.  Any other
    path, such as a device, can be neither cut nor sought: the magic goes
    in first.
    """
    spec = batch.spec
    header = _header(spec, batch.n, seed)
    with open(path, "wb", opener=_open_without_truncating) as f:
        regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
        f.write((bytes(len(DATA_MAGIC)) if regular else DATA_MAGIC) + b"\n")
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        rows = _io_rows(spec.T, spec.n_in)
        buffer = np.empty((min(rows, batch.n), spec.T, spec.n_in), dtype="<f8")
        for block in _row_blocks(batch.n, rows):
            f.write(batch.dense_inputs(block, buffer[:block.stop - block.start]))
        f.write(batch.targets.astype(_file_dtype(header), order="C",
                                     casting="same_kind", copy=False))
        if regular:
            f.truncate()
            f.seek(0)
            f.write(DATA_MAGIC)


def load_batch(path) -> SequenceBatch:
    """Read a file produced by save_batch.

    The batch's spec comes from the header's task, T and success tolerance;
    its targets are float64 (n, 1) for adding and multiplication and int64
    (n,) for temporal order.  The inputs are read in row chunks into one
    reused float64 buffer and decoded into the batch's uint8 symbols and,
    for adding and multiplication, its float64 values, from which
    ``dense_inputs`` gives back the file's inputs exactly.  Rejects with
    FormatError a file whose first line is not the magic (as one whose save
    stopped part-way), a header line longer than HEADER_MAX_BYTES, found
    without reading past it, an n or T that is not a JSON integer, a
    success tolerance that is not a JSON number, no sequences, a spec that
    fails TaskSpec.validate, an n_in, loss_kind, targets_dtype or
    targets_shape other than ``_header``'s for the task, T and n (as JSON
    text: 2.0 is not 2), a payload of another size, inputs that
    ``_read_inputs`` rejects, non-finite targets, class ids outside
    [0, n_out), and then a row that breaks the window or target rule of
    ``_check_rows``.
    """
    with open(path, "rb") as f:
        magic = f.readline(len(DATA_MAGIC) + 1).rstrip(b"\n")
        if magic != DATA_MAGIC:
            raise FormatError(f"not a dataset file (bad magic {magic!r})")
        line = f.readline(HEADER_MAX_BYTES)
        if len(line) == HEADER_MAX_BYTES and not line.endswith(b"\n"):
            raise FormatError(f"dataset header line is longer than {HEADER_MAX_BYTES} "
                              f"bytes; it starts {_prefix(repr(line))}")
        try:
            header = json.loads(line.decode("utf-8"))
            n, T, tolerance = header["n"], header["T"], header["success_tolerance"]
            # the keys that task, T and n fix
            derived = {key: header[key] for key in
                       ("n_in", "loss_kind", "targets_dtype", "targets_shape")}
            # JSON integers only: int() would truncate 30.5 and parse "20"
            if type(n) is not int or type(T) is not int:
                raise ValueError(f"sizes must be JSON integers, got n={n!r}, T={T!r}")
            # a JSON number only: float() would also parse the string "0.04"
            if type(tolerance) not in (int, float):
                raise ValueError(f"success_tolerance must be a JSON number, "
                                 f"got {tolerance!r}")
            spec = TaskSpec(TaskKind(header["task"]), T, float(tolerance))
        except (KeyError, ValueError, TypeError, OverflowError) as e:
            raise FormatError(f"malformed dataset header: {_prefix(str(e))}") from e
        if n < 1:
            raise FormatError(f"dataset holds {n} sequences; need at least one")
        try:
            spec.validate()
        except ConfigError as e:
            raise FormatError(f"dataset header: {e}") from e
        want = _header(spec, n, None)
        for key, value in derived.items():
            got, need = json.dumps(value), json.dumps(want[key])
            if got != need:  # as JSON text, 2.0 is not 2 and true is not 1
                raise FormatError(_prefix(f"{spec.kind.value} {key} must be {need}, "
                                          f"header says {got}"))
        payload_bytes = os.fstat(f.fileno()).st_size - f.tell()
        expected = n * (T * spec.n_in + 1) * 8  # inputs, then one target per row
        if payload_bytes != expected:
            raise FormatError(f"dataset payload has {payload_bytes} bytes, "
                              f"expected {expected}")
        symbols, values = _read_inputs(f, spec, n)
        targets = np.empty(want["targets_shape"], dtype=_file_dtype(want))
        _read_into(f, targets)
    if not np.isfinite(targets).all():
        raise FormatError("dataset holds non-finite targets")
    if not spec.regression and ((targets < 0) | (targets >= spec.n_out)).any():
        raise FormatError(f"{spec.kind.value} class ids must lie in [0, {spec.n_out})")
    _check_rows(spec, symbols, values, targets)
    return SequenceBatch(symbols=symbols, values=values, targets=targets, spec=spec)


TARGET_RULES = {TaskKind.ADDING: "(v1 + v2) / 2.0 of the two marked values",
                TaskKind.MULTIPLICATION: "v1 * v2 of the two marked values",
                TaskKind.TEMPORAL_ORDER: "the ordered X/Y bits of the specials",
                TaskKind.TEMPORAL_ORDER_3BIT: "the ordered X/Y bits of the specials"}


def _check_rows(spec: TaskSpec, symbols: np.ndarray, values, targets: np.ndarray) -> None:
    """Every row must hold exactly one special, marker 1 or an X or Y, in each
    window and none outside them, and its target must be the one its
    specials give, exactly.  Per block of rows, each window's slice must
    hold one special per row and each row as many specials as there are
    windows; the special's marked value or X/Y bit is then read from that
    slice, so no (n, T) temporary is made."""
    windows = spec.windows()
    for block in _row_blocks(len(symbols)):
        specials = symbols[block] >= spec.first_special
        in_window = [specials[:, lo - 1:hi] for lo, hi in windows]
        if not ((specials.sum(axis=1) == len(windows)).all()
                and all((window.sum(axis=1) == 1).all() for window in in_window)):
            raise FormatError(f"{spec.kind.value} inputs must hold exactly one special in "
                              f"each window {windows} (1-based steps) and none outside")
        rows = np.arange(block.stop - block.start)
        marks = []
        for (lo, _), window in zip(windows, in_window):
            at = lo - 1 + np.argmax(window, axis=1)
            marks.append(values[block][rows, at] if spec.regression
                         else symbols[block][rows, at] - SYMBOL_X)
        want = _targets_of(spec, marks)
        wrong = np.flatnonzero(want != targets[block])  # row indices: one target per row
        if wrong.size:
            i = int(wrong[0])
            raise FormatError(f"{spec.kind.value} targets must be {TARGET_RULES[spec.kind]}; "
                              f"sequence {block.start + i} has {targets[block][i].tolist()}, "
                              f"its inputs give {want[i].tolist()}")


def _prefix(text: str, limit: int = 200) -> str:
    """The text cut to ``limit`` characters, for an error message that
    quotes a header: it may hold up to HEADER_MAX_BYTES of a file."""
    return text if len(text) <= limit else text[:limit] + "..."


def _read_into(f, array: np.ndarray) -> None:
    if f.readinto(array) != array.nbytes:
        raise FormatError("dataset payload ended early")


def _zero_or_one(x: np.ndarray) -> bool:
    return np.count_nonzero(x == 1.0) + np.count_nonzero(x == 0.0) == x.size


def _read_inputs(f, spec: TaskSpec, n: int) -> tuple:
    """(n, T) uint8 symbols and, for adding and multiplication, (n, T)
    float64 values, decoded from <f8 rows read in chunks.

    Values must be finite and markers exactly 0.0 or 1.0.  One-hot entries
    must be 0.0 or 1.0; then one matrix product per chunk gives each step's
    count of 1.0s, which must be 1, and the index of its 1.0, both exact
    because the entries are 0/1.
    """
    rows = _io_rows(spec.T, spec.n_in)
    symbols = np.empty((n, spec.T), dtype=np.uint8)
    values = np.empty((n, spec.T)) if spec.regression else None
    buffer = np.empty((min(rows, n), spec.T, spec.n_in), dtype="<f8")
    count_and_index = np.stack((np.ones(spec.n_in), np.arange(spec.n_in)), axis=1)
    for block in _row_blocks(n, rows):
        chunk = buffer[:block.stop - block.start]
        _read_into(f, chunk)
        if spec.regression:
            values[block] = chunk[:, :, 0]
            # min and max need no temporary: a nan propagates through both
            # and an infinity is one of them
            if not (np.isfinite(values[block].min()) and np.isfinite(values[block].max())):
                raise FormatError("dataset holds non-finite inputs")
            if not _zero_or_one(chunk[:, :, 1]):
                raise FormatError(f"{spec.kind.value} markers must be 0.0 or 1.0")
            symbols[block] = chunk[:, :, 1]
        else:
            # the product runs only on 0/1 entries, so no nan or inf reaches it
            steps = chunk @ count_and_index if _zero_or_one(chunk) else None
            if steps is None or not (steps[:, :, 0] == 1.0).all():
                raise FormatError(f"{spec.kind.value} inputs must be one-hot: every entry "
                                  f"0.0 or 1.0 and one 1.0 per step")
            symbols[block] = steps[:, :, 1]
    return symbols, values
