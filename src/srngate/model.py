"""Simple recurrent network: parameters, initialization, forward pass, losses.

The network keeps one tanh hidden layer with feedback.  Every computation
runs on a batch of N sequences at once; per step k it computes, in
row-vector convention with one row per sequence,

    a(k) = u(k) @ w_in + z(k-1) @ w_rec + b      (N, n_hid)
    z(k) = tanh(a(k))

and reads out once, after the final step:  y = g(z(T) @ w_out), shape
(N, n_out), with g linear (regression) or softmax (classification).  All
benchmark tasks have a single target per sequence, so no per-step outputs are
produced.  A single sequence is a batch of one: ``seq[None]``.
"""

import contextlib
import ctypes
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericalError

MODEL_FORMAT = "srngate-model-v1"


class OutputActivation(Enum):
    LINEAR = "linear"
    SOFTMAX = "softmax"


class LossKind(Enum):
    MSE = "mse"
    CROSS_ENTROPY = "cross_entropy"


@dataclass
class SrnParams:
    """Trainable weights of the network.  Hidden activation is always tanh."""

    w_in: np.ndarray   # (n_in, n_hid)
    w_rec: np.ndarray  # (n_hid, n_hid)
    w_out: np.ndarray  # (n_hid, n_out)
    b: np.ndarray      # (n_hid,)
    output_activation: OutputActivation = OutputActivation.LINEAR

    def __post_init__(self):
        n_hid = self.w_rec.shape[0]
        if self.w_rec.shape != (n_hid, n_hid):
            raise DimensionError(f"w_rec must be square, got {self.w_rec.shape}")
        if self.w_in.ndim != 2 or self.w_in.shape[1] != n_hid:
            raise DimensionError(f"w_in {self.w_in.shape} does not feed {n_hid} hidden units")
        if self.w_out.ndim != 2 or self.w_out.shape[0] != n_hid:
            raise DimensionError(f"w_out {self.w_out.shape} does not read {n_hid} hidden units")
        if self.b.shape != (n_hid,):
            raise DimensionError(f"b {self.b.shape} does not match {n_hid} hidden units")

    @property
    def n_in(self) -> int:
        return self.w_in.shape[0]

    @property
    def n_hid(self) -> int:
        return self.w_rec.shape[0]

    @property
    def n_out(self) -> int:
        return self.w_out.shape[1]

    def copy(self) -> "SrnParams":
        return SrnParams(
            self.w_in.copy(), self.w_rec.copy(), self.w_out.copy(),
            self.b.copy(), self.output_activation,
        )


@dataclass
class ForwardTrace:
    """What the forward pass saw over a batch of N sequences.

    Every sequence starts from the zero state.  A full trace
    (``forward_batch(..., keep_trace=True)``, the default) is kept for
    backpropagation.  It stores what the forward computed, step-major: the
    presynaptic activations as one (T, N, n_hid) buffer ``steps`` and the
    states as one (T+1, N, n_hid) buffer ``states`` whose block 0 is the
    zero start, so ``states[1:]`` are the states z(1)..z(T).  ``a`` is a
    (N, T, n_hid) transposed view of ``steps``: indexing is batch-first,
    while each per-step slice ``a[:, k, :]`` is one contiguous block, and a
    run of consecutive states is one contiguous (k·N, n_hid) window of
    ``states``.  Code that reduces over a whole array and needs the
    batch-first summation order must take a C-ordered copy first.

    A scoring trace (``keep_trace=False``) carries ``y`` and
    ``output_activation``, which is all ``loss_batch`` reads.  Its
    ``inputs``, ``steps`` and ``states`` are None, and reading ``a`` or
    ``n_steps`` raises RuntimeError."""

    inputs: np.ndarray | None  # (N, T, n_in); None when scoring
    y: np.ndarray        # (N, n_out) readout after the final step
    output_activation: OutputActivation
    steps: np.ndarray | None = None   # (T, N, n_hid) a(k) per step; None when scoring
    states: np.ndarray | None = None  # (T+1, N, n_hid) z(0) = 0..z(T); None when scoring

    def _kept(self, buffer: np.ndarray | None) -> np.ndarray:
        if buffer is None:
            raise RuntimeError(
                "this trace comes from a scoring forward (keep_trace=False), which "
                "keeps no per-step values; run forward_batch with keep_trace=True")
        return buffer

    @property
    def a(self) -> np.ndarray:
        """(N, T, n_hid) presynaptic activations, a view of ``steps``."""
        return self._kept(self.steps).transpose(1, 0, 2)

    @property
    def n_steps(self) -> int:
        return self.a.shape[1]


def init_gaussian(n_in: int, n_hid: int, n_out: int, sigma: float, seed,
                  output_activation: OutputActivation = OutputActivation.LINEAR) -> SrnParams:
    """Draw all weights i.i.d. from a zero-mean Gaussian; biases start at zero.

    ``sigma`` sets the scale relative to the hidden fan: every entry has
    standard deviation sigma * sqrt(n_hid), which puts the spectral radius of
    the recurrent matrix at about sigma * n_hid.  sigma = 1/n_hid therefore
    sits at the edge between vanishing and exploding gradient flow; the
    benchmark experiments use sigma = 0.01 with 100 hidden units for exactly
    that reason, and 0.005 / 0.02 land firmly on the vanishing / exploding
    sides.
    """
    if n_in < 1 or n_hid < 1 or n_out < 1:
        raise ConfigError(f"layer sizes must be positive, got {(n_in, n_hid, n_out)}")
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    std = float(sigma * np.sqrt(n_hid))
    return SrnParams(
        w_in=rng.normal(0.0, std, size=(n_in, n_hid)),
        w_rec=rng.normal(0.0, std, size=(n_hid, n_hid)),
        w_out=rng.normal(0.0, std, size=(n_hid, n_out)),
        b=np.zeros(n_hid),
        output_activation=output_activation,
    )


def _softmax(y_pre: np.ndarray) -> np.ndarray:
    # max subtraction for numerical stability; does not change the result
    shifted = y_pre - np.max(y_pre, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` as found through numpy's
    extension module (numpy 2's, or 1.x's), whose handle also searches the
    libraries it links; None where there is none.  In OpenBLAS it sets the
    count of the whole process, not of the calling thread, and returns the
    count it replaces.  Only ``_blas_threads`` calls it."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            setter = ctypes.CDLL(sys.modules[name].__file__).openblas_set_num_threads_local
        except (KeyError, OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def _blas_threads(count: int):
    """Hold OpenBLAS at ``count`` threads for the whole process, and restore
    the count it replaced however the body ends; the one place that sets
    the count.  Without the setter it holds nothing."""
    _start_blas_threads()
    setter = _blas_thread_setter() or (lambda count: 1)
    previous = setter(count)
    try:
        yield
    finally:
        setter(previous)


@functools.cache
def _start_blas_threads() -> int:
    """The OpenBLAS thread count the process started with, read by setting
    it and putting it back; 1 without the setter.  ``_blas_threads`` asks
    for it before it sets the count, so the first hold reads it and later
    holds do not change it."""
    setter = _blas_thread_setter()
    if setter is None:
        return 1
    count = setter(1)
    setter(count)
    return count


def _concurrency(blas_threads: int) -> int:
    """How many row blocks may run at once: one per BLAS thread, and per
    core this process may run on, if known."""
    return (min(blas_threads, len(os.sched_getaffinity(0)))
            if blas_threads > 1 and hasattr(os, "sched_getaffinity") else 1)


def _row_blocks(n_rows: int, min_rows: int = 1) -> list:
    """Contiguous slices that cover ``n_rows`` rows, one per thread that may
    run at once by the BLAS thread count the process started with (not the
    count held now), each of at least ``min_rows`` rows; one block if the
    rows are too few to split."""
    n_blocks = max(1, min(_concurrency(_start_blas_threads()), n_rows // min_rows))
    edges = [n_rows * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _in_blocks(run, blocks: list) -> list:
    """``run(rows)`` of every block, all at once, block 0 in the calling
    thread and each other block on a worker of a thread pool; returns the
    results in block order.  The pool is shut down, and every worker it
    started has ended, before this returns or an exception leaves; block
    0's exception is raised first, then those of the other blocks in block
    order.  Callers hold ``_blas_threads(1)``, so that each block's
    products run on its own core."""
    if len(blocks) == 1:
        return [run(blocks[0])]
    with ThreadPoolExecutor(len(blocks) - 1) as pool:
        futures = [pool.submit(run, rows) for rows in blocks[1:]]
        return [run(blocks[0])] + [future.result() for future in futures]


# (n_rows, n_in, n_hid, n_blocks) -> what _exact_split measured
_exact_splits = {}


def _exact_split(blocks: list, n_in: int, x, whole, split) -> bool:
    """Whether a step's two products, computed per row block, give bit for
    bit what they give for the whole batch; the caller holds one BLAS
    thread for both.

    BLAS picks its kernel by the operand sizes, and that can change the
    summation order within a row.  With OpenBLAS 0.3.31 on AVX-512, a block
    is not exact where the whole product is past the small-matrix kernel's
    10^6 multiply-adds and the block is not (two blocks of a 101- to
    200-row batch at 100 hidden units), and at 50 hidden units that kernel
    rounds the last two columns of some rows by their place in the batch.
    So each shape is measured once, on fixed-seed data drawn into the
    forward's (n_rows, n_hid) buffers ``x``, ``whole`` and ``split`` before
    its loop uses them.  A differing element differs on about half of the
    draws, and eight draws must all agree."""
    n_rows, n_hid = x.shape
    key = (n_rows, n_in, n_hid, len(blocks))
    if key in _exact_splits:
        return _exact_splits[key]
    rng = np.random.default_rng(0)
    _exact_splits[key] = False
    for _ in range(8):
        for left in (rng.standard_normal((n_rows, n_in)), rng.standard_normal(out=x)):
            right = rng.standard_normal((left.shape[1], n_hid))
            np.matmul(left, right, out=whole)
            for rows in blocks:
                np.matmul(left[rows], right, out=split[rows])
            if not np.array_equal(whole.view(np.uint64), split.view(np.uint64)):
                return False
    _exact_splits[key] = True
    return True


def _in_row_blocks(run, n_in: int, z, a, r) -> int:
    """``run(rows)`` over the row blocks of ``_row_blocks`` that together
    cover the rows of the forward's (n_rows, n_hid) buffers ``z``, ``a``
    and ``r``, run by ``_in_blocks``, and the earliest non-zero result of
    any block (0 if none).

    Each block has at least 2 rows: numpy hands a one-row operand to gemv,
    which rounds differently from gemm.  Blocks are used only for shapes
    where ``_exact_split`` finds them bit-equal to the whole batch; other
    shapes run as one block.  The probe and the blocks, or the one block,
    run inside one ``_blas_threads(1)`` hold, so the readout does not
    depend on the BLAS thread count the caller holds."""
    n_rows = z.shape[0]
    with _blas_threads(1):
        blocks = _row_blocks(n_rows, min_rows=2)
        if len(blocks) > 1 and not _exact_split(blocks, n_in, z, a, r):
            blocks = [slice(0, n_rows)]
        return min((bad for bad in _in_blocks(run, blocks) if bad), default=0)


def _recur(params: SrnParams, n_steps: int, step_inputs, steps, states, r, bias) -> int:
    """Run the recurrence of a batch, or of a block of its rows, through
    every step, in the caller's step-major buffers of those rows; returns
    the 1-based first step whose a(k) is not finite, or 0.

    ``step_inputs(k)`` gives the (rows, n_in) inputs of 0-based step k,
    which are projected into the single block ``steps[0]``, and each a(k) is
    checked as soon as it is computed, before its block is overwritten.
    Without it (a full trace) ``steps`` already holds every step's
    projection, and all steps are checked once, after the loop.  Only numpy
    and the given ``step_inputs`` are called, so a block can run on any
    thread; numpy's error state is per thread, hence set here."""
    z_prev = states[0]
    z_prev.fill(0.0)
    # an overflow leaves a non-finite a(k) or y, which the checks here and in
    # loss_batch report
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if step_inputs is None:
                a_k = steps[k]
            else:
                a_k = np.matmul(step_inputs(k), params.w_in, out=steps[0])
            a_k += np.matmul(z_prev, params.w_rec, out=r)
            a_k += bias
            if step_inputs is not None and not np.isfinite(a_k).all():
                return k + 1
            z_prev = np.tanh(a_k, out=states[k + 1 if step_inputs is None else 0])
        if step_inputs is None:
            finite = np.isfinite(steps).all(axis=(1, 2))
            if not finite.all():
                return int(np.argmin(finite)) + 1
    return 0


def forward_batch(params: SrnParams, inputs, *, keep_trace: bool = True) -> ForwardTrace:
    """Run a batch of N sequences of T steps, each from the zero state.

    A full trace takes ``inputs`` as a (N, T, n_in) array, converted to
    float64 first, or as a ``tasks.SequenceBatch``, which holds one uint8
    symbol per step and builds its float64 inputs once with
    ``dense_inputs``.  Scoring takes only a ``SequenceBatch``, and builds
    the inputs of one step at a time into one reused (N, n_in) block, so a
    scoring trace carries no ``inputs``.

    With ``keep_trace`` (the default) the trace keeps every a(k) and z(k) for
    backpropagation, as written by the step loop.  With ``keep_trace=False``
    each a(k) and z(k) is written into one reused (N, n_hid) block, and the
    scoring trace that comes back carries ``y`` but no per-step values.

    Scoring splits the rows into contiguous blocks of at least 2 rows, as
    many as there are cores and BLAS threads the process started with
    (whichever is fewer), and runs the first block's step loop in the
    calling thread and each other block's on a worker of a thread pool,
    all at once, on their rows of the same buffers (see ``_in_row_blocks``).
    The block count does not follow the count held at the call, so
    scoring inside the CLI, which holds one thread for every command,
    still runs in blocks.  Rows never mix within a step, so a block gives
    its rows' values by the same elementwise operations as the whole
    batch; only the two products could round differently, and blocks are
    used only for shapes where a measured probe (``_exact_split``) finds
    them bit-equal to the whole batch.  The step loop, split or not, runs
    with OpenBLAS held at one thread by ``_blas_threads``, the one place
    that sets the count, so ``y`` is bit-equal in both modes and for any
    number of blocks, and does not depend on the count the caller holds.
    The count is the whole process's, not one thread's, so only the
    calling thread holds it, and it is restored before returning, or
    raising.

    A non-finite a(k) raises NumericalError naming the first bad step over
    all rows: scoring checks each a(k) as soon as it is computed, before its
    block is overwritten, and a full trace checks all of them once, after
    the loop.
    """
    if keep_trace:
        if hasattr(inputs, "dense_inputs"):  # a SequenceBatch; tasks imports this module
            inputs = inputs.dense_inputs()
        inputs = np.asarray(inputs, dtype=np.float64)
        shape = inputs.shape
    else:
        batch, inputs = inputs, None
        shape = batch.symbols.shape + (batch.spec.n_in,)
    if len(shape) != 3 or shape[2] != params.n_in:
        raise DimensionError(f"batch shape {shape} does not match n_in={params.n_in}")

    n_seqs, n_steps = shape[:2]
    # step-major storage: every per-step block steps[k] and states[k] is
    # contiguous, and so is any block of its rows, so the products and tanh
    # write into it directly.  A full trace projects all inputs in one call,
    # which numpy runs as the same product per step; scoring projects one
    # step at a time into its single block, so that no (T, N, n_hid) buffer
    # is made, and builds the inputs of that step into a contiguous block
    # first.
    steps = np.empty((n_steps if keep_trace else 1, n_seqs, params.n_hid))
    states = np.empty((n_steps + 1 if keep_trace else 1, n_seqs, params.n_hid))
    bias = np.broadcast_to(params.b, (n_seqs, params.n_hid)).copy()
    r = np.empty((n_seqs, params.n_hid))
    if keep_trace:
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(inputs.transpose(1, 0, 2), params.w_in, out=steps)
        bad = _recur(params, n_steps, None, steps, states, r, bias)
    else:
        u_k = np.empty((n_seqs, params.n_in))

        def run(rows):
            return _recur(params, n_steps,
                          lambda k: batch.dense_inputs(rows, out=u_k[rows], step=k),
                          steps[:, rows], states[:, rows], r[rows], bias[rows])

        bad = _in_row_blocks(run, params.n_in, states[0], steps[0], r)
    if bad:
        raise NumericalError(f"non-finite activation at step {bad}")
    with np.errstate(over="ignore", invalid="ignore"):
        y = states[-1] @ params.w_out
        if params.output_activation is OutputActivation.SOFTMAX:
            y = _softmax(y)
    return ForwardTrace(inputs=inputs, y=y, output_activation=params.output_activation,
                        steps=steps if keep_trace else None,
                        states=states if keep_trace else None)


def check_loss_pairing(kind: LossKind, activation: OutputActivation) -> None:
    """MSE needs a linear readout, cross-entropy needs softmax."""
    ok = (kind is LossKind.MSE and activation is OutputActivation.LINEAR) or (
        kind is LossKind.CROSS_ENTROPY and activation is OutputActivation.SOFTMAX)
    if not ok:
        raise ConfigError(f"loss {kind.value} cannot pair with {activation.value} output")


def loss_batch(trace: ForwardTrace, targets, kind: LossKind, tolerance: float = 0.04):
    """Loss and its derivative w.r.t. the presynaptic output, per sequence.

    MSE pairs with a linear readout: E = 0.5 * ||y - t||^2, delta = y - t,
    correct when max|y - t| < tolerance.  Cross-entropy pairs with softmax:
    E = -log y[class], delta = y - onehot(class), correct when argmax hits;
    class ids must lie in [0, n_out).

    Returns (losses (N,), output_deltas (N, n_out), correct (N,) bool), or
    raises NumericalError when a loss is not finite.
    """
    check_loss_pairing(kind, trace.output_activation)
    y = trace.y
    if kind is LossKind.MSE:
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != y.shape:
            raise DimensionError(f"targets shape {t.shape} does not match outputs {y.shape}")
        deltas = y - t
        with np.errstate(over="ignore"):  # an overflow is reported below
            losses = 0.5 * np.sum(deltas * deltas, axis=-1)
        correct = np.max(np.abs(deltas), axis=-1) < tolerance
    else:  # CROSS_ENTROPY, the only other kind check_loss_pairing lets through
        cls = np.asarray(targets)
        if cls.shape != y.shape[:-1]:
            raise DimensionError(f"targets shape {cls.shape} does not match batch {y.shape[:-1]}")
        if ((cls < 0) | (cls >= y.shape[1])).any():
            raise ConfigError(f"class ids must lie in [0, {y.shape[1]}), "
                              f"got {cls.min()}..{cls.max()}")
        rows = np.arange(y.shape[0])
        losses = -np.log(np.maximum(y[rows, cls], 1e-300))
        deltas = y.copy()
        deltas[rows, cls] -= 1.0
        correct = np.argmax(y, axis=-1) == cls
    if not np.isfinite(losses).all():
        bad = int(np.argwhere(~np.isfinite(losses))[0][0])
        raise NumericalError(f"non-finite loss for sequence {bad} of the batch")
    return losses, deltas, correct


def serialize(params: SrnParams, seed: int | None = None) -> bytes:
    """Render parameters as a self-describing UTF-8 JSON document.

    Floats are written with full round-trip precision, so
    deserialize(serialize(p)) reproduces every weight bit-exactly.
    """
    doc = {
        "format": MODEL_FORMAT,
        "n_in": params.n_in,
        "n_hid": params.n_hid,
        "n_out": params.n_out,
        "output_activation": params.output_activation.value,
        "seed": seed,
        "w_in": params.w_in.ravel().tolist(),
        "w_rec": params.w_rec.ravel().tolist(),
        "w_out": params.w_out.ravel().tolist(),
        "b": params.b.tolist(),
    }
    return json.dumps(doc, indent=1).encode("utf-8")


def deserialize(data: bytes) -> SrnParams:
    """Parse a document produced by serialize()."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"not a valid model document: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"unknown model format {doc.get('format')!r}"
                          if isinstance(doc, dict) else "model document must be an object")
    try:
        n_in, n_hid, n_out = doc["n_in"], doc["n_hid"], doc["n_out"]
        # JSON integers only: int() would truncate 2.9 and parse "3"; bool is no size
        if any(type(size) is not int for size in (n_in, n_hid, n_out)):
            raise FormatError(f"layer sizes must be JSON integers, got n_in={n_in!r}, "
                              f"n_hid={n_hid!r}, n_out={n_out!r}")
        if min(n_in, n_hid, n_out) < 1:
            raise FormatError(f"layer sizes must be at least 1, got n_in={n_in}, "
                              f"n_hid={n_hid}, n_out={n_out}")
        activation = OutputActivation(doc["output_activation"])
        w_in = np.array(doc["w_in"], dtype=np.float64).reshape(n_in, n_hid)
        w_rec = np.array(doc["w_rec"], dtype=np.float64).reshape(n_hid, n_hid)
        w_out = np.array(doc["w_out"], dtype=np.float64).reshape(n_hid, n_out)
        b = np.array(doc["b"], dtype=np.float64).reshape(n_hid)
    except (KeyError, ValueError, TypeError) as e:
        raise FormatError(f"malformed model document: {e}") from e
    for name, block in (("w_in", w_in), ("w_rec", w_rec), ("w_out", w_out), ("b", b)):
        if not np.isfinite(block).all():
            raise FormatError(f"model document holds non-finite {name} weights")
    return SrnParams(w_in, w_rec, w_out, b, activation)


def save_model(path, params: SrnParams, seed: int | None = None) -> None:
    with open(path, "wb") as f:
        f.write(serialize(params, seed))


def load_model(path) -> SrnParams:
    with open(path, "rb") as f:
        return deserialize(f.read())
