"""Timing wrappers installed on srngate's public names from outside the package.

Two recorders share one patching helper:

* ``Stamps`` is the untraced mode used for end-to-end figures.  It takes one
  pair of ``perf_counter`` readings around each ``trainer.train_iteration``
  (a minibatch draw) and each ``trainer.evaluate`` call, plus, on a scoring
  run, one reading after each ``model.loss_batch`` (a scoring chunk).
* ``Tracer`` records a span per call of every name in ``WRAPPED``: label,
  start, end and the index of the enclosing span.  Self time is a span's
  duration minus the durations of its direct children.

Names are resolved at install time and a missing one raises
``MissingNameError``, so a rename in the package cannot read as a layer
that costs nothing.  The wrappers replace module attributes that srngate's
own modules look up at call time (``trainer`` calls ``backward`` and
``report_from_backward`` through its own globals, hence the ``trainer``
module paths for the ``bptt`` and ``regularizer`` layers).
"""

import importlib
import os
import statistics
import time
from contextlib import contextmanager

# (layer, owner path, attribute)
WRAPPED = (
    ("model", "srngate.model", "forward_batch"),
    ("model", "srngate.model", "loss_batch"),
    ("model", "srngate.model", "save_model"),
    ("bptt", "srngate.trainer", "backward"),
    ("regularizer", "srngate.trainer", "report_from_backward"),
    ("trainer", "srngate.trainer", "train_iteration"),
    ("trainer", "srngate.trainer", "sgd_step"),
    ("trainer", "srngate.trainer", "evaluate"),
    ("trainer", "srngate.trainer", "write_metrics_csv"),
    ("tasks", "srngate.tasks", "make_splits"),
    ("tasks", "srngate.tasks", "save_batch"),
    ("tasks", "srngate.tasks", "load_batch"),
    ("diagnostics", "srngate.diagnostics.DynamicsRecorder", "__call__"),
    ("diagnostics", "srngate.diagnostics.DynamicsRecorder", "write"),
)

# Spans whose label gains the kind of the nearest enclosing draw or eval.
SPLIT_BY_PARENT = {"model.forward_batch", "model.loss_batch"}
PARENT_KINDS = {"trainer.train_iteration": "draw", "trainer.evaluate": "eval"}

ROOT = "cli"


class MissingNameError(RuntimeError):
    pass


def _label(layer: str, owner: str, attr: str) -> str:
    cls = owner.rsplit(".", 1)[1]
    return f"{layer}.{cls}.{attr}" if cls[0].isupper() else f"{layer}.{attr}"


def span_labels() -> list:
    """Every span label a traced run reports, root first."""
    labels = [ROOT]
    for layer, owner, attr in WRAPPED:
        base = _label(layer, owner, attr)
        if base in SPLIT_BY_PARENT:
            labels += [f"{base}.{kind}" for kind in PARENT_KINDS.values()]
        else:
            labels.append(base)
    return labels


def _resolve_owner(path: str):
    try:
        return importlib.import_module(path)
    except ImportError:
        module, name = path.rsplit(".", 1)
        owner = getattr(importlib.import_module(module), name, None)
        if owner is None:
            raise MissingNameError(f"public name {path} is missing") from None
        return owner


def resolve_all() -> dict:
    """Map each (owner path, attribute) in WRAPPED to its owner object."""
    owners = {}
    for layer, owner_path, attr in WRAPPED:
        owner = _resolve_owner(owner_path)
        if not callable(getattr(owner, attr, None)):
            raise MissingNameError(f"public name {owner_path}.{attr} is missing")
        owners[(owner_path, attr)] = owner
    return owners


@contextmanager
def _patched(factories: dict):
    """Replace owner attributes by factory(original) for the block's duration."""
    owners = resolve_all()
    saved = []
    try:
        for key, factory in factories.items():
            owner = owners[key]
            original = getattr(owner, key[1])
            saved.append((owner, key[1], original))
            setattr(owner, key[1], factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Stamps:
    """Clock readings with tracing off: a (start, end) pair per draw and per
    evaluation, and on scoring runs the time of each scoring chunk."""

    def __init__(self):
        self.draws = []    # (epoch, start, end) per train_iteration call
        self.evals = []    # (start, end) per evaluate call
        self.chunks = []   # seconds per scoring chunk
        self._mark = None

    def _draw(self, fn):
        def wrapper(state, *args, **kwargs):
            start = time.perf_counter()
            result = fn(state, *args, **kwargs)
            self.draws.append((state.epoch, start, time.perf_counter()))
            return result
        return wrapper

    def _evaluate(self, fn):
        def wrapper(*args, **kwargs):
            start = self._mark = time.perf_counter()
            result = fn(*args, **kwargs)
            self.evals.append((start, time.perf_counter()))
            return result
        return wrapper

    def _chunk_end(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = time.perf_counter()
            self.chunks.append(now - self._mark)
            self._mark = now
            return result
        return wrapper

    def installed(self, chunks: bool):
        """Stamp draws and evaluations; with ``chunks``, also the end of every
        loss_batch call, which closes one scoring chunk inside evaluate."""
        factories = {("srngate.trainer", "train_iteration"): self._draw,
                     ("srngate.trainer", "evaluate"): self._evaluate}
        if chunks:
            factories[("srngate.model", "loss_batch")] = self._chunk_end
        return _patched(factories)

    def epoch_intervals(self) -> list:
        """Seconds from each epoch's first draw to the end of the validation
        pass that follows its last draw."""
        spans = {}
        for epoch, start, end in self.draws:
            first, _ = spans.get(epoch, (start, end))
            spans[epoch] = (first, end)
        out = []
        for first, last in spans.values():
            ends = [e for s, e in self.evals if s >= last]
            if ends:
                out.append(min(ends) - first)
        return out


class Tracer:
    """Spans for every wrapped name, plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []   # [label, start, end, parent index or None]
        self._stack = []
        self.decisions = {}          # gate decision value -> count
        self.forced_accepts = 0      # draws applied although the gate rejected
        self.seqs_evaluated = 0
        self.bytes_loaded = 0

    @contextmanager
    def span(self, label: str):
        parent = self._stack[-1] if self._stack else None
        record = [label, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _parent_kind(self, base: str) -> str:
        for index in reversed(self._stack):
            kind = PARENT_KINDS.get(self.spans[index][0])
            if kind is not None:
                return kind
        raise RuntimeError(f"{base} called outside a draw or an evaluation")

    def _observe(self, base: str, args, result) -> None:
        if base == "regularizer.report_from_backward":
            key = result.decision.value
            self.decisions[key] = self.decisions.get(key, 0) + 1
        elif base == "trainer.train_iteration":
            if result.forced and result.report is not None \
                    and result.report.decision.value != "accept":
                self.forced_accepts += 1
        elif base == "trainer.evaluate":
            self.seqs_evaluated += args[1].n
        elif base == "tasks.load_batch":
            self.bytes_loaded += os.path.getsize(args[0])

    def _factory(self, base: str):
        split = base in SPLIT_BY_PARENT

        def make(fn):
            def wrapper(*args, **kwargs):
                label = f"{base}.{self._parent_kind(base)}" if split else base
                with self.span(label):
                    result = fn(*args, **kwargs)
                self._observe(base, args, result)
                return result
            return wrapper
        return make

    def installed(self):
        return _patched({(owner, attr): self._factory(_label(layer, owner, attr))
                         for layer, owner, attr in WRAPPED})

    def summary(self) -> dict:
        """label -> {calls, self_s, ms_p50, share}, for every label in span_labels()."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        durations = {label: [] for label in span_labels()}
        self_s = dict.fromkeys(durations, 0.0)
        for (label, start, end, _), children in zip(self.spans, child_s):
            durations[label].append(end - start)
            self_s[label] += end - start - children
        # the root spans' durations; the self times partition it
        wall = sum(end - start for _, start, end, parent in self.spans
                   if parent is None)
        return {label: {"calls": len(d),
                        "self_s": self_s[label],
                        "ms_p50": statistics.median(d) * 1e3 if d else 0.0,
                        "share": self_s[label] / wall if wall > 0 else 0.0}
                for label, d in durations.items()}
