import hashlib
import json
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from conftest import generate_task, rewrite_header

from srngate import tasks
from srngate.config import RunConfig
from srngate.errors import ConfigError, FormatError
from srngate.model import LossKind
from srngate.tasks import SYMBOL_X, SYMBOL_Y, TaskKind, TaskSpec


def traced_peak(fn):
    """fn's result and the peak of memory that tracemalloc traced while it
    ran, above what was traced when it started; numpy reports its array
    buffers to tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - base


def marker_positions(seq):
    """0-based positions where the marker channel is set."""
    return np.flatnonzero(seq[:, 1] == 1.0)


class TestAdding:
    def test_targets_recomputable_from_inputs(self):
        batch = generate_task("adding", 100, 500, 0)
        for i in range(batch.n):
            pos = marker_positions(batch.inputs[i])
            assert len(pos) == 2
            v1, v2 = batch.inputs[i, pos, 0]
            npt.assert_allclose(batch.targets[i, 0], (v1 + v2) / 2.0, rtol=1e-15)

    def test_marker_windows_respected(self):
        T = 100
        batch = generate_task("adding", T, 2000, 1)
        for i in range(batch.n):
            p1, p2 = marker_positions(batch.inputs[i]) + 1  # 1-based
            assert 1 <= p1 <= T // 10
            assert T // 10 < p2 <= T // 2

    def test_targets_in_unit_interval(self):
        batch = generate_task("adding", 50, 5000, 2)
        assert np.all(batch.targets >= 0.0) and np.all(batch.targets <= 1.0)

    def test_target_mean(self):
        batch = generate_task("adding", 100, 100_000, 3)
        assert abs(batch.targets.mean() - 0.5) < 0.005

    def test_deterministic(self):
        b1 = generate_task("adding", 30, 50, 4)
        b2 = generate_task("adding", 30, 50, 4)
        assert b1.inputs.tobytes() == b2.inputs.tobytes()
        assert b1.targets.tobytes() == b2.targets.tobytes()

    def test_too_short_fatal(self):
        with pytest.raises(ConfigError):
            generate_task("adding", 9, 10, 0)

    def test_metadata(self):
        batch = generate_task("adding", 20, 3, 5)
        assert batch.spec == TaskSpec(TaskKind.ADDING, 20)
        assert batch.spec.loss_kind is LossKind.MSE
        assert batch.inputs.shape == (3, 20, 2)
        assert batch.targets.shape == (3, 1)
        assert batch.spec.success_tolerance == 0.04


class TestMultiplication:
    def test_targets_recomputable_from_inputs(self):
        batch = generate_task("multiplication", 60, 500, 6)
        for i in range(batch.n):
            pos = marker_positions(batch.inputs[i])
            v1, v2 = batch.inputs[i, pos, 0]
            npt.assert_allclose(batch.targets[i, 0], v1 * v2, rtol=1e-15)

    def test_target_mean(self):
        # product of two independent uniforms has mean 1/4
        batch = generate_task("multiplication", 100, 100_000, 7)
        assert abs(batch.targets.mean() - 0.25) < 0.005


class TestTemporalOrder:
    def test_class_recomputable_from_inputs(self):
        for count, T in ((2, 100), (3, 100), (2, 50), (3, 50)):
            spec = TaskSpec(TaskKind.TEMPORAL_ORDER if count == 2
                            else TaskKind.TEMPORAL_ORDER_3BIT, T)
            batch = tasks.generate(spec, 300, seed=8)
            for i in range(batch.n):
                symbols = np.argmax(batch.inputs[i], axis=1)
                special = symbols[symbols >= SYMBOL_X]
                assert len(special) == count
                cls = 0
                for s in special:
                    cls = cls * 2 + (1 if s == SYMBOL_Y else 0)
                assert cls == batch.targets[i]

    def test_specials_inside_windows(self):
        spec = TaskSpec(TaskKind.TEMPORAL_ORDER_3BIT, 100)
        batch = tasks.generate(spec, 1000, seed=9)
        windows = spec.windows()
        for i in range(batch.n):
            symbols = np.argmax(batch.inputs[i], axis=1)
            positions = np.flatnonzero(symbols >= SYMBOL_X) + 1
            assert len(positions) == 3
            for pos, (lo, hi) in zip(sorted(positions), windows):
                assert lo <= pos <= hi

    def test_one_hot_rows(self):
        batch = generate_task("temporal_order", 40, 100, 10)
        npt.assert_array_equal(batch.inputs.sum(axis=2), np.ones((100, 40)))
        assert set(np.unique(batch.inputs)) == {0.0, 1.0}

    def test_class_histogram_uniform(self):
        for task, classes in (("temporal_order", 4), ("temporal_order_3bit", 8)):
            batch = generate_task(task, 100, 100_000, 11)
            histogram = np.bincount(batch.targets, minlength=classes)
            p = stats.chisquare(histogram).pvalue
            assert p > 0.01, f"{task}: histogram {histogram}, p={p}"

    def test_distractors_only_elsewhere(self):
        batch = generate_task("temporal_order", 30, 200, 12)
        symbols = np.argmax(batch.inputs, axis=2)
        n_specials = (symbols >= SYMBOL_X).sum(axis=1)
        npt.assert_array_equal(n_specials, np.full(200, 2))

    def test_window_collision_fatal(self):
        with pytest.raises(ConfigError, match="window"):
            generate_task("temporal_order", 5, 10, 0)
        with pytest.raises(ConfigError, match="window"):
            generate_task("temporal_order_3bit", 9, 10, 0)

    def test_generate_validates_tolerance(self):
        spec = TaskSpec(TaskKind.TEMPORAL_ORDER, 100, success_tolerance=0.0)
        with pytest.raises(ConfigError, match="tolerance"):
            tasks.generate(spec, 10, seed=0)

    def test_metadata(self):
        batch = generate_task("temporal_order_3bit", 50, 4, 13)
        assert batch.inputs.shape == (4, 50, 6)
        assert batch.targets.shape == (4,)
        assert batch.targets.dtype == np.int64
        assert batch.spec.loss_kind is LossKind.CROSS_ENTROPY


class TestPinnedBytes:
    """generate's bytes are fixed: any change to the draws or their order
    shows here.  Odd T and 2500 rows put two seams between generation
    blocks inside each batch."""

    DIGESTS = {
        TaskKind.ADDING:
            "9104a103cc28fd29efd0ac64546153b4e87cc37da3c4c897acb674d9182665b0",
        TaskKind.MULTIPLICATION:
            "4a03cc921781750e6c9838c977c10943028f49cae236c1b05417fabae1ec1789",
        TaskKind.TEMPORAL_ORDER:
            "8aae52df41e2431330132795d079f8cd02f33227ab71e6516359e001d839a5c3",
        TaskKind.TEMPORAL_ORDER_3BIT:
            "af782a9261ab4807738b6540741d7e915ea6609191dbeac9b4a55ab65ee701c7",
    }

    @pytest.mark.parametrize("kind", list(TaskKind), ids=lambda kind: kind.value)
    def test_generated_bytes(self, kind):
        assert 2500 > 2 * tasks.GEN_BLOCK_ROWS
        batch = tasks.generate(TaskSpec(kind, 37), 2500, seed=5)
        data = batch.inputs.tobytes() + batch.targets.tobytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[kind]


class TestMakeSplits:
    def test_default_sizes(self):
        spec = TaskSpec(TaskKind.ADDING, 20)
        splits = tasks.make_splits(spec, seed=14, sizes=(200, 10, 100))
        assert splits["train"].n == 200
        assert splits["valid"].n == 10
        assert splits["test"].n == 100

    def test_same_seed_identical(self):
        spec = TaskSpec(TaskKind.TEMPORAL_ORDER, 30)
        s1 = tasks.make_splits(spec, seed=15, sizes=(50, 20, 30))
        s2 = tasks.make_splits(spec, seed=15, sizes=(50, 20, 30))
        for name in ("train", "valid", "test"):
            assert s1[name].inputs.tobytes() == s2[name].inputs.tobytes()

    def test_splits_do_not_collide(self):
        spec = TaskSpec(TaskKind.ADDING, 40)
        splits = tasks.make_splits(spec, seed=16, sizes=(500, 500, 500))
        seen = set()
        for name in ("train", "valid", "test"):
            for row in splits[name].inputs.reshape(splits[name].n, -1):
                seen.add(row.tobytes())
        assert len(seen) == 1500

    def test_paper_default_sizes(self):
        # the paper's split sizes are declared once, as RunConfig defaults;
        # make_splits takes its sizes from every caller
        cfg = RunConfig()
        assert (cfg.train_size, cfg.valid_size, cfg.test_size) == (20000, 1000, 10000)
        with pytest.raises(TypeError, match="sizes"):
            tasks.make_splits(TaskSpec(TaskKind.ADDING, 20), seed=0)


class TestWindowTable:
    """The window table is a constant; validate checks only T >= 10, and
    these tests show that this one inequality is what keeps the table
    consistent."""

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_windows_fit_in_order_and_apart(self, kind):
        for T in range(10, 1001):
            windows = TaskSpec(kind, T).windows()
            assert windows[0][0] >= 1 and windows[-1][1] <= T, (T, windows)
            assert all(lo <= hi for lo, hi in windows), (T, windows)
            assert all(prev_hi < lo for (_, prev_hi), (lo, _)
                       in zip(windows, windows[1:])), (T, windows)

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_validate_accepts_exactly_t_from_10(self, kind):
        for T in range(-2, 1001):
            if T >= 10:
                TaskSpec(kind, T).validate()
            else:
                with pytest.raises(ConfigError, match=f"^T: .*needs T >= 10.*got {T}$"):
                    TaskSpec(kind, T).validate()


class TestSubset:
    def test_subset_slices_consistently(self):
        batch = generate_task("temporal_order", 20, 30, 17)
        sub = batch.subset(np.arange(5, 10))
        npt.assert_array_equal(sub.inputs, batch.inputs[5:10])
        npt.assert_array_equal(sub.targets, batch.targets[5:10])
        assert sub.spec is batch.spec


class TestDumpLoad:
    def test_round_trip_regression(self, tmp_path):
        batch = generate_task("adding", 25, 40, 18)
        path = tmp_path / "adding.dat"
        tasks.save_batch(path, batch, seed=18)
        loaded = tasks.load_batch(path)
        assert loaded.inputs.tobytes() == batch.inputs.tobytes()
        assert loaded.targets.tobytes() == batch.targets.tobytes()
        assert loaded.spec == batch.spec

    def test_round_trip_classification(self, tmp_path):
        batch = generate_task("temporal_order_3bit", 30, 25, 19)
        path = tmp_path / "order.dat"
        tasks.save_batch(path, batch)
        loaded = tasks.load_batch(path)
        assert loaded.targets.dtype == batch.targets.dtype
        npt.assert_array_equal(loaded.targets, batch.targets)
        npt.assert_array_equal(loaded.inputs, batch.inputs)

    def test_identical_files_for_identical_batches(self, tmp_path):
        b = generate_task("adding", 25, 40, 20)
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        tasks.save_batch(p1, b, seed=20)
        tasks.save_batch(p2, generate_task("adding", 25, 40, 20), seed=20)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("task", ["adding", "temporal_order"])
    @pytest.mark.parametrize("rows", [slice(0, 9, 2), slice(0, 0)],
                             ids=["every_other", "empty"])
    def test_file_bytes_follow_the_documented_layout(self, tmp_path, task, rows):
        # FORMATS.md: magic line, JSON header line, inputs as <f8, then
        # targets as <f8 (regression) or <i8 (class ids); a strided subset
        # is not contiguous and an empty one has no payload at all
        batch = generate_task(task, 30, 9, 33).subset(rows)
        path = tmp_path / "layout.dat"
        tasks.save_batch(path, batch, seed=33)
        spec = batch.spec
        header = {"task": task, "T": 30, "n": batch.n, "n_in": spec.n_in, "seed": 33,
                  "loss_kind": spec.loss_kind.value,
                  "success_tolerance": spec.success_tolerance,
                  "targets_dtype": str(batch.targets.dtype),
                  "targets_shape": list(batch.targets.shape)}
        target_dtype = "<f8" if spec.regression else "<i8"
        expected = (b"SRNDATA1\n" + json.dumps(header).encode("utf-8") + b"\n"
                    + batch.inputs.astype("<f8").tobytes()
                    + batch.targets.astype(target_dtype).tobytes())
        assert path.read_bytes() == expected

    def test_bad_files(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_bytes(b"NOTDATA\n{}\n")
        with pytest.raises(FormatError):
            tasks.load_batch(path)
        path.write_bytes(tasks.DATA_MAGIC + b"\nnot json\n")
        with pytest.raises(FormatError):
            tasks.load_batch(path)
        batch = generate_task("adding", 25, 4, 21)
        good = tmp_path / "good.dat"
        tasks.save_batch(good, batch)
        truncated = good.read_bytes()[:-16]
        bad = tmp_path / "trunc.dat"
        bad.write_bytes(truncated)
        with pytest.raises(FormatError):
            tasks.load_batch(bad)

    def _payload_case(self, tmp_path, extra: bytes, cut: int = 0):
        """A saved file with ``cut`` payload bytes removed and ``extra`` appended;
        returns its path and the payload size a valid file would have."""
        batch = generate_task("adding", 25, 4, 21)
        path = tmp_path / "case.dat"
        tasks.save_batch(path, batch)
        expected = batch.inputs.nbytes + batch.targets.nbytes
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - cut] + extra)
        return path, expected

    def test_truncated_payload_names_both_sizes(self, tmp_path):
        path, expected = self._payload_case(tmp_path, b"", cut=3)
        with pytest.raises(FormatError, match=f"has {expected - 3} bytes, expected {expected}"):
            tasks.load_batch(path)

    def test_trailing_bytes_name_both_sizes(self, tmp_path):
        path, expected = self._payload_case(tmp_path, b"\0" * 5)
        with pytest.raises(FormatError, match=f"has {expected + 5} bytes, expected {expected}"):
            tasks.load_batch(path)

    def test_malformed_sizes_in_header_rejected(self, tmp_path):
        # each pair of negative sizes multiplies out to the true payload size;
        # a size that int() would turn into the true one is no JSON integer
        path, _ = self._payload_case(tmp_path, b"")
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        for change in ({"targets_shape": ["x"]}, {"targets_shape": [-4, -1]},
                       {"T": -25, "n_in": -2}, {"n": 4.5}, {"T": "25"}, {"n_in": 2.0},
                       {"targets_shape": [4, True]}):
            doc = {**json.loads(header), **change}
            path.write_bytes(b"\n".join([magic, json.dumps(doc).encode(), payload]))
            with pytest.raises(FormatError, match="malformed dataset header"):
                tasks.load_batch(path)

    def test_loss_contradicting_task_rejected(self, tmp_path):
        for task, loss in (("temporal_order", "mse"), ("adding", "cross_entropy")):
            path = tmp_path / f"{task}.dat"
            tasks.save_batch(path, generate_task(task, 30, 4, 29))
            magic, header, payload = path.read_bytes().split(b"\n", 2)
            doc = {**json.loads(header), "loss_kind": loss}
            path.write_bytes(b"\n".join([magic, json.dumps(doc).encode(), payload]))
            with pytest.raises(FormatError, match=f"{task} .*{loss}"):
                tasks.load_batch(path)

    @pytest.mark.parametrize("task, change, message", [
        ("adding", {"success_tolerance": -1.0}, "tolerance must be positive"),
        ("temporal_order", {"T": 4, "n_in": 45}, "needs T >= 10"),
        ("adding", {"success_tolerance": float("nan")}, "tolerance must be positive"),
        ("adding", {"success_tolerance": float("inf")}, "tolerance must be positive"),
    ])
    def test_header_spec_validated(self, tmp_path, task, change, message):
        # the changed T * n_in keeps the payload size right: only the spec is bad
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, generate_task(task, 30, 4, 30))
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        doc = {**json.loads(header), **change}
        path.write_bytes(b"\n".join([magic, json.dumps(doc).encode(), payload]))
        with pytest.raises(FormatError, match=message):
            tasks.load_batch(path)

    @pytest.mark.parametrize("tolerance", ["0.04", True, None, [0.04], 10 ** 400],
                             ids=["string", "bool", "null", "list", "int_1e400"])
    def test_tolerance_must_be_a_json_number(self, tmp_path, tolerance):
        # float() would parse the string and the bool, and overflow on the int
        path = tmp_path / "adding.dat"
        tasks.save_batch(path, generate_task("adding", 30, 4, 30))
        rewrite_header(path, success_tolerance=tolerance)
        with pytest.raises(FormatError, match="malformed dataset header"):
            tasks.load_batch(path)

    @pytest.mark.parametrize("task, change, cut", [
        ("temporal_order", {"targets_dtype": "float64"}, 0),
        ("temporal_order", {"targets_shape": [10, 1]}, 0),
        ("temporal_order", {"targets_shape": [5]}, 40),
        ("adding", {"targets_dtype": "int64"}, 0),
        ("adding", {"targets_shape": [10]}, 0),
        ("adding", {"targets_shape": [5, 1]}, 40),
    ], ids=["order_float", "order_column", "order_short", "adding_int", "adding_flat",
            "adding_short"])
    def test_targets_must_fit_the_task(self, tmp_path, task, change, cut):
        # each changed header still matches the payload size (``cut`` trims
        # the bytes of the missing targets), so only the targets rule can
        # reject it
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, generate_task(task, 30, 10, 31))
        rewrite_header(path, cut, **change)
        kind = "float [10, 1]" if task == "adding" else "integer [10]"
        with pytest.raises(FormatError, match=rf"{task} targets must be {re.escape(kind)}"):
            tasks.load_batch(path)

    def test_input_channels_must_fit_the_task(self, tmp_path):
        # 31 one-channel adding sequences of 15 steps and their 31 targets
        # take as many bytes as 16 two-channel ones
        path = tmp_path / "adding.dat"
        tasks.save_batch(path, generate_task("adding", 15, 16, 32))
        rewrite_header(path, n=31, n_in=1, targets_shape=[31, 1])
        with pytest.raises(FormatError, match="adding has 2 input channels, header says n_in=1"):
            tasks.load_batch(path)

    def test_loaded_arrays_are_owned_and_writeable(self, tmp_path):
        for batch in (generate_task("adding", 25, 6, 25),
                      generate_task("temporal_order", 30, 6, 26)):
            path = tmp_path / f"{batch.spec.kind.value}.dat"
            tasks.save_batch(path, batch)
            loaded = tasks.load_batch(path)
            for arr in (loaded.inputs, loaded.targets):
                assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
                assert arr.dtype.isnative

    def test_save_load_save_byte_identical(self, tmp_path):
        for batch in (generate_task("multiplication", 25, 7, 27),
                      generate_task("temporal_order_3bit", 30, 7, 28)):
            first, second = tmp_path / "first.dat", tmp_path / "second.dat"
            tasks.save_batch(first, batch, seed=28)
            tasks.save_batch(second, tasks.load_batch(first), seed=28)
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_inputs_rejected(self, tmp_path, bad):
        batch = generate_task("adding", 25, 4, 22)
        batch.inputs[1, 3, 0] = bad
        path = tmp_path / "nan_inputs.dat"
        tasks.save_batch(path, batch)
        with pytest.raises(FormatError, match="non-finite"):
            tasks.load_batch(path)

    def test_non_finite_targets_rejected(self, tmp_path):
        batch = generate_task("multiplication", 25, 4, 23)
        batch.targets[2, 0] = np.inf
        path = tmp_path / "inf_targets.dat"
        tasks.save_batch(path, batch)
        with pytest.raises(FormatError, match="non-finite"):
            tasks.load_batch(path)

    def test_class_ids_out_of_range_rejected(self, tmp_path):
        # 2 specials give classes 0..3, 3 specials 0..7
        for task, bad_ids in (("temporal_order", (-1, 4)),
                              ("temporal_order_3bit", (-1, 8))):
            for bad in bad_ids:
                batch = generate_task(task, 30, 5, 24)
                batch.targets[3] = bad
                path = tmp_path / f"{task}_{bad}.dat"
                tasks.save_batch(path, batch)
                with pytest.raises(FormatError, match="class ids"):
                    tasks.load_batch(path)


class TestMemory:
    """Each split's inputs exist once between generation and the file, and
    generation needs no more than one block of rows beside them."""

    def test_save_writes_without_copying_the_inputs(self, tmp_path):
        batch = generate_task("temporal_order", 100, 2000, 34)
        _, peak = traced_peak(lambda: tasks.save_batch(tmp_path / "order.dat", batch))
        assert peak < 0.05 * batch.inputs.nbytes

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_generation_builds_the_inputs_in_place(self, task, n):
        # beside the returned arrays, one block's draws (half an adding
        # block, a sixth of a temporal-order one) and a few (n,) vectors;
        # a temporary that grows with n passes at most one of the two sizes
        generate_task(task, 100, 1, 35)  # first-call allocations of numpy
        batch, peak = traced_peak(lambda: generate_task(task, 100, n, 35))
        block_bytes = tasks.GEN_BLOCK_ROWS * 100 * batch.inputs.shape[2] * 8
        assert peak - batch.inputs.nbytes - batch.targets.nbytes < 0.75 * block_bytes

    def test_load_needs_no_input_sized_temporary(self, tmp_path):
        path = tmp_path / "order.dat"
        tasks.save_batch(path, generate_task("temporal_order", 100, 2000, 36))
        loaded, peak = traced_peak(lambda: tasks.load_batch(path))
        returned = loaded.inputs.nbytes + loaded.targets.nbytes
        assert peak - returned < 0.05 * loaded.inputs.nbytes
