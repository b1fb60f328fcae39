import hashlib
import json
import os
import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from conftest import generate_task, rewrite_header, rewrite_inputs, traced_peak

from srngate import tasks
from srngate.config import RunConfig
from srngate.errors import ConfigError, FormatError
from srngate.model import LossKind
from srngate.tasks import SYMBOL_X, SYMBOL_Y, TaskKind, TaskSpec


def marker_positions(seq):
    """0-based positions where the marker channel is set."""
    return np.flatnonzero(seq[:, 1] == 1.0)


class TestAdding:
    def test_targets_recomputable_from_inputs(self):
        batch = generate_task("adding", 100, 500, 0)
        inputs = batch.dense_inputs()
        for i in range(batch.n):
            pos = marker_positions(inputs[i])
            assert len(pos) == 2
            v1, v2 = inputs[i, pos, 0]
            npt.assert_allclose(batch.targets[i, 0], (v1 + v2) / 2.0, rtol=1e-15)

    def test_marker_windows_respected(self):
        T = 100
        batch = generate_task("adding", T, 2000, 1)
        inputs = batch.dense_inputs()
        for i in range(batch.n):
            p1, p2 = marker_positions(inputs[i]) + 1  # 1-based
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
        assert b1.dense_inputs().tobytes() == b2.dense_inputs().tobytes()
        assert b1.targets.tobytes() == b2.targets.tobytes()

    def test_too_short_fatal(self):
        with pytest.raises(ConfigError):
            generate_task("adding", 9, 10, 0)

    def test_metadata(self):
        batch = generate_task("adding", 20, 3, 5)
        assert batch.spec == TaskSpec(TaskKind.ADDING, 20)
        assert batch.spec.loss_kind is LossKind.MSE
        assert batch.dense_inputs().shape == (3, 20, 2) and batch.dense_inputs().dtype == np.float64
        # one byte of marker and eight of value per step
        assert batch.symbols.dtype == np.uint8 and batch.symbols.nbytes == 3 * 20
        assert batch.values.dtype == np.float64 and batch.values.nbytes == 3 * 20 * 8
        assert batch.targets.shape == (3, 1)
        assert batch.spec.success_tolerance == 0.04


class TestMultiplication:
    def test_targets_recomputable_from_inputs(self):
        batch = generate_task("multiplication", 60, 500, 6)
        inputs = batch.dense_inputs()
        for i in range(batch.n):
            pos = marker_positions(inputs[i])
            v1, v2 = inputs[i, pos, 0]
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
            inputs = batch.dense_inputs()
            for i in range(batch.n):
                symbols = np.argmax(inputs[i], axis=1)
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
        inputs = batch.dense_inputs()
        for i in range(batch.n):
            symbols = np.argmax(inputs[i], axis=1)
            positions = np.flatnonzero(symbols >= SYMBOL_X) + 1
            assert len(positions) == 3
            for pos, (lo, hi) in zip(sorted(positions), windows):
                assert lo <= pos <= hi

    def test_one_hot_rows(self):
        batch = generate_task("temporal_order", 40, 100, 10)
        npt.assert_array_equal(batch.dense_inputs().sum(axis=2), np.ones((100, 40)))
        assert set(np.unique(batch.dense_inputs())) == {0.0, 1.0}

    def test_class_histogram_uniform(self):
        for task, classes in (("temporal_order", 4), ("temporal_order_3bit", 8)):
            batch = generate_task(task, 100, 100_000, 11)
            histogram = np.bincount(batch.targets, minlength=classes)
            p = stats.chisquare(histogram).pvalue
            assert p > 0.01, f"{task}: histogram {histogram}, p={p}"

    def test_distractors_only_elsewhere(self):
        batch = generate_task("temporal_order", 30, 200, 12)
        symbols = np.argmax(batch.dense_inputs(), axis=2)
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
        assert batch.dense_inputs().shape == (4, 50, 6) and batch.dense_inputs().dtype == np.float64
        # one byte per step, the symbol id, and no values
        assert batch.symbols.dtype == np.uint8 and batch.symbols.nbytes == 4 * 50
        npt.assert_array_equal(batch.symbols, np.argmax(batch.dense_inputs(), axis=2))
        assert batch.values is None
        assert batch.targets.shape == (4,)
        assert batch.targets.dtype == np.int64
        assert batch.spec.loss_kind is LossKind.CROSS_ENTROPY


class TestPinnedBytes:
    """generate's bytes are fixed: any change to the draws or their order
    shows here.  Odd T and 2500 rows put two seams between generation
    blocks inside each batch.  The inputs are hashed as float64, the bytes
    a file holds, so the digests do not depend on the in-memory dtype."""

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
        data = batch.dense_inputs().astype("<f8").tobytes() + batch.targets.tobytes()
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
            assert s1[name].dense_inputs().tobytes() == s2[name].dense_inputs().tobytes()

    def test_splits_do_not_collide(self):
        spec = TaskSpec(TaskKind.ADDING, 40)
        splits = tasks.make_splits(spec, seed=16, sizes=(500, 500, 500))
        seen = set()
        for name in ("train", "valid", "test"):
            for row in splits[name].dense_inputs().reshape(splits[name].n, -1):
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
        npt.assert_array_equal(sub.dense_inputs(), batch.dense_inputs()[5:10])
        npt.assert_array_equal(sub.targets, batch.targets[5:10])
        assert sub.spec is batch.spec

    @pytest.mark.parametrize("task", ["adding", "temporal_order"])
    def test_slice_subset_shares_the_parent_arrays(self, task):
        # a slice, as evaluate takes per chunk, copies nothing; an index
        # array, as a shuffled draw takes, copies its rows
        batch = generate_task(task, 20, 30, 17)
        view, copy = batch.subset(slice(5, 10)), batch.subset(np.arange(5, 10))
        for name in ("symbols", "values", "targets"):
            held = getattr(batch, name)
            if held is not None:
                assert np.shares_memory(getattr(view, name), held), name
                assert not np.shares_memory(getattr(copy, name), held), name

    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_one_step_is_that_step_of_the_inputs(self, task):
        batch = generate_task(task, 20, 30, 17)
        dense = batch.dense_inputs()
        out = np.empty((4, batch.spec.n_in))
        for rows in (slice(3, 7), np.array([9, 2, 2, 29])):
            for step in (0, 11, 19):
                expected = dense[rows, step]
                assert batch.dense_inputs(rows, step=step).tobytes() == expected.tobytes()
                assert batch.dense_inputs(rows, out, step) is out
                assert out.tobytes() == expected.tobytes()


class TestDumpLoad:
    def test_round_trip_regression(self, tmp_path):
        batch = generate_task("adding", 25, 40, 18)
        path = tmp_path / "adding.dat"
        tasks.save_batch(path, batch, seed=18)
        loaded = tasks.load_batch(path)
        assert loaded.dense_inputs().tobytes() == batch.dense_inputs().tobytes()
        assert loaded.targets.tobytes() == batch.targets.tobytes()
        assert loaded.spec == batch.spec

    def test_round_trip_classification(self, tmp_path):
        batch = generate_task("temporal_order_3bit", 30, 25, 19)
        path = tmp_path / "order.dat"
        tasks.save_batch(path, batch)
        loaded = tasks.load_batch(path)
        assert loaded.targets.dtype == batch.targets.dtype
        npt.assert_array_equal(loaded.targets, batch.targets)
        npt.assert_array_equal(loaded.dense_inputs(), batch.dense_inputs())

    def test_identical_files_for_identical_batches(self, tmp_path):
        b = generate_task("adding", 25, 40, 20)
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        tasks.save_batch(p1, b, seed=20)
        tasks.save_batch(p2, generate_task("adding", 25, 40, 20), seed=20)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("task", ["adding", "temporal_order"])
    @pytest.mark.parametrize("rows", [slice(0, 9, 2), slice(0, 0), slice(None)],
                             ids=["every_other", "empty", "several_chunks"])
    def test_file_bytes_follow_the_documented_layout(self, tmp_path, task, rows):
        # FORMATS.md: magic line, JSON header line, inputs as <f8, then
        # targets as <f8 (regression) or <i8 (class ids); a strided subset
        # is not contiguous, an empty one has no payload at all, and all
        # 1200 rows span 3 (adding) or 7 (temporal order) save chunks
        batch = generate_task(task, 30, 1200, 33).subset(rows)
        if rows == slice(None):
            assert batch.n > 2 * tasks.IO_CHUNK_BYTES // (30 * batch.spec.n_in * 8)
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
                    + batch.dense_inputs().astype("<f8").tobytes()
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

    @pytest.mark.parametrize("task", ["adding", "temporal_order"])
    @pytest.mark.parametrize("old_n", [None, 1500, 9, 600],
                             ids=["no_file", "longer", "shorter", "same_size"])
    def test_save_over_an_existing_file_writes_a_fresh_file(self, tmp_path, task, old_n):
        # save_batch writes over an old file in place and cuts its tail; 600
        # rows at T = 30 span 2 (adding) or 4 (temporal order) save chunks
        batch = generate_task(task, 30, 600, 40)
        fresh = tmp_path / "fresh.dat"
        tasks.save_batch(fresh, batch, seed=40)
        path = tmp_path / "split.dat"
        if old_n is not None:
            tasks.save_batch(path, generate_task(task, 30, old_n, 41), seed=41)
        tasks.save_batch(path, batch, seed=40)
        assert path.read_bytes() == fresh.read_bytes()
        plain = tmp_path / "plain.dat"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("existing", [False, True], ids=["new_file", "rewrite"])
    def test_save_that_stops_part_way_fails_the_magic_check(self, tmp_path, monkeypatch,
                                                           existing):
        # the old file has the same size, so only the magic tells the mix of
        # new and old bytes from a finished file
        batch = generate_task("temporal_order", 30, 600, 42)
        path = tmp_path / "split.dat"
        if existing:
            tasks.save_batch(path, generate_task("temporal_order", 30, 600, 43), seed=43)

        class Stopped(Exception):
            pass

        dense_inputs, calls = tasks.SequenceBatch.dense_inputs, []

        def first_chunk_only(self, *args, **kwargs):
            if calls:
                raise Stopped
            calls.append(args)
            return dense_inputs(self, *args, **kwargs)

        monkeypatch.setattr(tasks.SequenceBatch, "dense_inputs", first_chunk_only)
        with pytest.raises(Stopped):
            tasks.save_batch(path, batch, seed=42)
        monkeypatch.undo()
        assert path.read_bytes().startswith(bytes(8) + b"\n")
        with pytest.raises(FormatError, match=r"bad magic b'\\x00"):
            tasks.load_batch(path)

    @pytest.mark.parametrize("head", [b"", tasks.DATA_MAGIC + b"\n"],
                             ids=["no_magic", "no_header_end"])
    def test_file_without_a_newline_is_rejected_unread(self, tmp_path, head):
        path = tmp_path / "flat.dat"
        path.write_bytes(head + b"x" * (8 << 20))

        def load_error():
            with pytest.raises(FormatError) as info:
                tasks.load_batch(path)
            return info.value

        error, peak = traced_peak(load_error)
        assert len(str(error)) < 300
        assert peak < 4 * tasks.HEADER_MAX_BYTES

    def test_header_line_may_take_header_max_bytes(self, tmp_path):
        batch = generate_task("adding", 25, 4, 21)
        path = tmp_path / "case.dat"
        tasks.save_batch(path, batch)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        fill = tasks.HEADER_MAX_BYTES - len(header) - 1  # JSON may end in spaces
        path.write_bytes(magic + b"\n" + header + b" " * fill + b"\n" + payload)
        assert tasks.load_batch(path).targets.tobytes() == batch.targets.tobytes()
        path.write_bytes(magic + b"\n" + header + b" " * (fill + 1) + b"\n" + payload)
        with pytest.raises(FormatError, match="header line is longer than 65536 bytes") as info:
            tasks.load_batch(path)
        assert len(str(info.value)) < 300

    @pytest.mark.parametrize("change, message", [
        ({"task": "x" * 60000}, "malformed dataset header"),
        ({"targets_shape": [1] * 20000}, r"targets_shape must be \[4, 1\], header says \[1, "),
        ({"targets_shape": [-1] * 15000}, r"targets_shape must be \[4, 1\], header says \[-1, ")],
        ids=["task", "targets_shape", "negative_shape"])
    def test_messages_quote_a_short_prefix_of_a_long_header(self, tmp_path, change, message):
        path = tmp_path / "case.dat"
        tasks.save_batch(path, generate_task("adding", 25, 4, 21))
        rewrite_header(path, **change)
        with pytest.raises(FormatError, match=message) as info:
            tasks.load_batch(path)
        assert len(str(info.value)) < 300

    def _payload_case(self, tmp_path, extra: bytes, cut: int = 0):
        """A saved file with ``cut`` payload bytes removed and ``extra`` appended;
        returns its path and the payload size a valid file would have."""
        batch = generate_task("adding", 25, 4, 21)
        path = tmp_path / "case.dat"
        tasks.save_batch(path, batch)
        expected = batch.dense_inputs().nbytes + batch.targets.nbytes
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
        for change, message in (
                ({"targets_shape": ["x"]}, r'targets_shape must be \[4, 1\], header says \["x"\]'),
                ({"targets_shape": [-4, -1]}, r"header says \[-4, -1\]"),
                ({"T": -25, "n_in": -2}, "needs T >= 10 .*got -25"),
                ({"n": 4.5}, "malformed dataset header"), ({"T": "25"}, "malformed dataset header"),
                ({"n_in": 2.0}, "n_in must be 2, header says 2.0"),
                ({"targets_shape": [4, True]}, r"header says \[4, true\]")):
            doc = {**json.loads(header), **change}
            path.write_bytes(b"\n".join([magic, json.dumps(doc).encode(), payload]))
            with pytest.raises(FormatError, match=message):
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
        ("temporal_order", {"targets_dtype": "uint8"}, 0),
        ("temporal_order", {"targets_dtype": "int32"}, 0),
    ], ids=["order_float", "order_column", "order_short", "adding_int", "adding_flat",
            "adding_short", "order_uint8", "order_int32"])
    def test_targets_must_fit_the_task(self, tmp_path, task, change, cut):
        # each changed header still matches the payload size (``cut`` trims
        # the bytes of the missing targets), so only the targets rule can
        # reject it
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, generate_task(task, 30, 10, 31))
        rewrite_header(path, cut, **change)
        (key, _), = change.items()
        want = ({"targets_dtype": '"float64"', "targets_shape": "[10, 1]"} if task == "adding"
                else {"targets_dtype": '"int64"', "targets_shape": "[10]"})[key]
        with pytest.raises(FormatError, match=rf"{task} {key} must be {re.escape(want)}, "):
            tasks.load_batch(path)

    def test_input_channels_must_fit_the_task(self, tmp_path):
        # 31 one-channel adding sequences of 15 steps and their 31 targets
        # take as many bytes as 16 two-channel ones
        path = tmp_path / "adding.dat"
        tasks.save_batch(path, generate_task("adding", 15, 16, 32))
        rewrite_header(path, n=31, n_in=1, targets_shape=[31, 1])
        with pytest.raises(FormatError, match="adding n_in must be 2, header says 1"):
            tasks.load_batch(path)

    def test_loaded_arrays_are_owned_and_writeable(self, tmp_path):
        # a uint8 symbol per step, and for adding and multiplication a
        # float64 value beside it
        for batch in (generate_task("adding", 25, 6, 25),
                      generate_task("multiplication", 25, 6, 25),
                      generate_task("temporal_order", 30, 6, 26)):
            path = tmp_path / f"{batch.spec.kind.value}.dat"
            tasks.save_batch(path, batch)
            loaded = tasks.load_batch(path)
            held = (loaded.symbols, loaded.values, loaded.targets)
            for arr in (arr for arr in held if arr is not None):
                assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
                assert arr.dtype.isnative
            assert loaded.symbols.dtype == np.uint8
            assert loaded.symbols.nbytes == 6 * batch.spec.T
            if batch.values is not None:
                assert loaded.values.dtype == np.float64
                assert loaded.values.nbytes == 6 * batch.spec.T * 8

    @pytest.mark.parametrize("task", ["temporal_order", "temporal_order_3bit"])
    def test_loaded_order_inputs_are_uint8(self, tmp_path, task):
        # one byte per step: a 48th of the file's six float64 channels
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, generate_task(task, 30, 500, 37))
        loaded = tasks.load_batch(path)
        payload = path.read_bytes().split(b"\n", 2)[2]
        payload_inputs = len(payload) - loaded.targets.nbytes
        assert loaded.symbols.dtype == np.uint8 and loaded.values is None
        assert loaded.symbols.nbytes * 48 == payload_inputs == 500 * 30 * 6 * 8

    def test_save_load_save_byte_identical(self, tmp_path):
        for batch in (generate_task("multiplication", 25, 7, 27),
                      generate_task("temporal_order_3bit", 30, 7, 28)):
            first, second = tmp_path / "first.dat", tmp_path / "second.dat"
            tasks.save_batch(first, batch, seed=28)
            tasks.save_batch(second, tasks.load_batch(first), seed=28)
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_inputs_rejected(self, tmp_path, bad):
        path = tmp_path / "nan_inputs.dat"
        tasks.save_batch(path, generate_task("adding", 25, 4, 22))
        rewrite_inputs(path, {(1, 3, 0): bad})
        with pytest.raises(FormatError, match="non-finite"):
            tasks.load_batch(path)

    def test_non_finite_targets_rejected(self, tmp_path):
        batch = generate_task("multiplication", 25, 4, 23)
        batch.targets[2, 0] = np.inf
        path = tmp_path / "inf_targets.dat"
        tasks.save_batch(path, batch)
        with pytest.raises(FormatError, match="non-finite"):
            tasks.load_batch(path)

    @pytest.mark.parametrize("row", [0, 399], ids=["first_chunk", "last_chunk"])
    @pytest.mark.parametrize("change", [
        {0: 0.5}, {0: 2.0}, {0: np.nan}, {0: np.inf}, {0: 1.0, 1: 1.0},
        {c: 0.0 for c in range(6)}],
        ids=["half", "two", "nan", "inf", "two_ones", "all_zeros"])
    def test_order_inputs_must_be_one_hot(self, tmp_path, change, row):
        # the bad step is written into the file; 400 rows of T = 30 span
        # three load chunks
        assert 400 > 2 * tasks.IO_CHUNK_BYTES // (30 * 6 * 8)
        path = tmp_path / "order.dat"
        tasks.save_batch(path, generate_task("temporal_order", 30, 400, 38))
        rewrite_inputs(path, {(row, 7, channel): value for channel, value in change.items()})
        with pytest.raises(FormatError, match="temporal_order inputs must be one-hot"):
            tasks.load_batch(path)

    @pytest.mark.parametrize("row", [0, 1199], ids=["first_chunk", "last_chunk"])
    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan], ids=["half", "two", "minus_one",
                                                                 "nan"])
    @pytest.mark.parametrize("task", ["adding", "multiplication"])
    def test_markers_must_be_zero_or_one(self, tmp_path, task, bad, row):
        # 1200 rows of T = 30 span three load chunks
        assert 1200 > 2 * tasks.IO_CHUNK_BYTES // (30 * 2 * 8)
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, generate_task(task, 30, 1200, 39))
        rewrite_inputs(path, {(row, 20, 1): bad})
        with pytest.raises(FormatError, match=f"{task} markers must be 0.0 or 1.0"):
            tasks.load_batch(path)

    @pytest.mark.parametrize("where", ["first_chunk", "last_chunk"])
    @pytest.mark.parametrize("case", ["missing", "second_in_window", "outside"])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_one_special_per_window(self, tmp_path, task, case, where):
        # a valid step is written over the file's: a marker of 0 or 1, or a
        # one-hot distractor or X; n rows of T = 30 span three load chunks
        spec = TaskSpec(TaskKind(task), 30)
        n = 1200 if spec.regression else 400
        assert n > 2 * tasks.IO_CHUNK_BYTES // (30 * spec.n_in * 8)
        batch = tasks.generate(spec, n, 40)
        row = 0 if where == "first_chunk" else n - 1
        lo, hi = spec.windows()[0]
        special = 1 if spec.regression else SYMBOL_X
        first = np.flatnonzero(batch.symbols[row] >= special)[0]
        step, symbol = {"missing": (first, 0),
                        "second_in_window": (lo - 1 if first != lo - 1 else hi - 1, special),
                        "outside": (29, special)}[case]
        if spec.regression:
            change = {(row, step, 1): float(symbol)}
        else:
            change = {(row, step, c): float(c == symbol) for c in range(spec.n_in)}
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, batch)
        rewrite_inputs(path, change)
        with pytest.raises(FormatError, match=f"{task} inputs must hold exactly one"):
            tasks.load_batch(path)

    @pytest.mark.parametrize("row", [0, 1099], ids=["first_block", "second_block"])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_targets_must_follow_the_inputs(self, tmp_path, task, row):
        # a target the marked values or the specials do not give: the mean
        # of adding moved to 0.999, the product of multiplication nudged by
        # one ulp, a class moved to the next one; 1100 rows span two blocks
        batch = generate_task(task, 30, 1100, 41)
        assert batch.n > tasks.GEN_BLOCK_ROWS
        if task == "adding":
            batch.targets[row] = 0.999
        elif task == "multiplication":
            batch.targets[row] = np.nextafter(batch.targets[row], 1.0)
        else:
            batch.targets[row] = (batch.targets[row] + 1) % batch.spec.n_out
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, batch)
        with pytest.raises(FormatError, match=rf"{task} targets must be .*; sequence {row} has"):
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

    def test_class_ids_checked_before_the_targets_dtype_cast(self, tmp_path):
        # as uint8, class id 257 would read as 1, a valid class; no file may
        # name another targets_dtype than its task's
        batch = generate_task("temporal_order", 30, 5, 24)
        batch.targets[3] = 257
        path = tmp_path / "order.dat"
        tasks.save_batch(path, batch)
        rewrite_header(path, targets_dtype="uint8")
        with pytest.raises(FormatError, match='targets_dtype must be "int64", header says "uint8"'):
            tasks.load_batch(path)

    @pytest.mark.parametrize("dtype, target", [("float32", None), ("float16", 1e6)],
                             ids=["float32_rounds", "float16_overflows"])
    def test_targets_dtype_must_hold_the_targets_exactly(self, tmp_path, dtype, target):
        # float32 would round the adding targets; float16 turns 1e6 into inf
        batch = generate_task("adding", 30, 5, 24)
        if target is not None:
            batch.targets[2, 0] = target
        path = tmp_path / "adding.dat"
        tasks.save_batch(path, batch)
        rewrite_header(path, targets_dtype=dtype)
        with pytest.raises(FormatError,
                           match=f'targets_dtype must be "float64", header says "{dtype}"'):
            tasks.load_batch(path)

    @pytest.mark.parametrize("task, dtype", [("adding", "float64")])
    def test_targets_dtype_that_holds_the_targets_loads(self, tmp_path, task, dtype):
        batch = generate_task(task, 30, 5, 24)
        path = tmp_path / f"{task}.dat"
        tasks.save_batch(path, batch)
        rewrite_header(path, targets_dtype=dtype)
        loaded = tasks.load_batch(path)
        assert loaded.targets.dtype == np.dtype(dtype)
        npt.assert_array_equal(loaded.targets, batch.targets)

    def test_class_targets_are_saved_as_int64(self, tmp_path):
        batch = generate_task("temporal_order", 30, 5, 24)
        batch.targets = batch.targets.astype(np.int32)
        path = tmp_path / "order.dat"
        tasks.save_batch(path, batch)
        assert json.loads(path.read_bytes().split(b"\n")[1])["targets_dtype"] == "int64"
        loaded = tasks.load_batch(path)
        assert loaded.targets.dtype == np.int64
        npt.assert_array_equal(loaded.targets, batch.targets)

    def test_save_does_not_cast_float_class_targets(self, tmp_path):
        # int64 could not hold 1.5; the save fails instead of writing 1
        batch = generate_task("temporal_order", 30, 5, 24)
        batch.targets = batch.targets + 0.5
        with pytest.raises(TypeError, match="same_kind"):
            tasks.save_batch(tmp_path / "order.dat", batch)

    def test_save_to_a_device_writes_through_it(self):
        # /dev/null can be neither cut nor sought; the magic goes first
        tasks.save_batch(os.devnull, generate_task("adding", 30, 600, 24))


def dense_bytes(batch) -> int:
    """Bytes of the batch's inputs as float64, as the file holds them."""
    return batch.n * batch.spec.T * batch.spec.n_in * 8


def held_bytes(batch) -> int:
    """Bytes of the arrays a batch holds: n*T of symbols, n*T*8 of values
    for adding and multiplication, and the targets."""
    values = 0 if batch.values is None else batch.values.nbytes
    return batch.symbols.nbytes + values + batch.targets.nbytes


class TestMemory:
    """Each split's arrays exist once between generation and the file, and
    generation and the file boundary need no more than one block or chunk of
    rows beside them.  Bounds are in bytes of the inputs as float64
    (n * T * n_in * 8), of one generation block or of one file chunk."""

    def test_save_writes_without_copying_the_inputs(self, tmp_path):
        # the float64 inputs go out one chunk at a time
        batch = generate_task("temporal_order", 100, 2000, 34)
        _, peak = traced_peak(lambda: tasks.save_batch(tmp_path / "order.dat", batch))
        assert peak < 0.05 * dense_bytes(batch)

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_save_builds_one_file_chunk_at_a_time(self, tmp_path, task, n):
        # whatever n, one reused float64 buffer of one file chunk, plus for
        # temporal order the intp copy of its symbols that np.take indexes with
        batch = generate_task(task, 100, n, 34)
        _, peak = traced_peak(lambda: tasks.save_batch(tmp_path / "split.dat", batch))
        assert peak < 1.25 * tasks.IO_CHUNK_BYTES

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_generation_builds_the_inputs_in_place(self, task, n):
        # beside the returned arrays, at most one block of int64 distractor
        # draws and a few (n,) vectors; a temporary that grows with n passes
        # at most one of the two sizes
        generate_task(task, 100, 1, 35)  # first-call allocations of numpy
        batch, peak = traced_peak(lambda: generate_task(task, 100, n, 35))
        block_draws = tasks.GEN_BLOCK_ROWS * 100 * 8
        assert peak - held_bytes(batch) < 1.25 * block_draws

    def test_load_needs_no_input_sized_temporary(self, tmp_path):
        # both decoders, each beside the arrays it returns
        for task, n in (("temporal_order", 2000), ("adding", 8000), ("multiplication", 8000)):
            path = tmp_path / f"{task}.dat"
            tasks.save_batch(path, generate_task(task, 100, n, 36))
            loaded, peak = traced_peak(lambda: tasks.load_batch(path))
            assert peak - held_bytes(loaded) < 0.05 * dense_bytes(loaded), task
