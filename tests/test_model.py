import json
import math
import os
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from conftest import OPENBLAS_BUILD, forward_reference, generate_task
from srngate import bptt, model
from srngate.errors import ConfigError, DimensionError, FormatError, NumericalError
from srngate.model import LossKind, OutputActivation
from srngate.tasks import TaskKind


def tiny_params(seed=0, n_in=2, n_hid=3, n_out=2,
                activation=OutputActivation.LINEAR, scale=0.5):
    rng = np.random.default_rng(seed)
    return model.SrnParams(
        w_in=rng.standard_normal((n_in, n_hid)) * scale,
        w_rec=rng.standard_normal((n_hid, n_hid)) * scale,
        w_out=rng.standard_normal((n_hid, n_out)) * scale,
        b=rng.standard_normal(n_hid) * scale,
        output_activation=activation,
    )


class TestInitGaussian:
    def test_same_seed_bit_identical(self):
        p1 = model.init_gaussian(3, 5, 2, sigma=0.01, seed=42)
        p2 = model.init_gaussian(3, 5, 2, sigma=0.01, seed=42)
        for a, b in [(p1.w_in, p2.w_in), (p1.w_rec, p2.w_rec),
                     (p1.w_out, p2.w_out), (p1.b, p2.b)]:
            assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        p1 = model.init_gaussian(3, 5, 2, sigma=0.01, seed=1)
        p2 = model.init_gaussian(3, 5, 2, sigma=0.01, seed=2)
        assert not np.array_equal(p1.w_rec, p2.w_rec)

    def test_sample_statistics(self):
        # entry std is sigma * sqrt(n_hid); mean stays near zero
        sigma = 0.01
        n_hid = 80
        p = model.init_gaussian(40, n_hid, 40, sigma=sigma, seed=7)
        entries = np.concatenate([p.w_in.ravel(), p.w_rec.ravel(), p.w_out.ravel()])
        assert entries.size >= 10_000
        std = sigma * np.sqrt(n_hid)
        assert abs(entries.std() - std) < 0.05 * std
        assert abs(entries.mean()) < 3 * std / 100

    def test_biases_start_zero(self):
        p = model.init_gaussian(3, 5, 2, sigma=0.01, seed=0)
        npt.assert_array_equal(p.b, np.zeros(5))

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            model.init_gaussian(0, 5, 2, sigma=0.01, seed=0)
        with pytest.raises(ConfigError):
            model.init_gaussian(3, 5, 2, sigma=0.0, seed=0)


class TestForward:
    def test_zero_network_linear(self):
        p = model.SrnParams(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((3, 2)),
                            np.zeros(3), OutputActivation.LINEAR)
        tr = model.forward_batch(p, np.zeros((1, 4, 2)))
        npt.assert_array_equal(tr.a, np.zeros((1, 4, 3)))
        npt.assert_array_equal(tr.states[1:], np.zeros((4, 1, 3)))
        npt.assert_array_equal(tr.y, np.zeros((1, 2)))

    def test_zero_network_softmax_uniform(self):
        p = model.SrnParams(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((3, 4)),
                            np.zeros(3), OutputActivation.SOFTMAX)
        tr = model.forward_batch(p, np.zeros((1, 4, 2)))
        npt.assert_allclose(tr.y, [[0.25, 0.25, 0.25, 0.25]], rtol=0, atol=0)

    def test_matches_scalar_hand_computation(self):
        # 2 hidden units, T = 3, every number recomputed with plain floats
        w_in = np.array([[0.3, -0.2]])
        w_rec = np.array([[0.5, 0.1], [-0.4, 0.2]])
        w_out = np.array([[0.7], [-0.6]])
        b = np.array([0.05, -0.05])
        p = model.SrnParams(w_in, w_rec, w_out, b, OutputActivation.LINEAR)
        seq = np.array([[1.0], [-0.5], [2.0]])

        z_prev = [0.0, 0.0]
        a_ref, z_ref = [], []
        for k in range(3):
            a_k = [
                seq[k, 0] * 0.3 + z_prev[0] * 0.5 + z_prev[1] * (-0.4) + 0.05,
                seq[k, 0] * (-0.2) + z_prev[0] * 0.1 + z_prev[1] * 0.2 - 0.05,
            ]
            z_prev = [math.tanh(a_k[0]), math.tanh(a_k[1])]
            a_ref.append(a_k)
            z_ref.append(z_prev)
        y_ref = z_prev[0] * 0.7 + z_prev[1] * (-0.6)

        tr = model.forward_batch(p, seq[None])
        npt.assert_allclose(tr.a[0], a_ref, rtol=1e-15)
        npt.assert_allclose(tr.states[1:, 0], z_ref, rtol=1e-15)
        npt.assert_allclose(tr.y[0], [y_ref], rtol=1e-14)

    def test_deterministic(self):
        p = tiny_params(3)
        seq = np.random.default_rng(4).standard_normal((1, 6, 2))
        t1 = model.forward_batch(p, seq)
        t2 = model.forward_batch(p, seq)
        assert t1.a.tobytes() == t2.a.tobytes()
        assert t1.y.tobytes() == t2.y.tobytes()

    def test_fprime_identity(self):
        # the backward pass reads f' = 1 - z**2 off the forward's states
        p = tiny_params(5)
        tr = model.forward_batch(p, np.random.default_rng(6).standard_normal((1, 5, 2)))
        fprime = bptt.backward(p, tr, np.ones((1, 2)), bptt.BpttConfig(h=4)).fprime
        z = tr.states[:0:-1, 0]  # z(5)..z(1), depths 0..4
        npt.assert_array_equal(fprime[0], 1.0 - z * z)
        assert np.all(fprime > 0) and np.all(fprime <= 1)
        assert np.all(np.abs(tr.states[1:]) < 1)

    def test_softmax_normalized(self):
        p = tiny_params(7, n_out=5, activation=OutputActivation.SOFTMAX, scale=2.0)
        tr = model.forward_batch(p, np.random.default_rng(8).standard_normal((1, 6, 2)))
        assert abs(tr.y.sum() - 1.0) < 1e-12
        assert np.all(tr.y > 0)

    def test_batch_matches_single(self):
        p = tiny_params(9)
        batch = np.random.default_rng(10).standard_normal((4, 6, 2))
        bt = model.forward_batch(p, batch)
        for i in range(4):
            st = model.forward_batch(p, batch[i][None])
            npt.assert_allclose(bt.a[i], st.a[0], rtol=1e-13, atol=1e-15)
            npt.assert_allclose(bt.y[i], st.y[0], rtol=1e-13, atol=1e-15)

    def test_shape_errors(self):
        p = tiny_params(11)
        with pytest.raises(DimensionError):
            model.forward_batch(p, np.zeros((1, 4, 3)))
        with pytest.raises(DimensionError):
            model.forward_batch(p, np.zeros((4, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_reports_step(self):
        p = tiny_params(12)
        seq = np.zeros((1, 5, 2))
        seq[0, 2, 0] = np.inf
        with pytest.raises(NumericalError, match="step 3"):
            model.forward_batch(p, seq)


class TestForwardOracle:
    """The forward pass against the step-by-step reference, bit for bit."""

    def _assert_bit_equal(self, params, inputs):
        trace = model.forward_batch(params, inputs)
        ref = forward_reference(params, inputs)
        assert trace.a.tobytes() == ref.a.tobytes()
        assert trace.states[1:].transpose(1, 0, 2).tobytes() == ref.z.tobytes()
        assert trace.y.tobytes() == ref.y.tobytes()

    def test_temporal_order_chunk(self):
        params = model.init_gaussian(6, 100, 4, 0.01, seed=1,
                                     output_activation=OutputActivation.SOFTMAX)
        self._assert_bit_equal(params, generate_task("temporal_order", 100, 512, 2).dense_inputs())

    def test_adding_long(self):
        params = model.init_gaussian(2, 100, 1, 0.01, seed=3)
        self._assert_bit_equal(params, generate_task("adding", 200, 10, 4).dense_inputs())

    def test_scoring_builds_no_states(self):
        # loss_batch reads only y; the trace holds what the forward wrote and
        # no derivatives, which the backward pass computes for its horizon
        params = tiny_params(7, n_out=3, activation=OutputActivation.SOFTMAX)
        trace = model.forward_batch(params, np.random.default_rng(8).standard_normal((4, 6, 2)))
        model.loss_batch(trace, np.array([0, 2, 1, 1]), LossKind.CROSS_ENTROPY)
        assert set(vars(trace)) == {"inputs", "y", "output_activation", "steps", "states"}

    def test_states_are_kept_from_the_loop(self, monkeypatch):
        # the states are the buffer the step loop's tanh wrote, after the
        # zero start, so a forward and backward run tanh once per step and
        # never again
        rng = np.random.default_rng(9)
        params = tiny_params(10, n_in=3, n_hid=5)
        tanh, calls = np.tanh, []

        def counting_tanh(x, *args, **kwargs):
            calls.append(x.shape)
            return tanh(x, *args, **kwargs)

        monkeypatch.setattr(np, "tanh", counting_tanh)
        trace = model.forward_batch(params, rng.standard_normal((4, 6, 3)))
        _, deltas, _ = model.loss_batch(trace, rng.standard_normal((4, 2)), LossKind.MSE)
        bptt.backward(params, trace, deltas, bptt.BpttConfig(h=6))
        assert calls == [(4, 5)] * 6
        assert trace.states.shape == (7, 4, 5) and trace.states.flags.c_contiguous
        assert trace.states[0].tobytes() == np.zeros((4, 5)).tobytes()
        assert trace.states[1:].tobytes() == tanh(trace.steps).tobytes()


SCORING_CASES = {
    "N1_softmax": (1, OutputActivation.SOFTMAX),
    "N9_linear": (9, OutputActivation.LINEAR),
}


@pytest.fixture(params=list(SCORING_CASES))
def scoring_case(request):
    """(params, inputs (N, 11, 3)) of one named scoring case."""
    n_seqs, activation = SCORING_CASES[request.param]
    rng = np.random.default_rng(n_seqs)
    n_out = 4 if activation is OutputActivation.SOFTMAX else 2
    params = tiny_params(13, n_in=3, n_hid=7, n_out=n_out, activation=activation, scale=0.8)
    return params, rng.standard_normal((n_seqs, 11, 3))


class TestScoringTrace:
    """forward_batch(..., keep_trace=False) keeps one state block, not the
    per-step activations, and gives the same readout and the same errors."""

    @pytest.mark.parametrize("name", ["a", "n_steps"])
    def test_per_step_values_are_not_kept(self, name):
        trace = model.forward_batch(tiny_params(14), generate_task("adding", 10, 2, 71),
                                    keep_trace=False)
        assert trace.inputs is None and trace.steps is None and trace.states is None
        with pytest.raises(RuntimeError, match="scoring forward"):
            getattr(trace, name)

    # a full trace of an array checks every step once, after its loop;
    # test_batch_non_finite_value_names_its_step checks both modes

    @pytest.mark.parametrize("bad_step", [1, 4, 11])
    def test_non_finite_activation_names_the_same_step(self, scoring_case, bad_step):
        # tanh(inf) is finite, so only the check on a(k) itself can see it
        params, inputs = scoring_case
        inputs = inputs.copy()
        inputs[-1, bad_step - 1, 0] = np.inf
        with pytest.raises(NumericalError) as err:
            model.forward_batch(params, inputs)
        assert str(err.value) == f"non-finite activation at step {bad_step}"

    def test_spreading_nan_names_its_first_step(self, scoring_case):
        # the NaN at step 3 reaches every later a(k) through the recurrence
        params, inputs = scoring_case
        inputs = inputs.copy()
        inputs[0, 2, 1] = np.nan
        with np.errstate(invalid="ignore"):
            ref = forward_reference(params, inputs)
        assert np.isnan(ref.a[:, 2:]).any(axis=(0, 2)).all()
        with pytest.raises(NumericalError) as err:
            model.forward_batch(params, inputs)
        assert str(err.value) == "non-finite activation at step 3"

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(20, 30), np.array([22, 3, 3, 17])],
                             ids=["N1", "partial_last_chunk", "index_array"])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_batch_gives_the_dense_readout(self, task, rows):
        # a SequenceBatch is scored one step at a time and gives the y of
        # the full trace of its dense inputs, bit for bit; 23 rows in
        # chunks of 10 leave a last chunk of 3
        batch = generate_task(task, 30, 23, 44)
        spec = batch.spec
        params = model.init_gaussian(spec.n_in, 20, spec.n_out, 0.05, seed=45,
                                     output_activation=spec.output_activation)
        part = batch.subset(rows)
        dense = model.forward_batch(params, part.dense_inputs())
        streamed = model.forward_batch(params, part, keep_trace=False)
        full = model.forward_batch(params, part)
        assert streamed.y.tobytes() == dense.y.tobytes() == full.y.tobytes()
        assert streamed.inputs is None
        assert full.inputs.tobytes() == part.dense_inputs().tobytes()

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("bad_step", [1, 12, 30])
    def test_batch_non_finite_value_names_its_step(self, bad_step, value):
        # a NaN reaches every later a(k) through the recurrence; the full
        # trace checks all steps after its loop, scoring each step at once
        batch = generate_task("adding", 30, 5, 46)
        batch.values[3, bad_step - 1] = value
        params = model.init_gaussian(2, 20, 1, 0.05, seed=47)
        for keep_trace in (True, False):
            with pytest.raises(NumericalError) as err:
                model.forward_batch(params, batch, keep_trace=keep_trace)
            assert str(err.value) == f"non-finite activation at step {bad_step}"

    def test_batch_must_match_the_input_width(self):
        with pytest.raises(DimensionError, match=r"\(4, 30, 6\) does not match n_in=2"):
            model.forward_batch(tiny_params(), generate_task("temporal_order", 30, 4, 48),
                                keep_trace=False)

    @pytest.mark.parametrize("keep_trace", [True, False])
    def test_recurrence_overflow_is_reported_not_warned(self, keep_trace):
        # finite weights: step 1 gives a = value * 1e308 (the adding values
        # lie in [0, 1), the markers meet a zero row), so z = 1, and step 2
        # overflows in z @ w_rec; pytest turns warnings into errors, so a
        # warning would fail the test
        p = model.SrnParams(np.array([[1e308, 1e308], [0.0, 0.0]]), np.full((2, 2), 1e308),
                            np.ones((2, 1)), np.zeros(2), OutputActivation.LINEAR)
        with pytest.raises(NumericalError, match="non-finite activation at step 2"):
            model.forward_batch(p, generate_task("adding", 10, 3, 72), keep_trace=keep_trace)

    @pytest.mark.parametrize("activation,kind,targets", [
        (OutputActivation.LINEAR, LossKind.MSE, np.zeros((2, 2))),
        (OutputActivation.SOFTMAX, LossKind.CROSS_ENTROPY, np.zeros(2, dtype=int))])
    def test_readout_overflow_is_reported_by_the_loss(self, activation, kind, targets):
        # the states stay finite at z = tanh(10) from the bias alone; the
        # sum of three z * 1e308 terms overflows
        p = model.SrnParams(np.zeros((2, 3)), np.zeros((3, 3)), np.full((3, 2), 1e308),
                            np.full(3, 10.0), activation)
        trace = model.forward_batch(p, generate_task("adding", 10, 2, 73), keep_trace=False)
        with pytest.raises(NumericalError, match="non-finite loss"):
            model.loss_batch(trace, targets, kind)

    # scoring splits the rows into blocks, one thread each; these force the
    # block count, so that they mean the same on a one-core box

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("n_seqs", [1, 2, 3, 5, 150, 511, 512, 1000])
    @pytest.mark.parametrize("n_hid", [50, 100])
    @pytest.mark.parametrize("task", [kind.value for kind in TaskKind])
    def test_row_blocks_give_the_full_trace_readout(self, monkeypatch, task, n_hid, n_seqs,
                                                    blocks):
        # every block has at least 2 rows (5 rows in 3 blocks run as 2 and
        # 3): numpy hands a one-row operand to gemv, which rounds
        # differently from the gemm of the whole batch.  Where BLAS changes
        # kernel between a block and the whole (with OpenBLAS 0.3.31 on
        # AVX-512: 150 rows at 100 hidden units, 5 rows at 50), the probe
        # keeps one block, so y is still bit-equal
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: blocks)
        batch = generate_task(task, 10, n_seqs, 60)
        spec = batch.spec
        params = model.init_gaussian(spec.n_in, n_hid, spec.n_out, 0.05, seed=61,
                                     output_activation=spec.output_activation)
        full = model.forward_batch(params, batch)
        assert model.forward_batch(params, batch, keep_trace=False).y.tobytes() == \
            full.y.tobytes()

    @pytest.mark.parametrize("n_seqs, blocks, sizes", [
        (3, 3, [3]), (5, 3, [2, 3]), (7, 3, [2, 2, 3]), (512, 2, [256, 256])])
    def test_each_block_runs_in_its_own_thread(self, monkeypatch, n_seqs, blocks, sizes):
        # every block waits at the barrier until all blocks have reached it,
        # so the forward ends only if the blocks run at the same time
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: blocks)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        recur, seen, barrier = model._recur, [], threading.Barrier(len(sizes), timeout=10)

        def spy(params, n_steps, step_inputs, steps, *args):
            seen.append((steps.shape[1], threading.current_thread()))
            barrier.wait()
            return recur(params, n_steps, step_inputs, steps, *args)

        monkeypatch.setattr(model, "_recur", spy)
        model.forward_batch(tiny_params(62), generate_task("adding", 10, n_seqs, 74),
                            keep_trace=False)
        assert sorted(rows for rows, _ in seen) == sorted(sizes)
        assert threading.current_thread() in {thread for _, thread in seen}

    @pytest.mark.parametrize("late, early", [(8, 0), (0, 8)], ids=["last_block", "first_block"])
    def test_earliest_bad_step_over_all_blocks(self, monkeypatch, late, early):
        # 9 rows in blocks of 3: the step named is the earliest of any row,
        # whichever block it lies in and whichever block ends first
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 3)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        batch = generate_task("adding", 12, 9, 63)
        batch.values[late, 9] = np.inf
        batch.values[early, 2] = np.inf
        with pytest.raises(NumericalError) as err:
            model.forward_batch(tiny_params(64), batch, keep_trace=False)
        assert str(err.value) == "non-finite activation at step 3"

    def test_exception_in_a_worker_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 2)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        recur = model._recur

        def failing_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker block")
            return recur(*args)

        monkeypatch.setattr(model, "_recur", failing_off_the_calling_thread)
        with pytest.raises(MemoryError, match="worker block"):
            model.forward_batch(tiny_params(65), generate_task("adding", 10, 6, 65),
                                keep_trace=False)

    def test_failed_worker_start_raises_its_own_error(self, monkeypatch):
        # a worker that never started is not joined, so the caller sees why
        # it did not start, and the BLAS count is still restored
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 2)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)

        def cannot_start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", cannot_start)
        setter = model._blas_thread_setter() or (lambda count: count)
        previous = setter(2)
        try:
            with pytest.raises(RuntimeError) as err:
                model.forward_batch(tiny_params(65), generate_task("adding", 10, 6, 75),
                                    keep_trace=False)
            assert str(err.value) == "can't start new thread"
            assert setter(2) == 2
        finally:
            setter(previous)

    def test_exceptions_are_raised_in_block_order(self, monkeypatch):
        # block 1 raises before block 0 does, so the first exception raised
        # is not the one that reaches the caller; the worker has ended when
        # the forward returns
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 2)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        caller, worker, raised = threading.current_thread(), [], threading.Event()

        def both_blocks_fail(*args):
            if threading.current_thread() is caller:
                assert raised.wait(10)
                raise ValueError("block 0")
            worker.append(threading.current_thread())
            try:
                raise ValueError("block 1")
            finally:
                raised.set()

        monkeypatch.setattr(model, "_recur", both_blocks_fail)
        with pytest.raises(ValueError, match="block 0"):
            model.forward_batch(tiny_params(65), generate_task("adding", 10, 6, 65),
                                keep_trace=False)
        assert not worker[0].is_alive()

    def test_worker_exceptions_are_raised_in_block_order(self, monkeypatch):
        # 7 rows run as blocks of 2, 2 and 3 rows; block 2 raises first,
        # and block 1's exception is the one raised
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 3)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        caller, recur, raised = threading.current_thread(), model._recur, threading.Event()

        def two_workers_fail(params, n_steps, step_inputs, steps, *args):
            if threading.current_thread() is caller:
                return recur(params, n_steps, step_inputs, steps, *args)
            if steps.shape[1] == 2:
                assert raised.wait(10)
                raise ValueError("block 1")
            try:
                raise ValueError("block 2")
            finally:
                raised.set()

        monkeypatch.setattr(model, "_recur", two_workers_fail)
        with pytest.raises(ValueError, match="block 1"):
            model.forward_batch(tiny_params(65), generate_task("adding", 10, 7, 77),
                                keep_trace=False)

    def test_no_thread_outlives_the_forward(self, monkeypatch):
        # after a forward that succeeds and after one whose workers raise
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 3)
        monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        params, batch = tiny_params(65), generate_task("adding", 10, 9, 78)
        before = threading.active_count()
        model.forward_batch(params, batch, keep_trace=False)
        assert threading.active_count() == before
        caller, recur = threading.current_thread(), model._recur

        def failing_off_the_calling_thread(*args):
            if threading.current_thread() is not caller:
                raise MemoryError("worker block")
            return recur(*args)

        monkeypatch.setattr(model, "_recur", failing_off_the_calling_thread)
        with pytest.raises(MemoryError, match="worker block"):
            model.forward_batch(params, batch, keep_trace=False)
        assert threading.active_count() == before

    def test_unknown_cores_run_one_block(self, monkeypatch):
        # where os.sched_getaffinity is missing (macOS) scoring keeps one
        # block, whatever BLAS thread count the caller holds
        monkeypatch.delattr(os, "sched_getaffinity")
        recur, rows = model._recur, []

        def spy(params, n_steps, step_inputs, steps, *args):
            rows.append(steps.shape[1])
            return recur(params, n_steps, step_inputs, steps, *args)

        monkeypatch.setattr(model, "_recur", spy)
        params = model.init_gaussian(6, 100, 4, 0.01, seed=67,
                                     output_activation=OutputActivation.SOFTMAX)
        batch = generate_task("temporal_order", 10, 512, 68)
        full = model.forward_batch(params, batch)
        with model._blas_threads(2):
            scoring = model.forward_batch(params, batch, keep_trace=False)
        assert rows == [512, 512]
        assert scoring.y.tobytes() == full.y.tobytes()

    def test_many_blocks_under_frequent_thread_switches(self, monkeypatch):
        # more blocks than cores, switching threads every microsecond: each
        # block writes only its own rows of the shared buffers
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 8)
        params = model.init_gaussian(6, 20, 4, 0.05, seed=69,
                                     output_activation=OutputActivation.SOFTMAX)
        batch = generate_task("temporal_order", 50, 64, 70)
        full = model.forward_batch(params, batch)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                scoring = model.forward_batch(params, batch, keep_trace=False)
                assert scoring.y.tobytes() == full.y.tobytes()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.skipif(not OPENBLAS_BUILD, reason="numpy is not built against OpenBLAS")
    def test_openblas_build_has_the_setter(self):
        # without it, scoring silently runs one block and the restore test
        # below is skipped
        assert model._blas_thread_setter() is not None

    @pytest.mark.skipif(model._blas_thread_setter() is None,
                        reason="no openblas_set_num_threads_local in this process")
    def test_hold_restores_the_replaced_count(self):
        setter = model._blas_thread_setter()
        previous = setter(2)
        try:
            with pytest.raises(ValueError):
                with model._blas_threads(1):
                    with model._blas_threads(3):
                        assert setter(3) == 3
                    assert setter(1) == 1
                    raise ValueError
            assert setter(2) == 2
        finally:
            setter(previous)

    def test_hold_without_the_setter_holds_nothing(self, monkeypatch):
        setter = model._blas_thread_setter() or (lambda count: 2)
        previous = setter(2)
        monkeypatch.setattr(model, "_blas_thread_setter", lambda: None)
        try:
            with model._blas_threads(1):
                assert setter(2) == 2
        finally:
            setter(previous)

    @pytest.mark.skipif(model._blas_thread_setter() is None,
                        reason="no openblas_set_num_threads_local in this process")
    @pytest.mark.parametrize("probe", ["measured", "forced"])
    def test_blas_thread_count_is_restored(self, monkeypatch, probe):
        # the setter is process-wide: a count left at 1 would change the
        # rounding of later products, such as bptt.backward's w_rec
        # contraction at h * N = 1000, which OpenBLAS splits by thread
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 2)
        monkeypatch.setattr(model, "_exact_splits", {})
        if probe == "forced":
            monkeypatch.setattr(model, "_exact_split", lambda *args: True)
        setter = model._blas_thread_setter()
        previous = setter(2)  # where one thread would round the product otherwise
        try:
            rng = np.random.default_rng(66)
            left, right = rng.standard_normal((100, 1000)), rng.standard_normal((1000, 100))
            before = (left @ right).tobytes()
            params = model.init_gaussian(2, 100, 1, 0.01, seed=67)
            batch = generate_task("adding", 10, 512, 68)
            model.forward_batch(params, batch, keep_trace=False)
            assert (left @ right).tobytes() == before
            batch.values[-1, 4] = np.nan
            with pytest.raises(NumericalError, match="step 5"):
                model.forward_batch(params, batch, keep_trace=False)
            assert (left @ right).tobytes() == before
            assert setter(2) == 2
        finally:
            setter(previous)


class TestOutputLoss:
    def _trace_with_ypre(self, y_pre, activation):
        """A one-sequence trace whose readout comes from the given y_pre."""
        y_pre = y_pre[None]
        y = model._softmax(y_pre) if activation is OutputActivation.SOFTMAX else y_pre
        return model.ForwardTrace(inputs=np.zeros((1, 1, 1)), y=y, output_activation=activation)

    def _loss(self, y_pre, activation, target, kind, tolerance=0.04):
        """(loss, output_delta, correct) of the single sequence."""
        losses, deltas, correct = model.loss_batch(
            self._trace_with_ypre(y_pre, activation), np.asarray(target)[None], kind,
            tolerance)
        return float(losses[0]), deltas[0], bool(correct[0])

    def test_exact_hit_mse(self):
        loss, delta, correct = self._loss(np.array([0.4, -0.2]), OutputActivation.LINEAR,
                                          np.array([0.4, -0.2]), LossKind.MSE)
        assert loss == 0.0
        npt.assert_array_equal(delta, np.zeros(2))
        assert correct

    def test_uniform_softmax_cross_entropy(self):
        loss, _, _ = self._loss(np.zeros(4), OutputActivation.SOFTMAX, 2,
                                LossKind.CROSS_ENTROPY)
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_mse_delta_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        y_pre = rng.standard_normal(5)
        t = rng.standard_normal(5)
        _, delta, _ = self._loss(y_pre, OutputActivation.LINEAR, t, LossKind.MSE)
        eps = 1e-6
        for i in range(5):
            up, dn = y_pre.copy(), y_pre.copy()
            up[i] += eps
            dn[i] -= eps
            lu = self._loss(up, OutputActivation.LINEAR, t, LossKind.MSE)[0]
            ld = self._loss(dn, OutputActivation.LINEAR, t, LossKind.MSE)[0]
            fd = (lu - ld) / (2 * eps)
            npt.assert_allclose(delta[i], fd, rtol=1e-6, atol=1e-9)

    def test_cross_entropy_delta_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        y_pre = rng.standard_normal(4)
        cls = 1
        _, delta, _ = self._loss(y_pre, OutputActivation.SOFTMAX, cls,
                                 LossKind.CROSS_ENTROPY)
        eps = 1e-6
        for i in range(4):
            up, dn = y_pre.copy(), y_pre.copy()
            up[i] += eps
            dn[i] -= eps
            lu = self._loss(up, OutputActivation.SOFTMAX, cls, LossKind.CROSS_ENTROPY)[0]
            ld = self._loss(dn, OutputActivation.SOFTMAX, cls, LossKind.CROSS_ENTROPY)[0]
            fd = (lu - ld) / (2 * eps)
            npt.assert_allclose(delta[i], fd, rtol=1e-6, atol=1e-9)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            y_pre = rng.standard_normal(3)
            t = rng.standard_normal(3)
            assert self._loss(y_pre, OutputActivation.LINEAR, t, LossKind.MSE)[0] >= 0
            assert self._loss(y_pre, OutputActivation.SOFTMAX, 0,
                              LossKind.CROSS_ENTROPY)[0] >= 0

    def test_pairing_mismatch_fatal(self):
        tr = self._trace_with_ypre(np.zeros(3), OutputActivation.LINEAR)
        with pytest.raises(ConfigError):
            model.loss_batch(tr, np.array([0]), LossKind.CROSS_ENTROPY)
        tr = self._trace_with_ypre(np.zeros(3), OutputActivation.SOFTMAX)
        with pytest.raises(ConfigError):
            model.loss_batch(tr, np.zeros((1, 3)), LossKind.MSE)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_fatal(self):
        # 0.5 * (1e200)**2 overflows; the error names the loss, not a later delta
        tr = self._trace_with_ypre(np.array([1e200]), OutputActivation.LINEAR)
        with pytest.raises(NumericalError, match="non-finite loss"):
            model.loss_batch(tr, np.zeros((1, 1)), LossKind.MSE)

    def test_class_id_out_of_range_fatal(self):
        # a class id of -1 must not wrap around to the last output
        tr = self._trace_with_ypre(np.zeros(3), OutputActivation.SOFTMAX)
        for cls in (-1, 3):
            with pytest.raises(ConfigError, match="class ids"):
                model.loss_batch(tr, np.array([cls]), LossKind.CROSS_ENTROPY)

    def test_loss_batch_matches_single(self):
        p = tiny_params(16, n_out=3, activation=OutputActivation.SOFTMAX)
        batch = np.random.default_rng(17).standard_normal((5, 4, 2))
        targets = np.array([0, 2, 1, 1, 0])
        bt = model.forward_batch(p, batch)
        losses, deltas, correct = model.loss_batch(bt, targets, LossKind.CROSS_ENTROPY)
        for i in range(5):
            st = model.forward_batch(p, batch[i:i + 1])
            loss_i, delta_i, correct_i = model.loss_batch(st, targets[i:i + 1],
                                                          LossKind.CROSS_ENTROPY)
            npt.assert_allclose(losses[i], loss_i[0], rtol=1e-12)
            npt.assert_allclose(deltas[i], delta_i[0], rtol=1e-12, atol=1e-15)
            assert correct[i] == correct_i[0]


class TestSerialization:
    def test_round_trip_bit_exact(self):
        for seed in range(5):
            p = tiny_params(seed, n_in=3, n_hid=4, n_out=2,
                            activation=OutputActivation.SOFTMAX if seed % 2 else
                            OutputActivation.LINEAR)
            q = model.deserialize(model.serialize(p, seed=seed))
            assert q.output_activation == p.output_activation
            for a, b in [(p.w_in, q.w_in), (p.w_rec, q.w_rec),
                         (p.w_out, q.w_out), (p.b, q.b)]:
                assert a.tobytes() == b.tobytes()

    def test_document_is_self_describing(self):
        p = tiny_params(0)
        doc = json.loads(model.serialize(p, seed=9).decode())
        assert doc["format"] == model.MODEL_FORMAT
        assert doc["n_in"] == 2 and doc["n_hid"] == 3 and doc["n_out"] == 2
        assert doc["seed"] == 9

    def test_malformed_input(self):
        with pytest.raises(FormatError):
            model.deserialize(b"not json at all {")
        with pytest.raises(FormatError):
            model.deserialize(b'{"format": "something-else"}')
        doc = json.loads(model.serialize(tiny_params(0)).decode())
        del doc["w_rec"]
        with pytest.raises(FormatError):
            model.deserialize(json.dumps(doc).encode())
        # tiny_params has n_in = 2 and n_hid = 3: int() would accept these
        for sizes in ({"n_in": 2.9}, {"n_hid": "3"}, {"n_out": True}, {"n_in": 2.0}):
            doc = {**json.loads(model.serialize(tiny_params(0)).decode()), **sizes}
            with pytest.raises(FormatError, match="layer sizes must be JSON integers"):
                model.deserialize(json.dumps(doc).encode())

    def test_non_finite_weights_rejected(self):
        doc = json.loads(model.serialize(tiny_params(0)).decode())
        for bad in (float("nan"), float("inf")):
            doc["w_rec"][4] = bad
            with pytest.raises(FormatError, match="non-finite w_rec"):
                model.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("sizes", [{"n_in": -1}, {"n_out": -1},
                                       {"n_hid": 0, "w_in": [], "w_rec": [],
                                        "w_out": [], "b": []}],
                             ids=["n_in", "n_out", "n_hid"])
    def test_layer_sizes_below_one_rejected(self, sizes):
        # a negative size would otherwise act as a reshape wildcard
        doc = {**json.loads(model.serialize(tiny_params(0)).decode()), **sizes}
        with pytest.raises(FormatError, match="layer sizes must be at least 1"):
            model.deserialize(json.dumps(doc).encode())

    def test_save_load_file(self, tmp_path):
        p = tiny_params(21)
        path = tmp_path / "model.json"
        model.save_model(path, p, seed=21)
        q = model.load_model(path)
        assert q.w_rec.tobytes() == p.w_rec.tobytes()
