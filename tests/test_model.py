import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import forward_reference
from srngate import model, tasks
from srngate.errors import ConfigError, DimensionError, FormatError, NumericalError
from srngate.model import LossKind, OutputActivation


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
        npt.assert_array_equal(tr.z, np.zeros((1, 4, 3)))
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
        npt.assert_allclose(tr.z[0], z_ref, rtol=1e-15)
        npt.assert_allclose(tr.y[0], [y_ref], rtol=1e-14)

    def test_deterministic(self):
        p = tiny_params(3)
        seq = np.random.default_rng(4).standard_normal((1, 6, 2))
        t1 = model.forward_batch(p, seq)
        t2 = model.forward_batch(p, seq)
        assert t1.a.tobytes() == t2.a.tobytes()
        assert t1.y.tobytes() == t2.y.tobytes()

    def test_fprime_identity(self):
        p = tiny_params(5)
        tr = model.forward_batch(p, np.random.default_rng(6).standard_normal((1, 5, 2)))
        npt.assert_array_equal(tr.fprime, 1.0 - tr.z * tr.z)
        assert np.all(tr.fprime > 0) and np.all(tr.fprime <= 1)
        assert np.all(np.abs(tr.z) < 1)

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
        with pytest.raises(DimensionError):
            model.forward_batch(p, np.zeros((1, 4, 2)), z0=np.zeros(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_reports_step(self):
        p = tiny_params(12)
        seq = np.zeros((1, 5, 2))
        seq[0, 2, 0] = np.inf
        with pytest.raises(NumericalError, match="step 3"):
            model.forward_batch(p, seq)


class TestForwardOracle:
    """The forward pass against the step-by-step reference, bit for bit."""

    def _assert_bit_equal(self, params, inputs, z0=None):
        trace = model.forward_batch(params, inputs, z0)
        ref = forward_reference(params, inputs, z0)
        for name in ("a", "z", "fprime", "y"):
            assert getattr(trace, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_temporal_order_chunk(self):
        params = model.init_gaussian(6, 100, 4, 0.01, seed=1,
                                     output_activation=OutputActivation.SOFTMAX)
        self._assert_bit_equal(params, tasks.gen_temporal_order(T=100, n=512, seed=2).inputs)

    def test_adding_long(self):
        params = model.init_gaussian(2, 100, 1, 0.01, seed=3)
        self._assert_bit_equal(params, tasks.gen_adding(T=200, n=10, seed=4).inputs)

    def test_single_sequence_nonzero_start(self):
        rng = np.random.default_rng(5)
        params = tiny_params(6, n_in=3, n_hid=7, n_out=2)
        self._assert_bit_equal(params, rng.standard_normal((1, 9, 3)),
                               z0=rng.standard_normal(7))

    def test_scoring_builds_no_states(self):
        # loss_batch reads only y; the (N, T, n_hid) states stay unbuilt
        params = tiny_params(7, n_out=3, activation=OutputActivation.SOFTMAX)
        trace = model.forward_batch(params, np.random.default_rng(8).standard_normal((4, 6, 2)))
        model.loss_batch(trace, np.array([0, 2, 1, 1]), LossKind.CROSS_ENTROPY)
        assert "z" not in trace.__dict__ and "fprime" not in trace.__dict__


class TestOutputLoss:
    def _trace_with_ypre(self, y_pre, activation):
        """A one-sequence trace whose readout comes from the given y_pre."""
        y_pre = y_pre[None]
        y = model._softmax(y_pre) if activation is OutputActivation.SOFTMAX else y_pre
        return model.ForwardTrace(
            inputs=np.zeros((1, 1, 1)), z0=np.zeros((1, 1)), a=np.zeros((1, 1, 1)),
            y=y, output_activation=activation,
        )

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

    def test_non_finite_weights_rejected(self):
        doc = json.loads(model.serialize(tiny_params(0)).decode())
        for bad in (float("nan"), float("inf")):
            doc["w_rec"][4] = bad
            with pytest.raises(FormatError, match="non-finite w_rec"):
                model.deserialize(json.dumps(doc).encode())

    def test_save_load_file(self, tmp_path):
        p = tiny_params(21)
        path = tmp_path / "model.json"
        model.save_model(path, p, seed=21)
        q = model.load_model(path)
        assert q.w_rec.tobytes() == p.w_rec.tobytes()
