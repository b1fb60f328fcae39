import numpy as np
import numpy.testing as npt
import pytest

from conftest import delta_norm_profile, fd_gradient, jacobian, random_net, random_tiny_case

from srngate import bptt, model
from srngate.errors import ConfigError
from srngate.model import LossKind, OutputActivation


def run_backward(params, seq, target, kind, h):
    """Backward pass over the one-sequence batch seq[None]."""
    tr = model.forward_batch(params, seq[None])
    _, deltas, _ = model.loss_batch(tr, np.asarray(target)[None], kind)
    return bptt.backward(params, tr, deltas, bptt.BpttConfig(h=h)), tr


class TestGradientOracle:
    """Full-depth BPTT gradients must match central finite differences."""

    def _check_net(self, seed, activation, kind):
        params, seq, target, T = random_tiny_case(seed, activation, kind)
        result, _ = run_backward(params, seq, target, kind, h=T)
        for block, gname in [("w_in", "w_in"), ("w_rec", "w_rec"),
                             ("w_out", "w_out"), ("b", "b")]:
            fd = fd_gradient(params, seq, target, kind, block)
            npt.assert_allclose(getattr(result.grads, gname), fd,
                                rtol=1e-6, atol=1e-9,
                                err_msg=f"seed={seed} block={block}")

    def test_mse_nets(self):
        for seed in range(3):
            self._check_net(seed, OutputActivation.LINEAR, LossKind.MSE)

    def test_cross_entropy_nets(self):
        for seed in range(3, 6):
            self._check_net(seed, OutputActivation.SOFTMAX, LossKind.CROSS_ENTROPY)


class TestBackwardStructure:
    def test_zero_output_delta(self):
        rng = np.random.default_rng(20)
        params = random_net(rng, 2, 3, 2, OutputActivation.LINEAR)
        tr = model.forward_batch(params, rng.standard_normal((1, 5, 2)))
        res = bptt.backward(params, tr, np.zeros((1, 2)), bptt.BpttConfig(h=5))
        npt.assert_array_equal(res.deltas, np.zeros_like(res.deltas))
        npt.assert_array_equal(res.grads.w_rec, np.zeros((3, 3)))
        npt.assert_array_equal(res.grads.w_in, np.zeros((2, 3)))
        npt.assert_array_equal(res.grads.w_out, np.zeros((3, 2)))
        npt.assert_array_equal(res.grads.b, np.zeros(3))
        npt.assert_array_equal(res.delta_norms, np.zeros((1, 6)))

    def test_severed_recurrence(self):
        rng = np.random.default_rng(21)
        params = random_net(rng, 2, 3, 2, OutputActivation.LINEAR)
        params.w_rec[:] = 0.0
        result, _ = run_backward(params, rng.standard_normal((5, 2)),
                                 rng.standard_normal(2), LossKind.MSE, h=5)
        assert np.any(result.deltas[0, 0] != 0)
        npt.assert_array_equal(result.deltas[0, 1:], np.zeros_like(result.deltas[0, 1:]))

    def test_delta_count_and_norms(self):
        rng = np.random.default_rng(22)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR)
        result, _ = run_backward(params, rng.standard_normal((7, 2)),
                                 rng.standard_normal(2), LossKind.MSE, h=4)
        assert result.deltas.shape == (1, 5, 4)
        recomputed = [float(np.sqrt(np.sum(d * d))) for d in result.deltas[0]]
        npt.assert_array_equal(result.delta_norms[0], recomputed)

    def test_h_greater_than_T_fatal(self):
        rng = np.random.default_rng(23)
        params = random_net(rng, 2, 3, 2, OutputActivation.LINEAR)
        tr = model.forward_batch(params, rng.standard_normal((1, 4, 2)))
        with pytest.raises(ConfigError):
            bptt.backward(params, tr, np.zeros((1, 2)), bptt.BpttConfig(h=5))

    def test_linearity_in_output_delta(self):
        rng = np.random.default_rng(24)
        params = random_net(rng, 2, 4, 3, OutputActivation.LINEAR)
        tr = model.forward_batch(params, rng.standard_normal((1, 6, 2)))
        d = rng.standard_normal((1, 3))
        cfg = bptt.BpttConfig(h=6)
        r1 = bptt.backward(params, tr, d, cfg)
        r2 = bptt.backward(params, tr, 3.5 * d, cfg)
        npt.assert_allclose(r2.deltas, 3.5 * r1.deltas, rtol=1e-12)
        npt.assert_allclose(r2.grads.w_rec, 3.5 * r1.grads.w_rec, rtol=1e-12)
        npt.assert_allclose(r2.grads.w_in, 3.5 * r1.grads.w_in, rtol=1e-12)

    def test_truncation_freezes_shallow_grads(self):
        # an h-step horizon must ignore anything older than h steps
        rng = np.random.default_rng(25)
        params = random_net(rng, 2, 3, 2, OutputActivation.LINEAR)
        seq = rng.standard_normal((8, 2))
        target = rng.standard_normal(2)
        r_full, _ = run_backward(params, seq, target, LossKind.MSE, h=8)
        r_trunc, _ = run_backward(params, seq, target, LossKind.MSE, h=2)
        assert not np.allclose(r_full.grads.w_rec, r_trunc.grads.w_rec)
        npt.assert_allclose(r_full.deltas[:, :3], r_trunc.deltas, rtol=1e-13)


class TestJacobian:
    def test_linear_regime_is_w_rec_transpose(self):
        rng = np.random.default_rng(26)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR)
        npt.assert_array_equal(jacobian(params, np.ones(4)), params.w_rec.T)

    def test_saturation_kills_gradient(self):
        rng = np.random.default_rng(27)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR)
        npt.assert_array_equal(jacobian(params, np.zeros(4)), np.zeros((4, 4)))

    def test_recursion_equals_jacobian_products(self):
        rng = np.random.default_rng(28)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR)
        seq = rng.standard_normal((6, 2))
        result, tr = run_backward(params, seq, rng.standard_normal(2),
                                  LossKind.MSE, h=6)
        delta = result.deltas[0, 0]
        for n in range(1, 7):
            step = 6 - n  # 1-based step holding the next diagonal
            fp = tr.fprime[0, step - 1] if step >= 1 else 1.0 - tr.z0[0] ** 2
            delta = delta @ jacobian(params, fp)
            npt.assert_allclose(delta, result.deltas[0, n], rtol=1e-12, atol=1e-300)

    def test_product_form_identity(self):
        # deep delta equals the top delta pushed through the full Jacobian chain
        rng = np.random.default_rng(29)
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            params = random_net(r2, 3, 5, 2, OutputActivation.LINEAR)
            seq = r2.standard_normal((7, 3))
            result, tr = run_backward(params, seq, r2.standard_normal(2),
                                      LossKind.MSE, h=7)
            mat = np.eye(5)
            for n in range(1, 8):
                step = 7 - n
                fp = tr.fprime[0, step - 1] if step >= 1 else 1.0 - tr.z0[0] ** 2
                mat = mat @ jacobian(params, fp)
            npt.assert_allclose(result.deltas[0, 0] @ mat, result.deltas[0, 7],
                                rtol=1e-12, atol=1e-300)


class TestDeltaNormProfile:
    def test_zero_deltas(self):
        rng = np.random.default_rng(30)
        params = random_net(rng, 2, 3, 2, OutputActivation.LINEAR)
        tr = model.forward_batch(params, rng.standard_normal((1, 4, 2)))
        res = bptt.backward(params, tr, np.zeros((1, 2)), bptt.BpttConfig(h=4))
        profile = delta_norm_profile(res)
        assert profile == [(n, 0.0) for n in range(5)]

    def test_orthogonal_recurrence_preserves_norms(self):
        # with w_in = 0 and z0 = 0 all activations stay at 0, so fprime = 1
        # and an orthogonal w_rec makes every backward step an isometry
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        params = model.SrnParams(np.zeros((2, 6)), q, rng.standard_normal((6, 2)),
                                 np.zeros(6), OutputActivation.LINEAR)
        result, _ = run_backward(params, rng.standard_normal((10, 2)),
                                 rng.standard_normal(2), LossKind.MSE, h=10)
        norms = [n for _, n in delta_norm_profile(result)]
        assert max(norms) / min(norms) < 1.1

    def test_wide_init_explodes_toward_past(self):
        # variance 0.02 with 100 units puts the recurrent spectrum well
        # outside the unit disk, so deep deltas grow with depth
        params = model.init_gaussian(6, 100, 4, sigma=0.02, seed=5,
                                     output_activation=OutputActivation.SOFTMAX)
        rng = np.random.default_rng(32)
        seq = rng.standard_normal((100, 6)) * 0.5
        result, _ = run_backward(params, seq, 1, LossKind.CROSS_ENTROPY, h=100)
        norms = result.delta_norms[0]
        assert norms[-1] > 100 * norms[0]


class TestBatchedBackward:
    def test_matches_per_sequence(self):
        rng = np.random.default_rng(33)
        params = random_net(rng, 2, 4, 3, OutputActivation.SOFTMAX)
        batch = rng.standard_normal((5, 6, 2))
        targets = rng.integers(0, 3, size=5)
        btr = model.forward_batch(params, batch)
        _, bdeltas, _ = model.loss_batch(btr, targets, LossKind.CROSS_ENTROPY)
        cfg = bptt.BpttConfig(h=6)
        bres = bptt.backward(params, btr, bdeltas, cfg)
        assert bres.deltas.shape == (5, 7, 4)

        accum = {"w_in": 0, "w_rec": 0, "w_out": 0, "b": 0}
        for i in range(5):
            single, _ = run_backward(params, batch[i], targets[i],
                                     LossKind.CROSS_ENTROPY, h=6)
            npt.assert_allclose(bres.deltas[i], single.deltas[0], rtol=1e-12, atol=1e-300)
            npt.assert_allclose(bres.delta_norms[i], single.delta_norms[0], rtol=1e-12)
            for k in accum:
                accum[k] = accum[k] + getattr(single.grads, k)
        # batch gradients are means over the sequences
        for k in accum:
            npt.assert_allclose(getattr(bres.grads, k), accum[k] / 5,
                                rtol=1e-10, atol=1e-300)
