import numpy as np
import numpy.testing as npt
import pytest

from conftest import (backward_reference, compute_dg_reference, delta_norm_profile,
                      diagonal, fd_gradient, generate_task, jacobian, per_step_gradients,
                      random_net, random_tiny_case)

from srngate import bptt, diagnostics, model, regularizer
from srngate.errors import ConfigError, NumericalError
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

    def test_non_finite_delta_names_its_depth(self):
        # all activations stay 0, so f' = 1 and each depth multiplies the
        # delta by 1e200: depth 1 holds 1e200, depth 2 overflows
        params = model.SrnParams(np.zeros((1, 2)), 1e200 * np.eye(2), np.ones((2, 1)),
                                 np.zeros(2), OutputActivation.LINEAR)
        tr = model.forward_batch(params, np.ones((3, 4, 1)))
        with pytest.raises(NumericalError, match="non-finite delta at depth 2$"):
            bptt.backward(params, tr, np.ones((3, 1)), bptt.BpttConfig(h=4))

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

    @pytest.mark.parametrize("h", [3, 7])
    def test_fprime_is_one_minus_state_squared_by_depth(self, h):
        # fprime[:, n] is 1 - z(T-n)**2 of the forward's states, laid out like
        # deltas; at h = T the deepest diagonal sits on the zero start
        rng = np.random.default_rng(34)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR)
        tr = model.forward_batch(params, rng.standard_normal((20, 7, 2)))
        back = bptt.backward(params, tr, rng.standard_normal((20, 2)), bptt.BpttConfig(h=h))
        assert back.fprime.shape == back.deltas.shape
        for n in range(min(h, 6) + 1):
            z = tr.states[7 - n]
            assert back.fprime[:, n].tobytes() == (1.0 - z * z).tobytes(), n
        if h == 7:
            assert (back.fprime[:, 7] == 1.0).all()
        # each depth's delta is its diagonal times the pushed-back delta above it
        for n in range(1, h + 1):
            pushed = back.deltas[:, n - 1] @ params.w_rec.T
            assert back.deltas[:, n].tobytes() == (pushed * back.fprime[:, n]).tobytes()
        # the horizon's two ends are the batch means of their own columns; at
        # 20 rows an axis-0 mean of delta_norms rounds both differently
        assert back.delta_norm_top == float(back.delta_norms[:, 0].mean())
        assert back.delta_norm_deep == float(back.delta_norms[:, -1].mean())


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
            delta = delta @ jacobian(params, diagonal(tr, step)[0])
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
                mat = mat @ jacobian(params, diagonal(tr, step)[0])
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
        # with w_in = 0 and the zero start all activations stay at 0, so fprime = 1
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


@pytest.fixture(params=["adding_T200_h100_N10", "order_T100_h100_N10"])
def oracle_case(request):
    """(params, trace, output deltas, h) of one named backward case."""
    name = request.param
    if name == "adding_T200_h100_N10":
        batch, h = generate_task("adding", 200, 10, 1), 100
        params = model.init_gaussian(2, 100, 1, 0.01, seed=2)
        trace = model.forward_batch(params, batch.dense_inputs())
    else:
        batch, h = generate_task("temporal_order", 100, 10, 3), 100
        params = model.init_gaussian(6, 100, 4, 0.01, seed=4,
                                     output_activation=OutputActivation.SOFTMAX)
        trace = model.forward_batch(params, batch.dense_inputs())
    _, deltas, _ = model.loss_batch(trace, batch.targets, batch.spec.loss_kind,
                                    batch.spec.success_tolerance)
    return params, trace, deltas, h


class TestBackwardOracle:
    """The step-major backward must reproduce the batch-first reference bit
    for bit, and so must everything computed from its result."""

    def test_matches_reference(self, oracle_case):
        params, trace, deltas, h = oracle_case
        got = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=h))
        ref = backward_reference(params, trace, deltas, h)
        assert got.deltas.shape == ref.deltas.shape
        assert got.deltas.tobytes() == ref.deltas.tobytes()
        assert got.fprime.tobytes() == ref.fprime.tobytes()
        assert got.delta_norms.flags.c_contiguous
        assert got.delta_norms.tobytes() == ref.delta_norms.tobytes()
        for name in bptt.PARAM_BLOCKS:
            assert getattr(got.grads, name).tobytes() == getattr(ref.grads, name).tobytes(), name

    def test_per_step_accumulation_agrees(self, oracle_case):
        # summing the outer products one step at a time rounds differently;
        # each block must agree to 1e-12 of its largest entry
        params, trace, deltas, h = oracle_case
        got = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=h))
        ref = per_step_gradients(params, trace, deltas, h)
        for name in bptt.PARAM_BLOCKS:
            expected = getattr(ref, name)
            npt.assert_allclose(getattr(got.grads, name), expected, rtol=0,
                                atol=1e-12 * np.abs(expected).max(), err_msg=name)

    def test_gate_report_matches_reference(self, oracle_case):
        params, trace, deltas, h = oracle_case
        dw_rec = np.random.default_rng(6).standard_normal(params.w_rec.shape) * 1e-3
        cfg = regularizer.RegConfig(h=h)
        got = regularizer.report_from_backward(
            params, trace, bptt.backward(params, trace, deltas, bptt.BpttConfig(h=h)),
            dw_rec, cfg)
        ref = regularizer.report_from_backward(
            params, trace, backward_reference(params, trace, deltas, h), dw_rec, cfg)
        assert (got.S.hex(), got.dS.hex(), got.q) == (ref.S.hex(), ref.dS.hex(), ref.q)

    def test_dg_matches_allocating_walk(self, oracle_case):
        # the in-place prefix walk must keep every bit, h = T included
        params, trace, deltas, h = oracle_case
        back = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=h))
        dw_rec = np.random.default_rng(7).standard_normal(params.w_rec.shape) * 1e-3
        got = regularizer.compute_dg(params, back, dw_rec)
        ref = compute_dg_reference(params, trace, back, dw_rec)
        assert got.tobytes() == ref.tobytes()

    def test_depth_scan_matches_reference(self, monkeypatch):
        # 300 probes make two chunks, so the per-chunk sums are added too
        probes = generate_task("temporal_order", 60, 300, 7)
        nets = [model.init_gaussian(6, 30, 4, sigma, seed=8,
                                    output_activation=OutputActivation.SOFTMAX)
                for sigma in (0.005, 0.01, 0.02)]
        got = [diagnostics.depth_scan(params, probes, h=60) for params in nets]
        monkeypatch.setattr(diagnostics, "backward",
                            lambda p, tr, d, cfg: backward_reference(p, tr, d, cfg.h))
        ref = [diagnostics.depth_scan(params, probes, h=60) for params in nets]
        for g, r in zip(got, ref):
            for column in ("delta_norm", "gwin_norm", "gwrec_norm"):
                assert getattr(g, column).tobytes() == getattr(r, column).tobytes(), column
