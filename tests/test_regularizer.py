import math
import threading

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (batch_backward, compute_dg_reference, compute_g, deep_norm_half_sq,
                      diagonal, evaluate_minibatch, random_net, theorem1_hit_rate)

from srngate import bptt, model, regularizer as reg
from srngate.errors import ConfigError, DimensionError
from srngate.model import LossKind, OutputActivation
from srngate.regularizer import Decision, RegConfig


def backward_case(seed, n_in=2, n_hid=4, n_out=2, T=6, h=None, scale=0.5):
    """Forward and backward over one random sequence, as a batch of one."""
    rng = np.random.default_rng(seed)
    params = random_net(rng, n_in, n_hid, n_out, OutputActivation.LINEAR, scale)
    seq = rng.standard_normal((1, T, n_in))
    tr = model.forward_batch(params, seq)
    _, deltas, _ = model.loss_batch(tr, rng.standard_normal((1, n_out)), LossKind.MSE)
    back = bptt.backward(params, tr, deltas, bptt.BpttConfig(h=h if h is not None else T))
    return params, tr, back, rng


class TestComputeG:
    def test_empty_product(self):
        params, tr, back, _ = backward_case(0)
        npt.assert_array_equal(compute_g(params, tr, back.deltas[:, 0], 0),
                               back.deltas[:, 0])

    def test_zero_recurrence(self):
        params, tr, back, _ = backward_case(1)
        params.w_rec[:] = 0.0
        npt.assert_array_equal(compute_g(params, tr, back.deltas[:, 0], 3),
                               np.zeros((1, 4)))

    def test_equals_backward_deep_delta(self):
        # the product chain and the step-by-step recursion must agree
        for seed in range(20):
            rng = np.random.default_rng(seed)
            T = int(rng.integers(2, 9))
            h = int(rng.integers(1, T + 1))
            params, tr, back, _ = backward_case(seed + 100, T=T,
                                                n_hid=int(rng.integers(2, 6)), h=T)
            g = compute_g(params, tr, back.deltas[:, 0], h)
            npt.assert_allclose(g, back.deltas[:, h], rtol=1e-12, atol=1e-300)

    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(2)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR, 0.5)
        inputs = rng.standard_normal((5, 6, 2))
        targets = rng.standard_normal((5, 2))
        btr = model.forward_batch(params, inputs)
        _, deltas, _ = model.loss_batch(btr, targets, LossKind.MSE)
        back = bptt.backward(params, btr, deltas, bptt.BpttConfig(h=6))
        g = compute_g(params, btr, back.deltas[:, 0, :], 4)
        for i in range(5):
            tr = model.forward_batch(params, inputs[i:i + 1])
            _, d_i, _ = model.loss_batch(tr, targets[i:i + 1], LossKind.MSE)
            single = bptt.backward(params, tr, d_i, bptt.BpttConfig(h=6))
            gi = compute_g(params, tr, single.deltas[:, 0], 4)
            npt.assert_allclose(g[i], gi[0], rtol=1e-12, atol=1e-300)


class TestComputeDg:
    def test_zero_direction(self):
        params, tr, back, _ = backward_case(3, h=3)
        dg = reg.compute_dg(params, back, np.zeros((4, 4)))
        npt.assert_array_equal(dg, np.zeros((1, 4)))

    def test_single_factor_closed_form(self):
        params, tr, back, rng = backward_case(4, h=1)
        dw = rng.standard_normal((4, 4))
        dg = reg.compute_dg(params, back, dw)
        expected = diagonal(tr, tr.n_steps - 1) * (back.deltas[:, 0] @ dw.T)
        npt.assert_allclose(dg, expected, rtol=1e-13)

    def test_linearity(self):
        params, tr, back, rng = backward_case(5, h=4)
        dw1 = rng.standard_normal((4, 4))
        dw2 = rng.standard_normal((4, 4))
        a, b = 0.7, -2.3
        lhs = reg.compute_dg(params, back, a * dw1 + b * dw2)
        rhs = (a * reg.compute_dg(params, back, dw1)
               + b * reg.compute_dg(params, back, dw2))
        npt.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-300)

    def test_shape_errors(self):
        params, tr, back, _ = backward_case(6, h=2)
        with pytest.raises(DimensionError):
            reg.compute_dg(params, back, np.zeros((3, 3)))
        # dg needs at least one factor: a zero horizon never gets a backward pass
        with pytest.raises(ConfigError):
            bptt.BpttConfig(h=0)

    # the walk runs in row blocks, one thread each; these force the block
    # count, so that they mean the same on a one-core box

    @pytest.mark.parametrize("n_seqs, n_hid", [(n_seqs, n_hid) for n_seqs in (1, 3)
                                               for n_hid in (7, 50, 100, 300)]
                             + [(10, 100)])
    def test_every_block_count_gives_the_reference(self, monkeypatch, n_seqs, n_hid):
        # 3 rows in 2 blocks walk a one-row block; (10, 100) is the paper's
        # batch and width.  The walk runs at one BLAS thread, and so does the
        # reference: at 300 hidden units OpenBLAS 0.3.31 rounds the walk's
        # products differently at two threads
        rng = np.random.default_rng(n_hid)
        params = model.init_gaussian(2, n_hid, 2, 1.0 / n_hid, seed=n_hid)
        trace, back = batch_backward(params, rng.standard_normal((n_seqs, 6, 2)),
                                     rng.standard_normal((n_seqs, 2)), LossKind.MSE, 4)
        dw = rng.standard_normal((n_hid, n_hid)) * 1e-3
        with model._blas_threads(1):
            ref = compute_dg_reference(params, trace, back, dw).tobytes()
        for blocks in range(1, n_seqs + 1):
            monkeypatch.setattr(model, "_concurrency", lambda blas_threads: blocks)
            assert len(model._row_blocks(n_seqs)) == blocks
            assert reg.compute_dg(params, back, dw).tobytes() == ref, blocks

    def test_each_block_walks_in_its_own_thread(self, monkeypatch):
        # 7 rows in blocks of 2, 2 and 3; every block waits at the barrier
        # until all have reached it, so dg comes back only if they run at
        # the same time
        monkeypatch.setattr(model, "_concurrency", lambda blas_threads: 3)
        in_blocks, seen = model._in_blocks, []
        barrier = threading.Barrier(3, timeout=10)

        def spy(run, blocks):
            def waiting(rows):
                seen.append((rows.stop - rows.start, threading.current_thread()))
                barrier.wait()
                return run(rows)
            return in_blocks(waiting, blocks)

        monkeypatch.setattr(model, "_in_blocks", spy)
        rng = np.random.default_rng(12)
        params = random_net(rng, 2, 5, 2, OutputActivation.LINEAR, 0.5)
        trace, back = batch_backward(params, rng.standard_normal((7, 6, 2)),
                                     rng.standard_normal((7, 2)), LossKind.MSE, 6)
        dw = rng.standard_normal((5, 5))
        got = reg.compute_dg(params, back, dw)
        assert sorted(rows for rows, _ in seen) == [2, 2, 3]
        assert len({thread for _, thread in seen}) == 3
        assert got.tobytes() == compute_dg_reference(params, trace, back, dw).tobytes()

    def test_directional_derivative_oracle(self):
        # (g, dg) must match central differences of the frozen-trace S
        # along random directions
        checked = 0
        for seed in range(100):
            rng = np.random.default_rng(9000 + seed)
            T = int(rng.integers(3, 9))
            h = int(rng.integers(1, T + 1))
            n_hid = int(rng.integers(2, 7))
            params, tr, back, _ = backward_case(seed, T=T, n_hid=n_hid, h=h)
            dw = rng.standard_normal((n_hid, n_hid))
            dw /= np.linalg.norm(dw)
            g = compute_g(params, tr, back.deltas[:, 0], h)
            dg = reg.compute_dg(params, back, dw)
            ds = float(g[0] @ dg[0])
            eps = 1e-6
            s_up = deep_norm_half_sq(params, tr, back.deltas[:, 0], h,
                                     params.w_rec + eps * dw)
            s_dn = deep_norm_half_sq(params, tr, back.deltas[:, 0], h,
                                     params.w_rec - eps * dw)
            fd = (s_up - s_dn) / (2 * eps)
            assert abs(ds - fd) <= 1e-4 * max(abs(ds), abs(fd)), \
                f"seed={seed}: ds={ds} fd={fd}"
            checked += 1
        assert checked == 100

    def test_report_ds_matches_fd_over_batches(self):
        # the gate's dS over batches of N >= 2 sequences, at h < T and at
        # h = T, against central differences of the frozen-trace S; at h = T
        # the deepest diagonal sits on the zero start
        for seed in range(40):
            rng = np.random.default_rng(7000 + seed)
            T = int(rng.integers(2, 8))
            n_hid = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            for h in (int(rng.integers(1, T)), T):
                params = random_net(rng, 2, n_hid, 2, OutputActivation.LINEAR, 0.5)
                tr = model.forward_batch(params, rng.standard_normal((n, T, 2)))
                _, deltas, _ = model.loss_batch(tr, rng.standard_normal((n, 2)),
                                                LossKind.MSE)
                back = bptt.backward(params, tr, deltas, bptt.BpttConfig(h=h))
                dw = rng.standard_normal((n_hid, n_hid))
                dw /= np.linalg.norm(dw)
                report = reg.report_from_backward(params, tr, back, dw, RegConfig(h=h))
                top = back.deltas[:, 0]
                eps = 1e-6
                fd = (deep_norm_half_sq(params, tr, top, h, params.w_rec + eps * dw)
                      - deep_norm_half_sq(params, tr, top, h, params.w_rec - eps * dw)
                      ) / (2 * eps)
                assert abs(report.dS - fd) <= 1e-4 * max(abs(report.dS), abs(fd)), \
                    f"seed={seed} h={h} T={T}: dS={report.dS} fd={fd}"
                npt.assert_allclose(report.S, deep_norm_half_sq(params, tr, top, h),
                                    rtol=1e-12)


class TestQFactor:
    def test_preserved_norm(self):
        assert reg.q_factor(1.0, 1.0) == 0.0

    def test_decade_down(self):
        assert abs(reg.q_factor(1.0, 0.1) - 1.0) < 1e-12

    def test_grown_toward_past(self):
        assert abs(reg.q_factor(1e-3, 1.0) - (-3.0)) < 1e-12

    def test_degenerate_norms_never_nan(self):
        assert reg.q_factor(1.0, 0.0) == math.inf
        assert reg.q_factor(0.0, 1.0) == -math.inf
        assert reg.q_factor(0.0, 0.0) == math.inf
        for a, b in [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (-1.0, 2.0)]:
            assert not math.isnan(reg.q_factor(a, b))


def expected_gate(ds, q, r0, q_min=-1.0, q_max=1.0):
    """Independent enumeration of the accept/reject branches."""
    if abs(ds) > r0:
        return Decision.REJECT_LARGE_DS
    if q_min <= q <= q_max:
        return Decision.ACCEPT
    if (q < q_min and ds > 0) or (q > q_max and ds < 0):
        return Decision.ACCEPT
    return Decision.REJECT_Q_DIRECTION


class TestGate:
    def test_truth_table_exhaustive(self):
        r0 = 0.25
        cfg = RegConfig(h=1, q_min=-1.0, q_max=1.0, r0=r0)
        eps = 1e-9
        qs = []
        for base in (-2.0, -1.0, 0.0, 1.0, 2.0):
            qs.extend([base - eps, base, base + eps])
        ds_values = [-2 * r0, -r0, -r0 / 2, 0.0, r0 / 2, r0, 2 * r0]
        for q in qs:
            for ds in ds_values:
                assert reg.gate(ds, q, cfg, S=1.0) == expected_gate(ds, q, r0), \
                    f"q={q} ds={ds}"

    def test_inside_safe_range_accepts(self):
        cfg = RegConfig(h=1, r0=1.0)
        assert reg.gate(0.5, 0.5, cfg, S=1.0) == Decision.ACCEPT

    def test_vanishing_side_branches(self):
        cfg = RegConfig(h=1, r0=1.0)
        assert reg.gate(0.5, -2.0, cfg, S=1.0) == Decision.ACCEPT
        assert reg.gate(-0.5, -2.0, cfg, S=1.0) == Decision.REJECT_Q_DIRECTION
        assert reg.gate(-0.5, 2.0, cfg, S=1.0) == Decision.ACCEPT
        assert reg.gate(0.5, 2.0, cfg, S=1.0) == Decision.REJECT_Q_DIRECTION

    def test_large_ds_rejected_first(self):
        cfg = RegConfig(h=1, r0=1.0)
        assert reg.gate(2.0, 0.0, cfg, S=1.0) == Decision.REJECT_LARGE_DS
        assert reg.gate(-2.0, 0.0, cfg, S=1.0) == Decision.REJECT_LARGE_DS

    def test_relative_threshold_scales_with_s(self):
        cfg = RegConfig(h=1, r0=0.5)
        assert reg.gate(0.4, 0.0, cfg, S=1.0) == Decision.ACCEPT
        assert reg.gate(0.6, 0.0, cfg, S=1.0) == Decision.REJECT_LARGE_DS
        assert reg.gate(0.6e-6, 0.0, cfg, S=1e-6) == Decision.REJECT_LARGE_DS
        assert reg.gate(0.4e-6, 0.0, cfg, S=1e-6) == Decision.ACCEPT

    def test_infinite_q_uses_growth_rule(self):
        cfg = RegConfig(h=1, r0=1.0)
        assert reg.gate(0.5, math.inf, cfg, S=1.0) == Decision.ACCEPT
        assert reg.gate(-0.5, math.inf, cfg, S=1.0) == Decision.REJECT_Q_DIRECTION
        assert reg.gate(0.5, -math.inf, cfg, S=1.0) == Decision.ACCEPT
        assert reg.gate(-0.5, -math.inf, cfg, S=1.0) == Decision.REJECT_Q_DIRECTION

    def test_nan_r0_is_refused(self):
        # nan * S compares false with every |dS|, so a nan r0 would switch
        # off the large-|dS| reject
        with pytest.raises(ConfigError, match="r0 must be positive"):
            RegConfig(h=1, r0=math.nan)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RegConfig(h=1, q_min=1.0, q_max=-1.0)
        with pytest.raises(ConfigError):
            RegConfig(h=1, r0=0.0)
        with pytest.raises(ConfigError):
            RegConfig(h=0)


class TestEvaluateMinibatch:
    def _batch(self, rng, params, n=4, T=6):
        """Random (inputs, targets) scored by squared error."""
        inputs = rng.standard_normal((n, T, params.n_in))
        targets = rng.standard_normal((n, params.n_out))
        return inputs, targets

    def _evidence(self, params, batch, cfg, dw):
        """The gate report with the batch-mean g and dg it is built from."""
        trace, back = batch_backward(params, *batch, LossKind.MSE, cfg.h)
        report = reg.report_from_backward(params, trace, back, dw, cfg)
        g = back.deltas[:, cfg.h].mean(axis=0)
        dg = reg.compute_dg(params, back, dw).mean(axis=0)
        return report, g, dg

    def test_zero_candidate_gives_zero_ds(self):
        rng = np.random.default_rng(40)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR, 0.5)
        batch = self._batch(rng, params)
        cfg = RegConfig(h=6)
        report = evaluate_minibatch(params, *batch, cfg, np.zeros((4, 4)))
        assert report.dS == 0.0
        assert report.decision == reg.gate(0.0, report.q, cfg, report.S)

    def test_identical_sequences_match_single(self):
        rng = np.random.default_rng(41)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR, 0.5)
        seq = rng.standard_normal((6, 2))
        target = rng.standard_normal(2)
        dw = rng.standard_normal((4, 4)) * 1e-3
        cfg = RegConfig(h=6)
        batch = np.repeat(seq[None], 5, axis=0), np.repeat(target[None], 5, axis=0)
        single = seq[None], target[None]
        rb, gb, dgb = self._evidence(params, batch, cfg, dw)
        rs, gs, dgs = self._evidence(params, single, cfg, dw)
        npt.assert_allclose(gb, gs, rtol=1e-12)
        npt.assert_allclose(dgb, dgs, rtol=1e-12)
        npt.assert_allclose(rb.dS, rs.dS, rtol=1e-12)
        npt.assert_allclose(rb.q, rs.q, rtol=1e-12)
        assert rb.decision == rs.decision

    def test_report_invariants(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            r = np.random.default_rng(seed)
            params = random_net(r, 2, 4, 2, OutputActivation.LINEAR, 0.5)
            batch = self._batch(r, params)
            dw = r.standard_normal((4, 4)) * 1e-4
            report, g, dg = self._evidence(params, batch, RegConfig(h=6), dw)
            norm_g = float(np.sqrt(np.sum(g * g)))
            npt.assert_allclose(report.S, 0.5 * norm_g ** 2, rtol=1e-12)
            assert report.dS == float(g @ dg)

    def test_no_weight_mutation(self):
        rng = np.random.default_rng(43)
        params = random_net(rng, 2, 4, 2, OutputActivation.LINEAR, 0.5)
        before = params.w_rec.tobytes()
        evaluate_minibatch(params, *self._batch(rng, params), RegConfig(h=6),
                           rng.standard_normal((4, 4)))
        assert params.w_rec.tobytes() == before

    def test_sign_of_ds_predicts_norm_change(self):
        # applying a small update and recomputing must move the deep norm
        # in the direction dS announced, in at least 95% of clean trials
        hits, kept = theorem1_hit_rate(200)
        assert kept >= 150
        assert hits / kept >= 0.95, f"{hits}/{kept}"
