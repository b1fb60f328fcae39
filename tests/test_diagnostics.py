import numpy as np
import numpy.testing as npt
import pytest

from conftest import generate_task, read_profile_csv, read_table
from srngate import bptt, diagnostics as diag, model, trainer
from srngate.config import RunConfig
from srngate.model import LossKind, OutputActivation


def probe_batch(T=40, n=30, seed=0):
    return generate_task("temporal_order", T, n, seed)


class TestDepthScan:
    def test_zero_error_gives_zero_profile(self):
        # zero net with zero targets: outputs hit the target exactly
        params = model.SrnParams(np.zeros((2, 3)), np.zeros((3, 3)),
                                 np.zeros((3, 1)), np.zeros(3),
                                 OutputActivation.LINEAR)
        batch = generate_task("adding", 20, 10, 1)
        batch.targets[:] = 0.0
        profile = diag.depth_scan(params, batch, h=20)
        npt.assert_array_equal(profile.delta_norm, np.zeros(21))

    def test_depth_zero_matches_backward(self):
        params = model.init_gaussian(6, 20, 4, 0.02, seed=2,
                                     output_activation=OutputActivation.SOFTMAX)
        batch = probe_batch(T=30, n=25, seed=3)
        profile = diag.depth_scan(params, batch, h=30)
        trace = model.forward_batch(params, batch.inputs)
        _, deltas, _ = model.loss_batch(trace, batch.targets, batch.spec.loss_kind)
        back = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=30))
        npt.assert_allclose(profile.delta_norm[0],
                            back.delta_norms[:, 0].mean(), rtol=1e-12)

    def test_deterministic(self):
        params = model.init_gaussian(6, 10, 4, 0.02, seed=4,
                                     output_activation=OutputActivation.SOFTMAX)
        batch = probe_batch(T=20, n=15, seed=5)
        p1 = diag.depth_scan(params, batch, h=20)
        p2 = diag.depth_scan(params, batch, h=20)
        npt.assert_array_equal(p1.delta_norm, p2.delta_norm)
        npt.assert_array_equal(p1.gwrec_norm, p2.gwrec_norm)

    def test_chunking_consistent(self):
        params = model.init_gaussian(6, 10, 4, 0.02, seed=6,
                                     output_activation=OutputActivation.SOFTMAX)
        batch = probe_batch(T=20, n=40, seed=7)
        p1 = diag.depth_scan(params, batch, h=20, chunk=7)
        p2 = diag.depth_scan(params, batch, h=20, chunk=100)
        npt.assert_allclose(p1.delta_norm, p2.delta_norm, rtol=1e-12)

    def test_narrow_init_vanishes_with_depth(self):
        params = model.init_gaussian(6, 100, 4, 0.005, seed=8,
                                     output_activation=OutputActivation.SOFTMAX)
        profile = diag.depth_scan(params, probe_batch(T=100, n=40, seed=9), h=100)
        assert profile.delta_norm[-1] < 1e-2 * profile.delta_norm[0]

    def test_wide_init_explodes_with_depth(self):
        params = model.init_gaussian(6, 100, 4, 0.02, seed=10,
                                     output_activation=OutputActivation.SOFTMAX)
        profile = diag.depth_scan(params, probe_batch(T=100, n=40, seed=11), h=100)
        assert profile.delta_norm[-1] > 1e2 * profile.delta_norm[0]

    def test_weight_contribution_columns(self):
        params = model.init_gaussian(6, 10, 4, 0.02, seed=12,
                                     output_activation=OutputActivation.SOFTMAX)
        batch = probe_batch(T=20, n=10, seed=13)
        profile = diag.depth_scan(params, batch, h=20)
        # h = T: the deepest depth has no forward step left
        assert np.isnan(profile.gwin_norm[-1]) and np.isnan(profile.gwrec_norm[-1])
        assert np.isfinite(profile.gwin_norm[:-1]).all()
        # one-hot inputs make the input contribution equal the delta norm
        npt.assert_allclose(profile.gwin_norm[:-1], profile.delta_norm[:-1],
                            rtol=1e-12)
        # the deepest step starts from z0 = 0, so its recurrent term is zero
        assert profile.gwrec_norm[-2] == 0.0


class TestCorrelationCheck:
    def test_identical_curves(self):
        c = np.array([1.0, 0.5, 0.2, 0.1, 0.05])
        profile = diag.DepthProfile(np.arange(5), c, c.copy(), c.copy())
        assert diag.correlation_check(profile) == pytest.approx(1.0)

    def test_scaled_curve_still_perfect(self):
        c = np.array([1.0, 0.5, 0.2, 0.1, 0.05])
        profile = diag.DepthProfile(np.arange(5), c, 2.0 * c, 0.5 * c)
        assert diag.correlation_check(profile) == pytest.approx(1.0)

    def test_zero_variance_flagged(self):
        c = np.ones(5)
        profile = diag.DepthProfile(np.arange(5), c, c.copy(), c.copy())
        assert np.isnan(diag.correlation_check(profile))

    def test_degenerate_rows_flagged(self):
        profile = diag.DepthProfile(np.arange(3), np.array([1.0, 0.0, 0.0]),
                                    np.array([1.0, 0.0, 0.0]),
                                    np.array([1.0, 0.0, 0.0]))
        assert np.isnan(diag.correlation_check(profile))

    def test_critical_init_highly_correlated(self):
        params = model.init_gaussian(6, 100, 4, 0.01, seed=14,
                                     output_activation=OutputActivation.SOFTMAX)
        profile = diag.depth_scan(params, probe_batch(T=100, n=100, seed=15), h=100)
        assert diag.correlation_check(profile) > 0.9


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        params = model.init_gaussian(6, 8, 4, 0.02, seed=16,
                                     output_activation=OutputActivation.SOFTMAX)
        profile = diag.depth_scan(params, probe_batch(T=15, n=10, seed=17), h=15)
        path = tmp_path / "profile.csv"
        diag.write_profile_csv(path, profile)
        loaded = read_profile_csv(path)
        npt.assert_array_equal(loaded.depths, profile.depths)
        npt.assert_array_equal(loaded.delta_norm, profile.delta_norm)
        npt.assert_array_equal(loaded.gwrec_norm[:-1], profile.gwrec_norm[:-1])
        assert np.isnan(loaded.gwin_norm[-1])


class TestDynamicsRecorder:
    def _run(self, epochs=1, reg="on", seed=0):
        cfg = RunConfig(task="adding", T=12, hidden=8, sigma=0.02, alpha=1e-3,
                        batch=5, epochs=epochs, iters=3, h=12, reg=reg,
                        train_size=60, valid_size=20, test_size=30)
        recorder = diag.DynamicsRecorder(h=cfg.h)
        state, _ = trainer.train(cfg, seed, hook=recorder, log=lambda *_: None)
        return recorder, state

    def test_rows_ordered_per_iteration(self):
        recorder, state = self._run()
        assert len(recorder.rows) == len(state.rows)
        iters = [row["iter"] for row in recorder.rows]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)

    def test_csv_round_trip(self, tmp_path):
        recorder, _ = self._run()
        path = tmp_path / "dynamics.csv"
        recorder.write(path)
        loaded = read_table(path, diag.DYNAMICS_COLUMNS)
        assert len(loaded) == len(recorder.rows)
        for raw, back in zip(recorder.rows, loaded):
            for key in diag.DYNAMICS_COLUMNS:
                assert back[key] == raw[key], key

    def test_saturation_coincides_with_collapsed_deltas(self):
        # huge recurrent weights saturate tanh and kill the deep gradient
        rng = np.random.default_rng(18)
        params = model.SrnParams(rng.standard_normal((2, 10)),
                                 rng.standard_normal((10, 10)) * 20.0,
                                 rng.standard_normal((10, 1)),
                                 np.zeros(10), OutputActivation.LINEAR)
        batch = generate_task("adding", 15, 8, 19)
        trace = model.forward_batch(params, batch.inputs)
        _, deltas, _ = model.loss_batch(trace, batch.targets, batch.spec.loss_kind)
        back = bptt.backward(params, trace, deltas, bptt.BpttConfig(h=15))
        recorder = diag.DynamicsRecorder(h=15)

        class _S:
            iteration = 1

        class _R:
            report = None

        recorder(_S(), _R(), trace, back)
        row = recorder.rows[0]
        assert row["act_median"] > 2.0
        assert row["delta_norm_dh"] < 1e-6 * row["delta_norm_d0"]
