import numpy as np
import numpy.testing as npt
import pytest

from conftest import generate_task, read_table
from srngate import model, tasks, trainer
from srngate.bptt import Gradients
from srngate.config import RunConfig
from srngate.errors import ConfigError, FormatError
from srngate.model import OutputActivation
from srngate.regularizer import Decision
from srngate.trainer import TrainState


def scalar_state(w=1.0):
    params = model.SrnParams(np.array([[w]]), np.array([[w]]), np.array([[w]]),
                             np.zeros(1), OutputActivation.LINEAR)
    return TrainState.fresh(params)


def unit_grads(value=1.0):
    return Gradients(np.array([[value]]), np.array([[value]]),
                     np.array([[value]]), np.array([value]))


def small_config(**kw):
    defaults = dict(task="adding", T=12, hidden=8, sigma=0.02, alpha=1e-3,
                    mu=0.9, batch=5, epochs=2, iters=4, h=12,
                    train_size=60, valid_size=20, test_size=30)
    defaults.update(kw)
    return RunConfig(**defaults)


def order_config():
    """A 4-epoch gated temporal-order run that rejects draws and whose
    validation accuracy moves between epochs."""
    return small_config(task="temporal_order", T=10, h=10, alpha=0.05, epochs=4)


def quiet(*_):
    pass


def train_quietly(cfg, seed=1):
    """(final state, test accuracy) of a run that logs nothing."""
    return trainer.train(cfg, seed, log=quiet)


class TestSgdStep:
    def test_single_step_plain_sgd(self):
        state = scalar_state()
        cfg = small_config(mu=0.0, alpha=0.1)
        assert trainer.sgd_step(state, unit_grads(), cfg) is None
        npt.assert_allclose(state.velocity.w_rec, [[-0.1]], rtol=1e-15)
        npt.assert_allclose(state.params.w_rec, [[0.9]], rtol=1e-15)

    def test_two_steps_hand_computed(self):
        # alpha=0.1, mu=0.9, g=1 twice: v = -0.1 then -0.19
        state = scalar_state()
        cfg = small_config(mu=0.9, alpha=0.1)
        trainer.sgd_step(state, unit_grads(), cfg)
        npt.assert_allclose(state.velocity.w_rec, [[-0.1]], rtol=1e-14)
        trainer.sgd_step(state, unit_grads(), cfg)
        npt.assert_allclose(state.velocity.w_rec, [[-0.19]], rtol=1e-14)
        npt.assert_allclose(state.params.w_rec, [[1.0 - 0.1 - 0.19]], rtol=1e-14)

    def test_velocity_decays_geometrically(self):
        state = scalar_state()
        cfg = small_config(mu=0.5, alpha=0.1)
        trainer.sgd_step(state, unit_grads(), cfg)
        v0 = state.velocity.w_rec.copy()
        for k in range(1, 4):
            trainer.sgd_step(state, unit_grads(0.0), cfg)
            npt.assert_allclose(state.velocity.w_rec, v0 * 0.5 ** k, rtol=1e-14)

    def test_all_blocks_updated(self):
        state = scalar_state()
        cfg = small_config(mu=0.0, alpha=0.5)
        trainer.sgd_step(state, unit_grads(2.0), cfg)
        for name in trainer.PARAM_BLOCKS:
            npt.assert_allclose(getattr(state.velocity, name).ravel(), [-1.0])


class TestCandidateUpdate:
    def test_matches_sgd_step_and_mutates_nothing(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = model.init_gaussian(2, 4, 2, 0.05, seed)
            state = TrainState.fresh(params)
            state.velocity.w_rec += rng.standard_normal((4, 4)) * 0.01
            grads = Gradients(rng.standard_normal((2, 4)), rng.standard_normal((4, 4)),
                              rng.standard_normal((4, 2)), rng.standard_normal(4))
            cfg = small_config()
            before_w = state.params.w_rec.tobytes()
            before_v = state.velocity.w_rec.tobytes()
            dw = trainer.candidate_update(state, grads, cfg)
            assert state.params.w_rec.tobytes() == before_w
            assert state.velocity.w_rec.tobytes() == before_v
            trainer.sgd_step(state, grads, cfg)
            npt.assert_array_equal(dw, state.velocity.w_rec)
            npt.assert_array_equal(state.params.w_rec,
                                   np.frombuffer(before_w).reshape(4, 4) + dw)


class TestTrainIteration:
    def _setup(self, reg="on", **kw):
        cfg = small_config(reg=reg, **kw)
        spec = cfg.task_spec()
        batch = tasks.generate(spec, cfg.batch, seed=3)
        params = model.init_gaussian(spec.n_in, cfg.hidden, spec.n_out, cfg.sigma,
                                     seed=4, output_activation=spec.output_activation)
        return cfg, batch, TrainState.fresh(params)

    def test_reg_disabled_always_applies(self):
        cfg, batch, state = self._setup(reg="off")
        for _ in range(3):
            res = trainer.train_iteration(state, batch, cfg)
            assert res.applied
            assert res.report is None

    def test_rejected_iteration_leaves_state_bit_identical(self):
        # a vanishing absolute threshold turns any nonzero dS into a reject
        cfg, batch, state = self._setup(r0=1e-300, r0_absolute=True, mu=0.0)
        w_before = {n: getattr(state.params, n).tobytes()
                    for n in trainer.PARAM_BLOCKS}
        v_before = {n: getattr(state.velocity, n).tobytes()
                    for n in trainer.PARAM_BLOCKS}
        res = trainer.train_iteration(state, batch, cfg)
        assert not res.applied
        assert res.report.decision is Decision.REJECT_LARGE_DS
        for n in trainer.PARAM_BLOCKS:
            assert getattr(state.params, n).tobytes() == w_before[n]
            assert getattr(state.velocity, n).tobytes() == v_before[n]

    def test_forced_accept_applies(self):
        cfg, batch, state = self._setup(qmin=-1e-9, qmax=1e-9)
        res = trainer.train_iteration(state, batch, cfg, force_accept=True)
        assert res.applied and res.forced

    def test_each_draw_logs_one_row(self):
        cfg, batch, state = self._setup(r0=1e-300, r0_absolute=True)
        trainer.train_iteration(state, batch, cfg)
        trainer.train_iteration(state, batch, cfg, force_accept=True)
        assert [row["iter"] for row in state.rows] == [1, 2]
        assert [row["applied"] for row in state.rows] == [False, True]
        assert state.corrections == 1
        assert set(state.rows[0]) == set(trainer.METRICS_COLUMNS)

    def test_accept_applies_exactly_sgd_step(self):
        cfg, batch, state = self._setup(reg="off")
        twin = TrainState.fresh(state.params.copy())
        trace = model.forward_batch(state.params, batch.inputs)
        from srngate.bptt import BpttConfig, backward
        _, deltas, _ = model.loss_batch(trace, batch.targets, batch.spec.loss_kind,
                                        batch.spec.success_tolerance)
        back = backward(state.params, trace, deltas, BpttConfig(h=cfg.h))
        trainer.train_iteration(state, batch, cfg)
        trainer.sgd_step(twin, back.grads, cfg)
        for n in trainer.PARAM_BLOCKS:
            npt.assert_array_equal(getattr(state.params, n),
                                   getattr(twin.params, n))


class TestEvaluate:
    def test_perfect_predictor(self):
        # a net that always answers class 0 on an all-class-0 batch
        params = model.SrnParams(np.zeros((6, 4)), np.zeros((4, 4)),
                                 np.zeros((4, 4)), np.ones(4),
                                 OutputActivation.SOFTMAX)
        params.w_out[:, 0] = 5.0
        batch = generate_task("temporal_order", 20, 64, 5)
        batch.targets[:] = 0
        assert trainer.evaluate(params, batch) == 1.0

    def test_constant_net_near_chance(self):
        params = model.SrnParams(np.zeros((6, 4)), np.zeros((4, 4)),
                                 np.zeros((4, 4)), np.zeros(4),
                                 OutputActivation.SOFTMAX)
        batch = generate_task("temporal_order", 20, 4096, 6)
        acc = trainer.evaluate(params, batch)
        # argmax of a uniform softmax is class 0; 3 sigma binomial band
        sigma = np.sqrt(0.25 * 0.75 / 4096)
        assert abs(acc - 0.25) < 3 * sigma

    def test_untrained_net_fails_adding(self):
        params = model.init_gaussian(2, 10, 1, 0.05, seed=7)
        batch = generate_task("adding", 20, 2000, 8)
        assert trainer.evaluate(params, batch) < 0.2

    def test_chunking_invariant(self):
        params = model.init_gaussian(2, 6, 1, 0.05, seed=9)
        batch = generate_task("adding", 15, 100, 10)
        assert (trainer.evaluate(params, batch, chunk=7)
                == trainer.evaluate(params, batch, chunk=100))


class TestTrain:
    def test_zero_epochs_returns_initial_accuracies(self):
        state, test_accuracy = train_quietly(small_config(epochs=0))
        assert state.rows == []
        assert state.corrections == 0
        assert 0.0 <= test_accuracy <= 1.0
        assert state.best_valid_accuracy >= 0.0

    def test_deterministic_given_seed(self):
        cfg = small_config(epochs=2, reg="on")
        s1, test1 = train_quietly(cfg)
        s2, test2 = train_quietly(cfg)
        assert s1.rows == s2.rows
        assert test1 == test2
        for n in trainer.PARAM_BLOCKS:
            assert (getattr(s1.params, n).tobytes()
                    == getattr(s2.params, n).tobytes())

    def test_accepted_iterations_per_epoch_exact(self):
        state, _ = train_quietly(small_config(epochs=3, iters=5))
        assert state.corrections == 15
        by_epoch = {}
        for row in state.rows:
            by_epoch.setdefault(row["epoch"], 0)
            by_epoch[row["epoch"]] += 1 if row["applied"] else 0
        assert all(v == 5 for v in by_epoch.values())

    def test_gate_audit_on_logged_rows(self):
        cfg = small_config(epochs=3, reg="on")
        state, _ = train_quietly(cfg)
        reg_cfg = cfg.reg_config()
        assert any(row["decision"] is not None for row in state.rows)
        for row in state.rows:
            if row["decision"] != Decision.ACCEPT.value:
                continue
            r0_eff = reg_cfg.r0 * row["S"]
            assert abs(row["dS"]) <= r0_eff
            q = row["q"]
            ok = (reg_cfg.q_min <= q <= reg_cfg.q_max
                  or (q < reg_cfg.q_min and row["dS"] > 0)
                  or (q > reg_cfg.q_max and row["dS"] < 0))
            assert ok, f"accept violates gate: {row}"

    def test_h_longer_than_task_fatal(self):
        with pytest.raises(ConfigError):
            small_config(h=50)

    def test_best_snapshot_beats_or_ties_validation_history(self):
        # seed 1 falls below its initial accuracy, seed 2 climbs above it
        cfg = order_config()
        for seed in (1, 2):
            state, data = trainer.start_run(cfg, seed)
            history = [state.best_valid_accuracy]
            for _ in range(cfg.epochs):
                valid_acc = trainer.run_epoch(state, data, cfg, log=quiet)
                history.append(valid_acc)
                assert valid_acc == trainer.evaluate(state.params, data["valid"])
                assert state.best_valid_accuracy >= valid_acc
                assert state.best_valid_accuracy == max(history)
                assert (state.best_valid_accuracy
                        == trainer.evaluate(state.best_params, data["valid"]))
            assert len(set(history)) > 1

    def test_epochs_in_two_calls_equal_one_run(self):
        # rejects and a starvation event cross the epoch boundaries
        cfg = order_config()
        whole, _ = train_quietly(cfg)
        assert whole.starvation_events > 0
        assert not all(row["applied"] for row in whole.rows)
        state, data = trainer.start_run(cfg, 1)
        for _ in range(2):
            trainer.run_epoch(state, data, cfg, log=quiet)
        for _ in range(2):
            trainer.run_epoch(state, data, cfg, log=quiet)
        assert state.rows == whole.rows
        for snapshot in ("params", "velocity", "best_params"):
            for n in trainer.PARAM_BLOCKS:
                assert (getattr(getattr(state, snapshot), n).tobytes()
                        == getattr(getattr(whole, snapshot), n).tobytes())
        for counter in ("iteration", "epoch", "corrections", "starvation_events",
                        "best_valid_accuracy"):
            assert getattr(state, counter) == getattr(whole, counter)
        assert (state.shuffle_rng.permutation(data["train"].n).tobytes()
                == whole.shuffle_rng.permutation(data["train"].n).tobytes())


class TestConfigValidation:
    def test_bad_values(self):
        for kw in (dict(alpha=0.0), dict(mu=1.0), dict(mu=-0.1),
                   dict(batch=0), dict(iters=0),
                   dict(epochs=-1), dict(hidden=0),
                   dict(max_consecutive_rejects=0), dict(sigma=0.0),
                   dict(qmin=2.0, qmax=1.0), dict(r0=0.0)):
            with pytest.raises(ConfigError):
                small_config(**kw)

    def test_wrong_types_named(self):
        for kw in (dict(T="12"), dict(hidden=True), dict(h=12.0), dict(alpha="0.1"),
                   dict(sigma=None), dict(reg=1), dict(record_dynamics=1),
                   dict(seeds=3), dict(seeds=[1, True]), dict(seeds=("0",))):
            field = next(iter(kw))
            with pytest.raises(ConfigError, match=f"^{field}: expected"):
                small_config(**kw)

    def test_int_for_float_and_list_of_seeds_accepted(self):
        cfg = small_config(alpha=1, mu=0, seeds=[3, 1])
        assert cfg.alpha == 1 and cfg.mu == 0
        assert cfg.seeds == (3, 1)


class TestMetricsCsv:
    def test_round_trip_exact(self, tmp_path):
        state, _ = train_quietly(small_config(epochs=2))
        path = tmp_path / "metrics.csv"
        trainer.write_metrics_csv(path, state.rows)
        parsed = read_table(path, trainer.METRICS_COLUMNS)
        assert len(parsed) == len(state.rows)
        for raw, back in zip(state.rows, parsed):
            for key in trainer.METRICS_COLUMNS:
                assert back[key] == raw[key], key

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(epochs=2)
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        trainer.write_metrics_csv(p1, train_quietly(cfg)[0].rows)
        trainer.write_metrics_csv(p2, train_quietly(cfg)[0].rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reg_off_leaves_gate_columns_empty(self, tmp_path):
        state, _ = train_quietly(small_config(epochs=1, reg="off"))
        path = tmp_path / "metrics.csv"
        trainer.write_metrics_csv(path, state.rows)
        parsed = read_table(path, trainer.METRICS_COLUMNS)
        assert all(row["dS"] is None and row["decision"] is None for row in parsed)
        assert all(row["delta_norm_top"] is not None for row in parsed)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        trainer.write_metrics_csv(path, train_quietly(small_config(epochs=1))[0].rows)
        with pytest.raises(FormatError, match="header"):
            read_table(path, {"iter": int})
