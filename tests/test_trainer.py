import numpy as np
import numpy.testing as npt
import pytest

from conftest import generate_task, read_table, traced_peak
from srngate import model, tasks, trainer
from srngate.bptt import Gradients
from srngate.config import RunConfig
from srngate.errors import ConfigError, FormatError, NumericalError
from srngate.model import OutputActivation
from srngate.regularizer import Decision, report_from_backward
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
    state, data = trainer.start_run(cfg, seed)
    return state, trainer.train(state, data, cfg, log=quiet)


def apply_step(state, grads, cfg):
    trainer.sgd_step(state, trainer.momentum_step(state, grads, cfg))


class TestSgdStep:
    def test_single_step_plain_sgd(self):
        state = scalar_state()
        cfg = small_config(mu=0.0, alpha=0.1)
        assert trainer.sgd_step(state, trainer.momentum_step(state, unit_grads(), cfg)) is None
        npt.assert_allclose(state.velocity.w_rec, [[-0.1]], rtol=1e-15)
        npt.assert_allclose(state.params.w_rec, [[0.9]], rtol=1e-15)

    def test_two_steps_hand_computed(self):
        # alpha=0.1, mu=0.9, g=1 twice: v = -0.1 then -0.19
        state = scalar_state()
        cfg = small_config(mu=0.9, alpha=0.1)
        apply_step(state, unit_grads(), cfg)
        npt.assert_allclose(state.velocity.w_rec, [[-0.1]], rtol=1e-14)
        apply_step(state, unit_grads(), cfg)
        npt.assert_allclose(state.velocity.w_rec, [[-0.19]], rtol=1e-14)
        npt.assert_allclose(state.params.w_rec, [[1.0 - 0.1 - 0.19]], rtol=1e-14)

    def test_velocity_decays_geometrically(self):
        state = scalar_state()
        cfg = small_config(mu=0.5, alpha=0.1)
        apply_step(state, unit_grads(), cfg)
        v0 = state.velocity.w_rec.copy()
        for k in range(1, 4):
            apply_step(state, unit_grads(0.0), cfg)
            npt.assert_allclose(state.velocity.w_rec, v0 * 0.5 ** k, rtol=1e-14)

    def test_all_blocks_updated(self):
        state = scalar_state()
        cfg = small_config(mu=0.0, alpha=0.5)
        apply_step(state, unit_grads(2.0), cfg)
        for name in trainer.PARAM_BLOCKS:
            npt.assert_allclose(getattr(state.velocity, name).ravel(), [-1.0])

    def test_overflow_is_reported_not_warned(self):
        # pytest turns warnings into errors, so an overflow warning escaping
        # the step (first case) or the update (second) would fail this test
        # instead of the finite check
        state = scalar_state()
        with pytest.raises(NumericalError, match="non-finite w_in after update"):
            apply_step(state, unit_grads(1e300), small_config(alpha=1e10))
        state = scalar_state(1e308)
        with pytest.raises(NumericalError, match="non-finite w_in after update"):
            trainer.sgd_step(state, unit_grads(1e308))


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
        # a vanishing threshold turns any nonzero dS into a reject
        cfg, batch, state = self._setup(r0=1e-300, mu=0.0)
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
        cfg, batch, state = self._setup(r0=1e-300)
        trainer.train_iteration(state, batch, cfg)
        trainer.train_iteration(state, batch, cfg, force_accept=True)
        assert [row["iter"] for row in state.rows] == [1, 2]
        assert [row["applied"] for row in state.rows] == [False, True]
        assert state.corrections == 1
        assert set(state.rows[0]) == set(trainer.METRICS_COLUMNS)

    def test_failing_update_keeps_its_row(self):
        # the row is built from values computed before the update, so the
        # draw whose update fails still logs it
        cfg, batch, state = self._setup(reg="off")
        state.velocity.b[:] = np.inf
        with pytest.raises(NumericalError, match="non-finite b after update at iteration 1"):
            trainer.train_iteration(state, batch, cfg)
        assert [(row["iter"], row["applied"]) for row in state.rows] == [(1, True)]
        assert state.corrections == 0

    def test_accept_applies_exactly_sgd_step(self):
        cfg, batch, state = self._setup(reg="off")
        twin = TrainState.fresh(state.params.copy())
        trace = model.forward_batch(state.params, batch.dense_inputs())
        from srngate.bptt import BpttConfig, backward
        _, deltas, _ = model.loss_batch(trace, batch.targets, batch.spec.loss_kind,
                                        batch.spec.success_tolerance)
        back = backward(state.params, trace, deltas, BpttConfig(h=cfg.h))
        trainer.train_iteration(state, batch, cfg)
        apply_step(twin, back.grads, cfg)
        for n in trainer.PARAM_BLOCKS:
            npt.assert_array_equal(getattr(state.params, n),
                                   getattr(twin.params, n))

    @pytest.mark.parametrize("force", [False, True], ids=["accepted", "forced"])
    def test_gate_judges_the_step_it_applies(self, monkeypatch, force):
        # the dw_rec handed to the gate must be, byte for byte, the velocity
        # the draw then applies; a nonzero velocity makes mu*v count.  A vast
        # threshold and range accept the draw, a vanishing threshold rejects
        # it, so it is applied by the gate or by force
        cfg, batch, state = self._setup(r0=1e-300 if force else 1e300,
                                        qmin=-1e300, qmax=1e300)
        state.velocity.w_rec += 1e-3
        seen = []

        def spy(params, trace, back, dw_rec, reg_cfg):
            seen.append(dw_rec.copy())
            return report_from_backward(params, trace, back, dw_rec, reg_cfg)

        monkeypatch.setattr(trainer, "report_from_backward", spy)
        w_before = state.params.w_rec.copy()
        res = trainer.train_iteration(state, batch, cfg, force_accept=force)
        assert res.applied and (res.report.decision is Decision.ACCEPT) is not force
        assert len(seen) == 1
        assert seen[0].tobytes() == state.velocity.w_rec.tobytes()
        assert (w_before + seen[0]).tobytes() == state.params.w_rec.tobytes()


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

    @pytest.mark.parametrize("task", ["temporal_order", "adding"])
    def test_partial_last_chunk_matches_full_trace_scoring(self, task):
        # 23 sequences in chunks of 5; the reference scores full traces
        batch = generate_task(task, 12, 23, 12)
        spec = batch.spec
        params = model.init_gaussian(spec.n_in, 8, spec.n_out, 0.3, seed=11,
                                     output_activation=spec.output_activation)
        if task == "adding":
            # put every other target inside the tolerance of the output
            y = model.forward_batch(params, batch.dense_inputs()).y
            batch.targets[:] = y + np.where(np.arange(23) % 2, 0.01, 1.0)[:, None]
        hits = 0
        for start in range(0, 23, 5):
            part = batch.subset(slice(start, start + 5))
            trace = model.forward_batch(params, part.dense_inputs())
            hits += int(model.loss_batch(trace, part.targets, part.spec.loss_kind,
                                         part.spec.success_tolerance)[2].sum())
        assert 0 < hits < 23
        assert trainer.evaluate(params, batch, chunk=5) == hits / 23

    def test_scores_each_chunk_through_a_scoring_trace(self, monkeypatch):
        # one forward_batch without a trace, then one loss_batch, per chunk
        calls = []
        forward, loss = model.forward_batch, model.loss_batch

        def spy_forward(*args, **kwargs):
            calls.append(("forward", kwargs))
            return forward(*args, **kwargs)

        def spy_loss(*args, **kwargs):
            calls.append(("loss", kwargs))
            return loss(*args, **kwargs)

        monkeypatch.setattr(model, "forward_batch", spy_forward)
        monkeypatch.setattr(model, "loss_batch", spy_loss)
        params = model.init_gaussian(2, 6, 1, 0.05, seed=9)
        trainer.evaluate(params, generate_task("adding", 15, 23, 10), chunk=10)
        assert calls == [("forward", {"keep_trace": False}), ("loss", {})] * 3

    def test_scoring_holds_no_dense_chunk(self):
        # the float64 inputs of a 512-row chunk alone take 2.46 MB at T = 100;
        # scoring builds one step of them at a time, beside the forward's
        # few (512, n_hid) blocks
        batch = generate_task("temporal_order", 100, 1024, 42)
        spec = batch.spec
        params = model.init_gaussian(spec.n_in, 100, spec.n_out, 0.01, seed=43,
                                     output_activation=spec.output_activation)
        trainer.evaluate(params, batch.subset(slice(0, 8)))  # first-call allocations
        _, peak = traced_peak(lambda: trainer.evaluate(params, batch, chunk=512))
        assert peak < 512 * 100 * spec.n_in * 8


class TestInputDtype:
    @pytest.mark.parametrize("task", ["temporal_order", "temporal_order_3bit",
                                      "adding", "multiplication"])
    def test_uint8_inputs_give_the_float64_results(self, tmp_path, task):
        # a loaded split holds one uint8 symbol per step (and float64
        # values for adding and multiplication); the float64 inputs built
        # from them are the file's bytes, and gated draws and scoring on the
        # loaded split give the rows, weights and accuracy of the split the
        # file was written from
        cfg = small_config(task=task, T=10, h=10, alpha=0.05)
        spec = cfg.task_spec()
        path = tmp_path / "split.dat"
        written = tasks.generate(spec, 40, seed=13)
        tasks.save_batch(path, written)
        loaded = tasks.load_batch(path)
        assert loaded.symbols.dtype == np.uint8 and loaded.symbols.nbytes == 40 * 10
        if spec.regression:
            assert loaded.values.dtype == np.float64 and loaded.values.nbytes == 40 * 10 * 8
        else:
            assert loaded.values is None
        payload = path.read_bytes().split(b"\n", 2)[2]
        assert loaded.dense_inputs().dtype == np.float64
        assert loaded.dense_inputs().tobytes() == payload[:40 * 10 * spec.n_in * 8]
        params = model.init_gaussian(spec.n_in, cfg.hidden, spec.n_out, cfg.sigma,
                                     seed=14, output_activation=spec.output_activation)
        states = []
        for batch in (loaded, written):
            state = TrainState.fresh(params.copy())
            for start in range(0, batch.n, cfg.batch):
                trainer.train_iteration(state, batch.subset(slice(start, start + cfg.batch)),
                                        cfg)
            states.append(state)
        narrow, wide = states
        assert narrow.corrections > 0
        assert repr(narrow.rows) == repr(wide.rows)
        for name in trainer.PARAM_BLOCKS:
            assert getattr(narrow.params, name).tobytes() == getattr(wide.params, name).tobytes()
        assert (trainer.evaluate(narrow.params, loaded, chunk=7)
                == trainer.evaluate(narrow.params, written, chunk=7))


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

    @pytest.mark.parametrize("reg", ["on", "off"])
    def test_epoch_needs_as_many_batches_as_iters(self, reg):
        # 60 train sequences in batches of 5 give 12 batches, and each
        # applied one leaves the epoch's pool: 12 corrections fit, 13 do not
        state, data = trainer.start_run(small_config(reg=reg), seed=1)
        with pytest.raises(ConfigError, match="iters: 13 corrections per epoch need as many "
                                              "batches, but a train split of 60 sequences "
                                              "in batches of 5 has 12"):
            trainer.run_epoch(state, data, small_config(reg=reg, iters=13), log=quiet)
        assert (state.epoch, state.rows) == (0, [])
        trainer.run_epoch(state, data, small_config(reg=reg, iters=12), log=quiet)
        assert state.corrections == 12

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


class TestLearning:
    """Training learns: 150 corrections take temporal order at T = 20 from
    chance (0.25) to a best validation accuracy of at least 0.9, with the
    gate off and on.  A sign slip in the step fails here, though the
    gradient checks still pass."""

    @staticmethod
    def trained(reg, seed):
        cfg = RunConfig(task="temporal_order", T=20, alpha=3e-3, epochs=3, iters=50,
                        reg=reg, train_size=2000, valid_size=200, test_size=200)
        state, data = trainer.start_run(cfg, seed)
        for _ in range(cfg.epochs):
            trainer.run_epoch(state, data, cfg, log=quiet)
        return state

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ungated(self, seed):
        state = self.trained("off", seed)
        assert state.best_valid_accuracy >= 0.9

    def test_gated_rejects_draws_and_still_learns(self):
        # which draws the gate rejects is left open; only that it rejects some
        state = self.trained("on", 1)
        assert state.best_valid_accuracy >= 0.9
        assert any(not row["applied"] for row in state.rows)


class TestConfigValidation:
    def test_bad_values(self):
        for kw in (dict(alpha=0.0), dict(mu=1.0), dict(mu=-0.1),
                   dict(batch=0), dict(iters=0),
                   dict(epochs=-1), dict(hidden=0),
                   dict(sigma=0.0),
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       10 ** 400, -10 ** 400],
                             ids=["nan", "inf", "-inf", "int_1e400", "int_-1e400"])
    @pytest.mark.parametrize("field", ["sigma", "alpha", "mu", "qmin", "qmax", "r0",
                                       "tolerance"])
    def test_non_finite_floats_named(self, field, value):
        # nan fails no range comparison, so each field needs the finite
        # check; an int too large for a float would overflow once trained on
        with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
            small_config(**{field: value})

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
