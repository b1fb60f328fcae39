import json

import pytest

from conftest import generate_task, read_profile_csv, read_table
from srngate import cli, diagnostics, model, tasks, trainer


def run_cli(argv, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEN_SMALL = ["--train-size", "40", "--valid-size", "10", "--test-size", "20"]


class TestGen:
    def test_writes_three_files(self, tmp_path, capsys):
        code, out, _ = run_cli(["gen", "--task", "adding", "--T", "20",
                                "--seed", "1", "--out", str(tmp_path)] + GEN_SMALL,
                               capsys)
        assert code == 0
        for name, size in (("train", 40), ("valid", 10), ("test", 20)):
            path = tmp_path / f"adding_T20_{name}.dat"
            assert path.exists()
            assert tasks.load_batch(path).n == size

    def test_byte_identical_rerun(self, tmp_path, capsys):
        args = ["gen", "--task", "temporal_order", "--T", "30", "--seed", "7"] + GEN_SMALL
        run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        for name in ("train", "valid", "test"):
            fa = tmp_path / "a" / f"temporal_order_T30_{name}.dat"
            fb = tmp_path / "b" / f"temporal_order_T30_{name}.dat"
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("task", ["adding", "temporal_order"])
    def test_header_records_configured_tolerance(self, tmp_path, capsys, task):
        assert run_cli(["gen", "--task", task, "--T", "20", "--seed", "1",
                        "--tolerance", "0.5", "--out", str(tmp_path)] + GEN_SMALL,
                       capsys)[0] == 0
        for name in ("train", "valid", "test"):
            header = (tmp_path / f"{task}_T20_{name}.dat").read_bytes().split(b"\n")[1]
            assert json.loads(header)["success_tolerance"] == 0.5

    def test_window_constraint_violation(self, tmp_path, capsys):
        code, _, err = run_cli(["gen", "--task", "temporal_order", "--T", "5",
                                "--seed", "1", "--out", str(tmp_path)] + GEN_SMALL,
                               capsys)
        assert code == cli.EXIT_INPUT
        assert "window" in err


TRAIN_SMALL = ["--hidden", "6", "--epochs", "1", "--iters", "3", "--batch", "5",
               "--train-size", "40", "--valid-size", "10", "--test-size", "10"]


class TestTrain:
    def test_zero_epochs_smoke(self, tmp_path, capsys):
        code, out, _ = run_cli(["train", "--task", "adding", "--T", "15",
                                "--hidden", "5", "--epochs", "0", "--seeds", "3",
                                "--train-size", "20", "--valid-size", "10",
                                "--test-size", "10", "--out", str(tmp_path),
                                "--run-name", "smoke"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "smoke_summary.json").read_text())
        assert summary["seeds"] == [3]
        assert 0.0 <= summary["test_accuracy_mean"] <= 1.0
        run_dir = tmp_path / "smoke_seed3"
        assert (run_dir / "model.json").exists()
        assert (run_dir / "metrics.csv").exists()

    def test_deterministic_outputs(self, tmp_path, capsys):
        base = ["train", "--task", "adding", "--T", "15", "--seeds", "2",
                "--out", str(tmp_path)] + TRAIN_SMALL
        assert run_cli(base + ["--run-name", "r1"], capsys)[0] == 0
        assert run_cli(base + ["--run-name", "r2"], capsys)[0] == 0
        for name in ("metrics.csv", "model.json"):
            f1 = (tmp_path / "r1_seed2" / name).read_bytes()
            f2 = (tmp_path / "r2_seed2" / name).read_bytes()
            assert f1 == f2, name

    def test_reg_off_vs_on_summaries(self, tmp_path, capsys):
        base = ["train", "--task", "adding", "--T", "15", "--seeds", "0,1",
                "--out", str(tmp_path)] + TRAIN_SMALL
        assert run_cli(base + ["--reg", "off", "--run-name", "off"], capsys)[0] == 0
        assert run_cli(base + ["--reg", "on", "--run-name", "on"], capsys)[0] == 0
        s_off = json.loads((tmp_path / "off_summary.json").read_text())
        s_on = json.loads((tmp_path / "on_summary.json").read_text())
        assert s_off["reg"] == "off" and s_on["reg"] == "on"
        for s in (s_off, s_on):
            assert set(s["per_seed"]) == {"0", "1"}
            assert "test_accuracy_best" in s and "test_accuracy_mean" in s

    def test_existing_run_dir_is_input_error(self, tmp_path, capsys):
        base = ["train", "--task", "adding", "--T", "15", "--seeds", "2",
                "--out", str(tmp_path), "--run-name", "dup"] + TRAIN_SMALL
        assert run_cli(base, capsys)[0] == 0
        code, _, err = run_cli(base, capsys)
        assert code == cli.EXIT_INPUT
        assert "append-only" in err

    def test_bad_value_leaves_no_run_dir(self, tmp_path, capsys):
        base = ["train", "--task", "adding", "--T", "15", "--seeds", "0",
                "--out", str(tmp_path), "--run-name", "bad"] + TRAIN_SMALL
        for bad in (["--qmin", "2", "--qmax", "1"], ["--sigma", "0"], ["--r0", "0"],
                    ["--r0", "-1", "--reg", "off"]):
            assert run_cli(base + bad, capsys)[0] == cli.EXIT_INPUT, bad
            assert not (tmp_path / "bad_seed0").exists(), bad
        assert run_cli(base, capsys)[0] == 0

    def test_empty_valid_split_is_input_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run_cli(["gen", "--task", "adding", "--T", "15", "--seed", "1",
                        "--out", str(data_dir)] + GEN_SMALL, capsys)[0] == 0
        valid_path = data_dir / "adding_T15_valid.dat"
        tasks.save_batch(valid_path, tasks.load_batch(valid_path).subset(slice(0, 0)))
        code, _, err = run_cli(["train", "--task", "adding", "--T", "15",
                                "--seeds", "0", "--out", str(tmp_path),
                                "--run-name", "e", "--data", str(data_dir)]
                               + TRAIN_SMALL, capsys)
        assert code == cli.EXIT_INPUT
        assert "0 sequences" in err

    @pytest.mark.parametrize("task", ["adding", "temporal_order"])
    def test_data_with_other_tolerance_is_input_error(self, tmp_path, capsys, task):
        data_dir = tmp_path / "data"
        assert run_cli(["gen", "--task", task, "--T", "20", "--seed", "1",
                        "--out", str(data_dir)] + GEN_SMALL, capsys)[0] == 0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"tolerance": 0.5}))
        out = tmp_path / "out"
        code, _, err = run_cli(["train", "--config", str(cfg_path), "--task", task,
                                "--T", "20", "--seeds", "0", "--out", str(out),
                                "--data", str(data_dir)] + TRAIN_SMALL, capsys)
        assert code == cli.EXIT_INPUT
        assert f"{task} T=20 tolerance=0.04" in err
        assert f"{task} T=20 tolerance=0.5" in err
        assert not out.exists()

    def test_tolerance_flag_trains_on_matching_data(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run_cli(["gen", "--task", "adding", "--T", "15", "--seed", "1",
                        "--tolerance", "0.1", "--out", str(data_dir)] + GEN_SMALL,
                       capsys)[0] == 0
        code, _, _ = run_cli(["train", "--task", "adding", "--T", "15",
                              "--tolerance", "0.1", "--seeds", "0",
                              "--out", str(tmp_path), "--run-name", "tol",
                              "--data", str(data_dir)] + TRAIN_SMALL, capsys)
        assert code == 0
        assert (tmp_path / "tol_seed0" / "metrics.csv").exists()

    def test_record_dynamics(self, tmp_path, capsys):
        base = ["train", "--task", "adding", "--T", "15", "--seeds", "0",
                "--out", str(tmp_path), "--run-name", "dyn",
                "--record-dynamics"] + TRAIN_SMALL
        assert run_cli(base, capsys)[0] == 0
        rows = read_table(tmp_path / "dyn_seed0" / "dynamics.csv",
                          diagnostics.DYNAMICS_COLUMNS)
        metrics = read_table(tmp_path / "dyn_seed0" / "metrics.csv",
                             trainer.METRICS_COLUMNS)
        assert len(rows) == len(metrics)

    def test_pregenerated_data_roundtrip(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run_cli(["gen", "--task", "adding", "--T", "15", "--seed", "1",
                        "--out", str(data_dir)] + GEN_SMALL, capsys)[0] == 0
        code, _, _ = run_cli(["train", "--task", "adding", "--T", "15",
                              "--seeds", "0", "--out", str(tmp_path),
                              "--run-name", "d", "--data", str(data_dir),
                              "--valid-size", "10", "--test-size", "20"]
                             + TRAIN_SMALL[:8], capsys)
        assert code == 0


class TestScan:
    def test_sigma_sweep_writes_files(self, tmp_path, capsys):
        code, out, _ = run_cli(["scan", "--task", "temporal_order", "--T", "20",
                                "--hidden", "8", "--sigmas", "0.005,0.01,0.02",
                                "--probes", "10", "--seed", "2",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        for s in ("0.005", "0.01", "0.02"):
            assert (tmp_path / f"depth_profile_sigma{s}.csv").exists()

    def test_h1_two_row_profile(self, tmp_path, capsys):
        code, _, _ = run_cli(["scan", "--task", "adding", "--T", "20", "--h", "1",
                              "--hidden", "8", "--probes", "10", "--seed", "2",
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        profile = read_profile_csv(tmp_path / "depth_profile_sigma0.01.csv")
        assert len(profile.depths) == 2

    def test_probe_batch_built_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_generate(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        generate = tasks.generate
        monkeypatch.setattr(tasks, "generate", counting_generate)
        code, _, _ = run_cli(["scan", "--task", "adding", "--T", "20", "--hidden", "8",
                              "--sigmas", "0.01,0.02,0.03", "--probes", "10",
                              "--seed", "2", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_repeat_identical(self, tmp_path, capsys):
        args = ["scan", "--task", "adding", "--T", "20", "--hidden", "8",
                "--probes", "10", "--seed", "2"]
        run_cli(args + ["--out", str(tmp_path / "x")], capsys)
        run_cli(args + ["--out", str(tmp_path / "y")], capsys)
        assert ((tmp_path / "x" / "depth_profile_sigma0.01.csv").read_bytes()
                == (tmp_path / "y" / "depth_profile_sigma0.01.csv").read_bytes())


class TestEval:
    def _train_tiny(self, tmp_path, capsys):
        run_cli(["gen", "--task", "adding", "--T", "15", "--seed", "1",
                 "--out", str(tmp_path)] + GEN_SMALL, capsys)
        run_cli(["train", "--task", "adding", "--T", "15", "--seeds", "0",
                 "--out", str(tmp_path), "--run-name", "m"] + TRAIN_SMALL, capsys)
        return (tmp_path / "m_seed0" / "model.json",
                tmp_path / "adding_T15_test.dat")

    def test_prints_accuracy_and_writes_json(self, tmp_path, capsys):
        model_path, data_path = self._train_tiny(tmp_path, capsys)
        out_json = tmp_path / "eval.json"
        code, out, _ = run_cli(["eval", "--model", str(model_path),
                                "--data", str(data_path),
                                "--out", str(out_json)], capsys)
        assert code == 0
        assert "accuracy" in out
        doc = json.loads(out_json.read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["n"] == 20

    def test_empty_dataset_is_input_error(self, tmp_path, capsys):
        data_path = tmp_path / "empty.dat"
        tasks.save_batch(data_path, generate_task("temporal_order", 30, 3, 1)
                         .subset(slice(0, 0)))
        params = model.init_gaussian(6, 5, 4, 0.1, seed=0,
                                     output_activation=model.OutputActivation.SOFTMAX)
        model_path = tmp_path / "model.json"
        model.save_model(model_path, params)
        code, _, err = run_cli(["eval", "--model", str(model_path),
                                "--data", str(data_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "0 sequences" in err

    def test_dims_mismatch_is_input_error(self, tmp_path, capsys):
        model_path, _ = self._train_tiny(tmp_path, capsys)
        run_cli(["gen", "--task", "temporal_order", "--T", "30", "--seed", "1",
                 "--out", str(tmp_path)] + GEN_SMALL, capsys)
        code, _, err = run_cli(["eval", "--model", str(model_path),
                                "--data", str(tmp_path / "temporal_order_T30_test.dat")],
                               capsys)
        assert code == cli.EXIT_INPUT
        assert "input channels" in err

    def _order_case(self, tmp_path, capsys, n_out):
        """A 2-special temporal-order test split and an untrained model with
        n_out outputs."""
        run_cli(["gen", "--task", "temporal_order", "--T", "30", "--seed", "1",
                 "--out", str(tmp_path)] + GEN_SMALL, capsys)
        params = model.init_gaussian(6, 5, n_out, 0.1, seed=0,
                                     output_activation=model.OutputActivation.SOFTMAX)
        model_path = tmp_path / "order_model.json"
        model.save_model(model_path, params)
        return model_path, tmp_path / "temporal_order_T30_test.dat"

    def test_negative_class_ids_is_input_error(self, tmp_path, capsys):
        model_path, data_path = self._order_case(tmp_path, capsys, n_out=4)
        batch = tasks.load_batch(data_path)
        batch.targets[:] = -1
        tasks.save_batch(data_path, batch)
        code, _, err = run_cli(["eval", "--model", str(model_path),
                                "--data", str(data_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "class ids" in err

    def test_non_finite_model_is_input_error(self, tmp_path, capsys):
        model_path, data_path = self._order_case(tmp_path, capsys, n_out=4)
        params = model.load_model(model_path)
        params.w_rec[0, 0] = float("nan")
        model.save_model(model_path, params)
        code, _, err = run_cli(["eval", "--model", str(model_path),
                                "--data", str(data_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "non-finite" in err

    def test_outputs_checked_against_task(self, tmp_path, capsys):
        # an 8-class model cannot score the 4-class task, whatever ids the
        # data happens to hold
        model_path, data_path = self._order_case(tmp_path, capsys, n_out=8)
        code, _, err = run_cli(["eval", "--model", str(model_path),
                                "--data", str(data_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "needs 4" in err


class TestUsageAndConfig:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([], capsys)[0] == cli.EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["gen", "--frobnicate"], capsys)[0] == cli.EXIT_USAGE

    def test_bad_flag_value_names_field(self, tmp_path, capsys):
        code, _, err = run_cli(["train", "--task", "adding", "--T", "15",
                                "--mu", "1.5", "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "mu" in err

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = {"task": "adding", "T": 25, "train_size": 30, "valid_size": 10,
               "test_size": 10, "seeds": [4]}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(["gen", "--config", str(cfg_path), "--T", "20",
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        # flag T=20 beats file T=25; file sizes and seed apply
        assert (tmp_path / "adding_T20_train.dat").exists()
        assert tasks.load_batch(tmp_path / "adding_T20_train.dat").n == 30

    @pytest.mark.parametrize("doc, field", [({"T": "20"}, "T"), ({"seeds": 3}, "seeds")])
    def test_wrong_type_in_config_file_is_input_error(self, tmp_path, capsys, doc, field):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run_cli(["gen", "--config", str(cfg_path), "--out", str(out)],
                               capsys)
        assert code == cli.EXIT_INPUT
        assert f"{field}: expected" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [(["train", "--seeds", "1,x"], "seeds"),
                                             (["scan", "--sigmas", "0.01,y"], "sigmas")])
    def test_bad_number_list_is_input_error(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        code, _, err = run_cli(argv + ["--task", "adding", "--T", "15", "--out", str(out)],
                               capsys)
        assert code == cli.EXIT_INPUT
        assert f"{field}: expected" in err
        assert not out.exists()

    def test_unknown_config_key_is_input_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"task": "adding", "Tee": 20}))
        code, _, err = run_cli(["gen", "--config", str(cfg_path),
                                "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "Tee" in err
