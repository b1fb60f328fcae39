import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (OPENBLAS_BUILD, generate_task, read_profile_csv, read_table,
                      rewrite_header)
from srngate import cli, diagnostics, model, regularizer, tasks, trainer


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

    @pytest.mark.parametrize("old_sizes", [("900", "30", "400"), ("8", "2", "3"),
                                           ("40", "10", "20")],
                             ids=["longer", "shorter", "same_size"])
    def test_gen_over_existing_files_writes_fresh_files(self, tmp_path, capsys, old_sizes):
        # gen writes each split over the old file in place and cuts its tail
        args = ["gen", "--task", "temporal_order", "--T", "30", "--seed", "7"]
        old = [arg for flag, n in zip(("--train-size", "--valid-size", "--test-size"),
                                      old_sizes) for arg in (flag, n)]
        assert run_cli(args[:-1] + ["8", "--out", str(tmp_path / "a")] + old, capsys)[0] == 0
        run_cli(args + ["--out", str(tmp_path / "a")] + GEN_SMALL, capsys)
        run_cli(args + ["--out", str(tmp_path / "b")] + GEN_SMALL, capsys)
        for name in ("train", "valid", "test"):
            fa = tmp_path / "a" / f"temporal_order_T30_{name}.dat"
            fb = tmp_path / "b" / f"temporal_order_T30_{name}.dat"
            assert fa.read_bytes() == fb.read_bytes()

    def test_gen_writes_through_a_split_linked_to_a_device(self, tmp_path, capsys):
        # a device can be neither cut nor sought
        (tmp_path / "adding_T20_valid.dat").symlink_to(os.devnull)
        code, out, _ = run_cli(["gen", "--task", "adding", "--T", "20", "--seed", "1",
                                "--out", str(tmp_path)] + GEN_SMALL, capsys)
        assert code == 0 and out.count("wrote") == 3
        assert tasks.load_batch(tmp_path / "adding_T20_test.dat").n == 20

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

    @pytest.mark.parametrize("existing", ["clash_seed2", "clash_summary.json"])
    def test_any_existing_output_stops_every_seed(self, tmp_path, capsys, existing):
        # the clash is found before seed 1 trains, so seed 1 writes nothing
        # and a rerun without the clash still succeeds
        path = tmp_path / existing
        if path.suffix == ".json":
            path.write_text("{}")
        else:
            path.mkdir()
        base = ["train", "--task", "adding", "--T", "12", "--seeds", "1,2",
                "--out", str(tmp_path), "--run-name", "clash"] + TRAIN_SMALL
        code, out, err = run_cli(base, capsys)
        assert code == cli.EXIT_INPUT
        assert f"{path} already exists" in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [existing]
        if path.is_dir():
            path.rmdir()
        else:
            path.unlink()
        assert run_cli(base, capsys)[0] == 0

    def test_bad_value_leaves_no_run_dir(self, tmp_path, capsys):
        base = ["train", "--task", "adding", "--T", "15", "--seeds", "0",
                "--out", str(tmp_path), "--run-name", "bad"] + TRAIN_SMALL
        for bad in (["--qmin", "2", "--qmax", "1"], ["--sigma", "0"], ["--r0", "0"],
                    ["--r0", "-1", "--reg", "off"], ["--r0", "nan"], ["--sigma", "nan"],
                    ["--alpha", "inf"], ["--tolerance", "nan"]):
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

    def test_short_test_targets_are_input_error_before_training(self, tmp_path, capsys):
        # a test split whose header lists 10 targets for 20 sequences, with
        # the payload trimmed to match, is refused before any seed trains
        data_dir = tmp_path / "data"
        assert run_cli(["gen", "--task", "adding", "--T", "15", "--seed", "1",
                        "--out", str(data_dir)] + GEN_SMALL, capsys)[0] == 0
        rewrite_header(data_dir / "adding_T15_test.dat", cut=80, targets_shape=[10, 1])
        out = tmp_path / "out"
        code, _, err = run_cli(["train", "--task", "adding", "--T", "15", "--seeds", "0",
                                "--out", str(out), "--run-name", "short",
                                "--data", str(data_dir)] + TRAIN_SMALL, capsys)
        assert code == cli.EXIT_INPUT
        assert "adding targets_shape must be [20, 1], header says [10, 1]" in err
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
        # one dynamics row per draw: its d0 and dh are the top and deep norms
        # that metrics.csv logs, written as the same text, and q is log10 of
        # their ratio
        assert run_cli(["train", "--task", "adding", "--T", "15", "--h", "10",
                        "--sigma", "1.0", "--reg", "on", "--seeds", "0",
                        "--out", str(tmp_path), "--run-name", "dyn",
                        "--record-dynamics"] + TRAIN_SMALL, capsys)[0] == 0
        run_dir = tmp_path / "dyn_seed0"
        with open(run_dir / "dynamics.csv", newline="") as f:
            dynamics = list(csv.DictReader(f))
        with open(run_dir / "metrics.csv", newline="") as f:
            metrics = list(csv.DictReader(f))
        assert len(dynamics) == len(metrics) > 3
        for dyn, met in zip(dynamics, metrics):
            assert ((dyn["iter"], dyn["delta_norm_d0"], dyn["delta_norm_dh"],
                     dyn["decision"]) == (met["iter"], met["delta_norm_top"],
                                          met["delta_norm_deep"], met["decision"]))
            top, deep = float(met["delta_norm_top"]), float(met["delta_norm_deep"])
            assert met["q"] == repr(regularizer.q_factor(top, deep)), met["iter"]
        assert {row["decision"] for row in metrics} > {"accept"}

    @pytest.mark.parametrize("missing", ["train", "valid", "test"])
    def test_missing_split_file_is_input_error(self, tmp_path, capsys, missing):
        data_dir = tmp_path / "data"
        assert run_cli(["gen", "--task", "adding", "--T", "15", "--seed", "1",
                        "--out", str(data_dir)] + GEN_SMALL, capsys)[0] == 0
        path = data_dir / f"adding_T15_{missing}.dat"
        path.unlink()
        out = tmp_path / "out"
        code, stdout, err = run_cli(["train", "--task", "adding", "--T", "15", "--seeds", "0",
                                     "--out", str(out), "--data", str(data_dir)]
                                    + TRAIN_SMALL, capsys)
        assert code == cli.EXIT_INPUT
        assert f"dataset file {path} not found; run 'gen' first" in err
        assert stdout == "" and not out.exists()

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

    @pytest.mark.parametrize("reg", ["on", "off"])
    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_fewer_batches_than_iters_is_input_error(self, tmp_path, capsys, source, reg):
        # each applied batch leaves the epoch's pool of ceil(30 / 10) = 3, so
        # 5 corrections cannot be drawn; a loaded train split counts by its
        # own size, not by --train-size
        sizes = ["--train-size", "30", "--valid-size", "10", "--test-size", "10"]
        if source == "loaded":
            data_dir = tmp_path / "data"
            assert run_cli(["gen", "--task", "adding", "--T", "20", "--seed", "1",
                            "--out", str(data_dir), *sizes], capsys)[0] == 0
            sizes = ["--data", str(data_dir)]
        out = tmp_path / "runs"
        code, stdout, err = run_cli(["train", "--task", "adding", "--T", "20", "--hidden", "8",
                                     "--epochs", "1", "--iters", "5", "--batch", "10",
                                     "--seed", "1", "--reg", reg, "--run-name", "small",
                                     "--out", str(out), *sizes], capsys)
        assert code == cli.EXIT_INPUT
        assert err == ("error: iters: 5 corrections per epoch need as many batches, but a "
                       "train split of 30 sequences in batches of 10 has 3\n")
        assert stdout == "" and not out.exists()


FAIL_SMALL = ["--train-size", "40", "--valid-size", "10", "--test-size", "10"]


class TestTrainFailure:
    """A seed that fails numerically leaves its evidence, the other seeds
    still run, and the command exits 3."""

    def test_failed_seed_keeps_its_evidence(self, tmp_path, capsys):
        argv = ["train", "--task", "adding", "--T", "20", "--hidden", "8",
                "--epochs", "2", "--iters", "4", "--batch", "5", "--alpha", "1e300",
                "--seed", "7", "--run-name", "fail", "--out", str(tmp_path)] + FAIL_SMALL
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_NUMERICAL
        run_dir = tmp_path / "fail_seed7"
        rows = read_table(run_dir / "metrics.csv", trainer.METRICS_COLUMNS)
        failure = json.loads((run_dir / "failure.json").read_text())
        # every draw is rejected until the starvation guard forces one in;
        # the draw after it fails before its row is logged
        assert len(rows) == 201 and rows[-1]["applied"]
        assert failure == {"seed": 7, "epoch": 1, "iteration": 202,
                           "message": "non-finite loss for sequence 0 of the batch"}
        assert failure["message"] in err
        assert not (run_dir / "model.json").exists()
        summary = json.loads((tmp_path / "fail_summary.json").read_text())
        assert summary["seeds"] == [7] and summary["failed_seeds"] == [7]
        assert summary["per_seed"] == {}
        assert summary["test_accuracy_best"] is None
        # outputs stay append-only: the rerun is refused
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_INPUT and "append-only" in err

    def test_one_failed_seed_does_not_stop_the_others(self, tmp_path, capsys):
        # one update at this rate overflows seed 0's validation loss but
        # leaves seed 1 finite
        code, _, _ = run_cli(["train", "--task", "adding", "--T", "15", "--hidden", "6",
                              "--epochs", "1", "--iters", "1", "--batch", "5",
                              "--alpha", "1e156", "--reg", "off", "--seeds", "0,1",
                              "--record-dynamics", "--run-name", "two",
                              "--out", str(tmp_path)] + FAIL_SMALL, capsys)
        assert code == cli.EXIT_NUMERICAL
        failed, finished = tmp_path / "two_seed0", tmp_path / "two_seed1"
        failure = json.loads((failed / "failure.json").read_text())
        assert (failure["seed"], failure["epoch"], failure["iteration"]) == (0, 1, 1)
        assert len(read_table(failed / "metrics.csv", trainer.METRICS_COLUMNS)) == 1
        assert len(read_table(failed / "dynamics.csv", diagnostics.DYNAMICS_COLUMNS)) == 1
        assert not (failed / "model.json").exists()
        assert (finished / "model.json").exists() and not (finished / "failure.json").exists()
        summary = json.loads((tmp_path / "two_summary.json").read_text())
        assert summary["seeds"] == [0, 1] and summary["failed_seeds"] == [0]
        assert list(summary["per_seed"]) == ["1"]
        test_accuracy = summary["per_seed"]["1"]["test_accuracy"]
        assert summary["test_accuracy_best"] == summary["test_accuracy_mean"] == test_accuracy

    def test_update_overflow_keeps_the_failing_draw(self, tmp_path, capsys):
        # alpha * grad overflows in the update of draw 2; pytest turns
        # warnings into errors, so a warning escaping the update would end the
        # run without its evidence
        code, _, err = run_cli(["train", "--task", "adding", "--T", "15", "--hidden", "6",
                                "--epochs", "1", "--iters", "3", "--batch", "5",
                                "--alpha", "1e155", "--reg", "off", "--seeds", "0",
                                "--record-dynamics", "--run-name", "over",
                                "--out", str(tmp_path)] + FAIL_SMALL, capsys)
        assert code == cli.EXIT_NUMERICAL
        run_dir = tmp_path / "over_seed0"
        failure = json.loads((run_dir / "failure.json").read_text())
        assert failure == {"seed": 0, "epoch": 1, "iteration": 2,
                           "message": "non-finite w_out after update at iteration 2"}
        rows = read_table(run_dir / "metrics.csv", trainer.METRICS_COLUMNS)
        assert [(row["iter"], row["applied"]) for row in rows] == [(1, True), (2, True)]
        dynamics = read_table(run_dir / "dynamics.csv", diagnostics.DYNAMICS_COLUMNS)
        assert [row["iter"] for row in dynamics] == [1, 2]
        assert "Warning" not in err

    def test_failure_while_starting(self, tmp_path, capsys):
        # the initial network already overflows the validation loss
        code, _, _ = run_cli(["train", "--task", "adding", "--T", "15", "--hidden", "6",
                              "--epochs", "1", "--iters", "4",
                              "--sigma", "1e200", "--seeds", "3", "--record-dynamics",
                              "--run-name", "start", "--out", str(tmp_path)] + FAIL_SMALL,
                             capsys)
        assert code == cli.EXIT_NUMERICAL
        run_dir = tmp_path / "start_seed3"
        failure = json.loads((run_dir / "failure.json").read_text())
        assert (failure["epoch"], failure["iteration"]) == (0, 0)
        assert read_table(run_dir / "metrics.csv", trainer.METRICS_COLUMNS) == []
        assert read_table(run_dir / "dynamics.csv", diagnostics.DYNAMICS_COLUMNS) == []
        assert not (run_dir / "model.json").exists()
        summary = json.loads((tmp_path / "start_summary.json").read_text())
        assert summary["failed_seeds"] == [3]


HELD_TRAIN = ["train", "--task", "adding", "--T", "15", "--hidden", "6", "--epochs", "1",
              "--iters", "3", "--batch", "5", "--reg", "off", "--seeds", "0",
              "--run-name", "held"]


def run_child(threads: str, argv: list) -> None:
    """``srngate argv`` in a child process that starts OpenBLAS at ``threads``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "srngate.cli", *argv],
                   env=env, check=True, capture_output=True, timeout=120)


class TestBlasThreads:
    """cli.main holds OpenBLAS at one thread for every command, so no output
    depends on the thread count the process started with, and restores the
    count."""

    @pytest.mark.skipif(not OPENBLAS_BUILD, reason="numpy is not built against OpenBLAS")
    @pytest.mark.parametrize("reg", ["on", "off"])
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, reg):
        # at the paper's h = 100, 100 hidden units and batch 10, bptt.backward's
        # w_rec contraction over h * N = 1000 rows rounds differently at one
        # and two OpenBLAS 0.3.31 threads, unless the count is held
        for threads in ("1", "2"):
            run_child(threads, ["train", "--task", "temporal_order", "--T", "100",
                                "--h", "100", "--hidden", "100", "--epochs", "1",
                                "--iters", "3", "--batch", "10", "--train-size", "60",
                                "--valid-size", "20", "--test-size", "20", "--seed", "1",
                                "--reg", reg, "--run-name", "run",
                                "--out", str(tmp_path / threads)])
        for name in ("run_seed1/metrics.csv", "run_seed1/model.json", "run_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.skipif(not OPENBLAS_BUILD, reason="numpy is not built against OpenBLAS")
    @pytest.mark.parametrize("argv", [
        ["scan", "--task", "adding", "--T", "20", "--h", "10"],
        ["scan", "--task", "temporal_order", "--T", "10"],
    ], ids=["h_below_T", "h_equals_T"])
    def test_scan_files_do_not_depend_on_the_thread_count(self, tmp_path, argv):
        # the full-trace forward and the backward over 100 probes at 100
        # hidden units round differently at one and two OpenBLAS 0.3.31
        # threads, unless the count is held
        for threads in ("1", "2"):
            run_child(threads, argv + ["--hidden", "100", "--probes", "100",
                                       "--sigmas", "0.01,0.02", "--seed", "3",
                                       "--out", str(tmp_path / threads)])
        for name in ("depth_profile_sigma0.01.csv", "depth_profile_sigma0.02.csv"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.skipif(not OPENBLAS_BUILD, reason="numpy is not built against OpenBLAS")
    def test_eval_summary_does_not_depend_on_the_thread_count(self, tmp_path, capsys):
        # the 512-row chunk is scored in row blocks, the 150-row one as one
        # block: at 100 hidden units its two blocks would round differently
        assert run_cli(["gen", "--task", "temporal_order", "--T", "20", "--seed", "1",
                        "--train-size", "10", "--valid-size", "10", "--test-size", "662",
                        "--out", str(tmp_path)], capsys)[0] == 0
        params = model.init_gaussian(6, 100, 4, 0.05, seed=2,
                                     output_activation=model.OutputActivation.SOFTMAX)
        model.save_model(tmp_path / "model.json", params)
        for threads in ("1", "2"):
            run_child(threads, ["eval", "--model", str(tmp_path / "model.json"),
                                "--data", str(tmp_path / "temporal_order_T20_test.dat"),
                                "--out", str(tmp_path / f"eval{threads}.json")])
        assert (tmp_path / "eval1.json").read_bytes() == (tmp_path / "eval2.json").read_bytes()

    @pytest.mark.skipif(model._blas_thread_setter() is None,
                        reason="no openblas_set_num_threads_local in this process")
    @pytest.mark.parametrize("argv, code, module, name", [
        (HELD_TRAIN + ["--alpha", "0.01"] + FAIL_SMALL, 0, trainer, "start_run"),
        (HELD_TRAIN + ["--alpha", "1e155"] + FAIL_SMALL, cli.EXIT_NUMERICAL, trainer,
         "start_run"),
        (["scan", "--task", "adding", "--T", "15", "--hidden", "6", "--probes", "5"], 0,
         diagnostics, "depth_scan"),
    ], ids=["finishes", "fails", "scan"])
    def test_count_is_held_at_one_and_restored(self, tmp_path, capsys, monkeypatch,
                                               argv, code, module, name):
        # at 1e155, alpha * grad overflows in the update of train's draw 2
        setter, spied, held = model._blas_thread_setter(), getattr(module, name), []

        def spy(*args):
            held.append(setter(1))
            return spied(*args)

        monkeypatch.setattr(module, name, spy)
        previous = setter(2)
        try:
            assert run_cli(argv + ["--out", str(tmp_path)], capsys)[0] == code
            assert held == [1]
            assert setter(2) == 2
        finally:
            setter(previous)


class TestScan:
    def test_sigma_sweep_writes_files(self, tmp_path, capsys):
        code, out, _ = run_cli(["scan", "--task", "temporal_order", "--T", "20",
                                "--hidden", "8", "--sigmas", "0.005,0.01,0.02",
                                "--probes", "10", "--seed", "2",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        for s in ("0.005", "0.01", "0.02"):
            assert (tmp_path / f"depth_profile_sigma{s}.csv").exists()

    def test_bad_sigma_in_the_sweep_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "scan"
        code, _, err = run_cli(["scan", "--task", "adding", "--T", "20",
                                "--hidden", "8", "--sigmas", "0.01,-1", "--probes", "10",
                                "--seed", "2", "--out", str(out_dir)], capsys)
        assert code == cli.EXIT_INPUT
        assert "sigma: must be positive, got -1.0" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("sigmas", ["0.01,0.01", "0.01,0.010000001"])
    def test_sigmas_sharing_a_file_name_write_nothing(self, sigmas, tmp_path, capsys):
        out_dir = tmp_path / "scan"
        code, _, err = run_cli(["scan", "--task", "adding", "--T", "20",
                                "--hidden", "8", "--sigmas", sigmas, "--probes", "10",
                                "--seed", "2", "--out", str(out_dir)], capsys)
        assert code == cli.EXIT_INPUT
        assert "both write depth_profile_sigma0.01.csv" in err
        assert not out_dir.exists()

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

    def test_float_class_targets_are_input_error(self, tmp_path, capsys):
        model_path, data_path = self._order_case(tmp_path, capsys, n_out=4)
        rewrite_header(data_path, targets_dtype="float64")
        out_json = tmp_path / "eval.json"
        code, out, err = run_cli(["eval", "--model", str(model_path), "--data",
                                  str(data_path), "--out", str(out_json)], capsys)
        assert code == cli.EXIT_INPUT
        assert 'temporal_order targets_dtype must be "int64", header says "float64"' in err
        assert "accuracy" not in out and not out_json.exists()

    def test_non_finite_model_is_input_error(self, tmp_path, capsys):
        model_path, data_path = self._order_case(tmp_path, capsys, n_out=4)
        params = model.load_model(model_path)
        params.w_rec[0, 0] = float("nan")
        model.save_model(model_path, params)
        code, _, err = run_cli(["eval", "--model", str(model_path),
                                "--data", str(data_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "non-finite" in err

    @pytest.mark.parametrize("out, message", [
        ("", "[Errno 2] No such file or directory: ''"),
        ("missing/eval.json", "[Errno 2] No such file or directory: 'missing/eval.json'"),
        ("existing", "[Errno 21] Is a directory: 'existing'"),
        ("missing/", "[Errno 21] Is a directory: 'missing/'"),
        ("model.json/eval.json", "[Errno 20] Not a directory: 'model.json/eval.json'")],
        ids=["empty", "missing_dir", "existing_dir", "trailing_separator", "under_a_file"])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, out,
                                                   message):
        # the 10000-row benchmark split takes about a second to score; each
        # message is the one open() gives for that path
        def not_called(*args, **kwargs):
            raise AssertionError("called before --out was checked")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").mkdir()
        model.save_model("model.json", model.init_gaussian(2, 6, 1, 0.1, seed=0))
        tasks.save_batch("adding.dat", generate_task("adding", 20, 5, 1))
        monkeypatch.setattr(tasks, "load_batch", not_called)
        monkeypatch.setattr(trainer, "evaluate", not_called)
        code, stdout, err = run_cli(["eval", "--model", "model.json", "--data", "adding.dat",
                                     "--out", out], capsys)
        assert code == cli.EXIT_INPUT
        assert err == f"error: {message}\n"
        assert stdout == "" and not (tmp_path / "missing").exists()
        assert not any((tmp_path / "existing").iterdir())
        with pytest.raises(OSError) as opened:
            open(out, "w")
        assert str(opened.value) == message

    @pytest.mark.parametrize("kind", ["existing_file", "dangling_symlink"])
    def test_out_that_open_can_write_is_written(self, tmp_path, capsys, monkeypatch, kind):
        # the early check leaves an existing file as it is until the summary
        # is written, and makes the target of a symlink that points nowhere
        # yet, as open() does
        monkeypatch.chdir(tmp_path)
        model.save_model("model.json", model.init_gaussian(2, 6, 1, 0.1, seed=0))
        tasks.save_batch("adding.dat", generate_task("adding", 20, 5, 1))
        if kind == "existing_file":
            (tmp_path / "eval.json").write_text("old")
        else:
            os.symlink("target.json", "eval.json")
        seen = []
        evaluate = trainer.evaluate

        def spy(*args):
            seen.append(os.path.exists("eval.json") and (tmp_path / "eval.json").read_text())
            return evaluate(*args)

        monkeypatch.setattr(trainer, "evaluate", spy)
        code, _, _ = run_cli(["eval", "--model", "model.json", "--data", "adding.dat",
                              "--out", "eval.json"], capsys)
        assert code == 0
        assert seen == ["old" if kind == "existing_file" else ""]
        assert json.loads((tmp_path / "eval.json").read_text())["n"] == 5

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

    # the train flag was once the switch of an absolute r0
    @pytest.mark.parametrize("argv", [["gen", "--frobnicate"], ["train", "--r0-absolute"]],
                             ids=["gen", "train_r0_absolute"])
    def test_unknown_flag_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {argv[1]}" in err

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

    # both keys were once fields: the guard's limit is fixed now, and r0 is
    # always relative to S
    @pytest.mark.parametrize("key, value", [("max_consecutive_rejects", 200),
                                            ("r0_absolute", True)],
                             ids=["max_consecutive_rejects", "r0_absolute"])
    def test_unknown_key_in_config_file_is_input_error(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        code, _, err = run_cli(["gen", "--config", str(cfg_path), "--out", str(out)],
                               capsys)
        assert code == cli.EXIT_INPUT
        assert f"unknown keys [{key!r}]" in err
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

    @pytest.mark.parametrize("argv, doc, names", [
        (["train", "--seed", "5", "--seeds", "1"], {}, ["--seed", "--seeds"]),
        (["gen"], {"seeds": [1, 2]}, ["seeds"]),
        (["scan"], {"seeds": [1, 2]}, ["seeds"])], ids=["train", "gen", "scan"])
    def test_seed_conflict_is_input_error(self, tmp_path, capsys, argv, doc, names):
        # gen and scan run from one seed; train takes --seed or --seeds, not both
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"task": "adding", "T": 10, "hidden": 4,
                                        "epochs": 0, "train_size": 10, "valid_size": 10,
                                        "test_size": 10, "probes": 2, **doc}))
        out = tmp_path / "out"
        code, stdout, err = run_cli(argv + ["--config", str(cfg_path), "--out", str(out)],
                                    capsys)
        assert code == cli.EXIT_INPUT
        assert all(name in err for name in names)
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("digits, message", [(400, "alpha: must be finite"),
                                                 (5000, "big.json: Exceeds the limit")])
    def test_int_too_large_for_a_float_is_input_error(self, tmp_path, capsys, digits,
                                                      message):
        # 400 digits overflow a float; 5000 are more than Python parses
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text('{"alpha": 1' + "0" * digits + "}")
        out = tmp_path / "out"
        code, stdout, err = run_cli(["train", "--config", str(cfg_path), "--task", "adding",
                                     "--T", "20", "--out", str(out)] + TRAIN_SMALL, capsys)
        assert code == cli.EXIT_INPUT
        assert message in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("doc, argv, message", [
        ({"task": "nope"}, [], "task: unknown task 'nope'"),
        ({"reg": "maybe"}, [], "reg: expected 'on' or 'off', got 'maybe'"),
        ({"seeds": []}, [], "seeds: need at least one seed"),
        (["task", "adding"], [], "expected a JSON object"),
        ({}, ["--seeds", "1,1"], "seeds: need distinct non-negative seeds, got (1, 1)"),
        ({}, ["--seeds", "-1"], "seeds: need distinct non-negative seeds, got (-1,)")],
        ids=["unknown_task", "reg", "no_seeds", "list", "repeated_seed", "negative_seed"])
    def test_rejected_config_writes_nothing(self, tmp_path, capsys, doc, argv, message):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(["train", "--config", str(cfg_path),
                                     "--out", str(tmp_path / "out")] + argv + TRAIN_SMALL,
                                    capsys)
        assert code == cli.EXIT_INPUT
        assert message in err
        assert stdout == "" and [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", ""] + TRAIN_SMALL, "adding_T20_train.dat not found"),
        (["train", "--config", ""] + TRAIN_SMALL, "config file : "),
        (["train", "--run-name", ""] + TRAIN_SMALL, "--run-name: must not be empty"),
        (["scan", "--sigmas", "", "--hidden", "6", "--probes", "4"],
         "sigmas: expected comma-separated numbers, got ''"),
        (["eval", "--out", "", "--model", "model.json", "--data", "adding.dat"],
         "No such file or directory: ''")],
        ids=["data", "config", "run_name", "sigmas", "eval_out"])
    def test_empty_value_counts_as_given(self, tmp_path, capsys, monkeypatch, argv, message):
        # an empty path is a missing file, here in an empty working directory,
        # and an empty list or run name is rejected, not taken as no flag
        monkeypatch.chdir(tmp_path)
        if argv[0] == "eval":
            model.save_model("model.json", model.init_gaussian(2, 6, 1, 0.1, seed=0))
            tasks.save_batch("adding.dat", generate_task("adding", 20, 5, 1))
        else:
            argv = argv + ["--task", "adding", "--T", "20", "--out", "out"]
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_INPUT
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_is_input_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"task": "adding", "Tee": 20}))
        code, _, err = run_cli(["gen", "--config", str(cfg_path),
                                "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_INPUT
        assert "Tee" in err
