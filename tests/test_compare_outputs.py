"""tools/compare_outputs.py: the same tree on both sides writes the same
files (which also pins same-seed determinism), every kind of difference is
listed, and a differing CSV or JSON file is quantified."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_writes_identical_outputs(tmp_path):
    work = tmp_path / "work"
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"),
                           "--tiny", "--work", str(work)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary, codes_line = proc.stdout.splitlines()
    assert summary.startswith("0 difference(s)")
    # the overflowing model and the failing runs fail numerically (3), and
    # an --out that is a directory, the rerun of the failing run and a train
    # split of fewer batches than --iters are refused as input errors (2)
    tool = load_tool()
    expected = {name: "0" for name, _ in tool.script(tool.TINY)}
    expected.update(eval_out_dir="2", eval_overflow="3", train_failing="3",
                    train_failing_again="2", train_failing_start="3",
                    train_small_split="2")
    assert codes_line == "exit codes: " + " ".join(f"{k}={v}" for k, v in expected.items())
    written = {p.relative_to(work / "change").as_posix()
               for p in (work / "change").rglob("*") if p.is_file()}
    tiny = tool.TINY
    assert {f"data/{task}_T{T}_{split}.dat"
            for task, T in (("multiplication", tiny["T_add"]),
                            ("temporal_order_3bit", tiny["T_order"]),
                            ("temporal_order_3bit", tiny["T_odd"]))
            for split in ("train", "valid", "test")} <= written
    assert {"eval.json", "eval_order3.json", "eval_adding.json", "runs/order3_seed1/metrics.csv",
            "runs/multiplication_seed1/metrics.csv", "runs/multiplication_seed1/model.json",
            "runs/ungated_seed1/dynamics.csv", "runs/batch1_seed1/model.json",
            "scan/depth_profile_sigma0.02.csv", "scan_adding/depth_profile_sigma0.01.csv",
            "runs/fail_seed7/failure.json", "runs/start_seed3/failure.json",
            "runs/start_seed3/metrics.csv", "runs/start_seed3/dynamics.csv"} <= written
    assert "runs/start_seed3/model.json" not in written
    assert not (work / "change" / "runs" / "small_seed1").exists()
    # the tight r0 of the zero-momentum run both rejects and passes draws
    tight = (work / "change" / "runs" / "tight_r0_seed1" / "metrics.csv").read_text()
    assert ",reject_large_ds," in tight and ",accept," in tight
    start = work / "change" / "runs" / "start_seed3"
    failure = json.loads((start / "failure.json").read_text())
    assert (failure["epoch"], failure["iteration"]) == (0, 0)
    assert (start / "dynamics.csv").read_text().count("\n") == 1  # the header only


def test_differences_lists_every_kind():
    tool = load_tool()
    lines = tool.differences({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "x", "d": "4"},
                             {"gen": 0, "eval": 0}, {"gen": 0, "eval": 2})
    assert lines == ["differs: b", "only in parent: c", "only in change: d",
                     "exit code of eval: parent 0, change 2"]


def test_an_empty_directory_on_one_side_is_listed(tmp_path):
    # a directory that holds only an empty directory is not empty itself
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        (side / "runs" / "kept").mkdir(parents=True)
        (side / "runs" / "kept" / "model.json").write_text("{}")
    (change / "runs" / "small_seed1" / "nested").mkdir(parents=True)
    assert tool.digests(change).keys() == {"runs/kept/model.json", "runs/small_seed1/nested/"}
    assert tool.differences(tool.digests(parent), tool.digests(change), {}, {}) == [
        "only in change: runs/small_seed1/nested/"]


def test_explain_quantifies_csv_columns_and_json_weights(tmp_path):
    tool = load_tool()
    parent, change = tmp_path / "p.csv", tmp_path / "c.csv"
    parent.write_text("iter,loss,gwin_norm,decision,applied\n"
                      "1,4.0,,accept,1\n2,nan,1.0,accept,1\n3,1.0,1.0,accept,0\n")
    change.write_text("iter,loss,gwin_norm,decision,applied\n"
                      "1,5.0,,accept,1\n2,nan,1.0,reject_large_ds,0\n3,1.0,inf,accept,0\n")
    assert tool.explain(parent, change) == [
        "loss: max relative difference 0.2",
        "gwin_norm: max relative difference inf",
        "decision: differs in 1 of 3 rows, first at [1]",
        "applied: differs in 1 of 3 rows, first at [1]",
        "equal: iter"]

    model = {"format": "srngate-model-v1", "n_in": 1, "seed": None,
             "w_in": [1.0, 2.0], "b": [0.5]}
    parent, change = tmp_path / "p.json", tmp_path / "c.json"
    parent.write_text(json.dumps(model))
    change.write_text(json.dumps(dict(model, w_in=[1.0, 2.5])))
    assert tool.explain(parent, change) == [
        "w_in: max relative difference 0.2", "b: max relative difference 0",
        "equal: format, n_in, seed"]


def test_compare_puts_the_explanation_under_its_file(tmp_path, monkeypatch):
    tool = load_tool()

    def fake_script(src, work, size, blas_threads):
        (work / "metrics.csv").write_text(f"iter,loss\n1,{1.0 if src.name == 'a' else 2.0}\n")
        (work / "notes.txt").write_text(src.name)
        return {"train": 0}

    monkeypatch.setattr(tool, "run_script", fake_script)
    lines, n_files, codes = tool.compare(Path("a"), Path("b"), tmp_path, tool.TINY, 1)
    assert lines == ["differs: metrics.csv", "    loss: max relative difference 0.5",
                     "    equal: iter", "differs: notes.txt"]
    assert (n_files, codes) == (2, {"train": 0})


def test_every_command_runs_at_the_given_blas_thread_count(tmp_path, monkeypatch):
    # whatever the caller's environment says
    tool = load_tool()
    envs = []

    def fake_run(argv, cwd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    tool.run_script(Path("src"), tmp_path, tool.TINY, 3)
    assert len(envs) == len(tool.script(tool.TINY))
    assert all(env[var] == "3" for env in envs
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))


@pytest.mark.parametrize("flags, count", [([], len(os.sched_getaffinity(0))),
                                          (["--blas-threads", "1"], 1)],
                         ids=["default", "one"])
def test_blas_threads_default_to_one_per_core(tmp_path, monkeypatch, capsys, flags, count):
    # as perfbench/run.py sets them; both sides run at the same count
    tool = load_tool()
    counts = []

    def fake_compare(parent_src, change_src, work, size, blas_threads):
        counts.append(blas_threads)
        return [], 0, {}

    monkeypatch.setattr(tool, "compare", fake_compare)
    src = str(ROOT / "src")
    assert tool.main([src, src, "--tiny", "--work", str(tmp_path / "work"), *flags]) == 0
    assert counts == [count]
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(f"commands at {count} BLAS thread(s)")


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_blas_threads_must_be_a_positive_count(capsys, value):
    tool = load_tool()
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exit_info:
        tool.main([src, src, "--tiny", "--blas-threads", value])
    assert exit_info.value.code == 2
    assert "--blas-threads" in capsys.readouterr().err
