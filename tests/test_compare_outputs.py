"""tools/compare_outputs.py: the same tree on both sides writes the same
files (which also pins same-seed determinism), and every kind of
difference is listed."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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
    # the overflowing model and the failing run fail numerically (3), and
    # the rerun of the failing run is refused as an input error (2)
    tool = load_tool()
    expected = {name: "0" for name, _ in tool.script(tool.TINY)}
    expected.update(eval_overflow="3", train_failing="3", train_failing_again="2")
    assert codes_line == "exit codes: " + " ".join(f"{k}={v}" for k, v in expected.items())
    written = {p.relative_to(work / "change").as_posix()
               for p in (work / "change").rglob("*") if p.is_file()}
    assert {"eval.json", "runs/ungated_seed1/dynamics.csv", "runs/batch1_seed1/model.json",
            "scan/depth_profile_sigma0.02.csv", "runs/fail_seed7/failure.json"} <= written


def test_differences_lists_every_kind():
    tool = load_tool()
    lines = tool.differences({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "x", "d": "4"},
                             {"gen": 0, "eval": 0}, {"gen": 0, "eval": 2})
    assert lines == ["differs: b", "only in parent: c", "only in change: d",
                     "exit code of eval: parent 0, change 2"]
