"""Smoke test of the benchmark at tiny shapes, with no timing bound.

    python -m pytest -q perfbench/test_smoke.py

Every workload runs in both modes on shrunken inputs, so the harness, its
output checks and the metric names declared in BENCHMARK.json cannot drift
apart unnoticed.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import srngate.regularizer  # noqa: E402
import srngate.trainer  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "gated_order100": dict(T=20, h=20, sizes=(60, 20, 20), iters=3),
    "ungated_add200": dict(T=20, h=10, sizes=(60, 20, 20), iters=3),
    "score_order10k": dict(T=20, sizes=(1, 1, 50)),
}


def tiny(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], **TINY[name])


def run_tiny(name: str, tmp_path: Path, trace: bool = False) -> dict:
    return harness.run(tiny(name), seed=3, seconds=0, trace=trace,
                       root=tmp_path / "work", log=lambda *_: None)


def test_workloads_match_benchmark_json():
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_declared_metrics(name, trace, tmp_path):
    result = run_tiny(name, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == harness.MIN_REPEATS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert not (tmp_path / "work").exists()


def test_wrong_accuracy_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(srngate.trainer, "evaluate", lambda params, batch, chunk=512: 0.125)
    result = run_tiny("score_order10k", tmp_path)
    assert not result["correct"] and result["failed"] == 1


def test_wrong_ds_fails_the_run(tmp_path, monkeypatch):
    original = srngate.regularizer.report_from_backward

    def skewed(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, dS=report.dS * 1.001)

    monkeypatch.setattr(srngate.regularizer, "report_from_backward", skewed)
    result = run_tiny("gated_order100", tmp_path)
    assert not result["correct"] and result["failed"] == 1


def test_missing_public_name_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.delattr(srngate.trainer, "sgd_step")
    with pytest.raises(tracer.MissingNameError, match="sgd_step"):
        run_tiny("gated_order100", tmp_path)


def test_silent_layer_is_reported():
    failures = harness._expectation_failures(tiny("score_order10k"), tracer.Tracer())
    assert any("trainer.evaluate recorded no calls" in f for f in failures)


def test_gate_must_have_the_largest_self_share():
    trace = tracer.Tracer()
    trace.spans = [["cli", 0.0, 3.0, None],
                   ["trainer.train_iteration", 0.0, 1.0, 0],
                   [harness.GATE_SPAN, 0.0, 1.0, 1],
                   ["trainer.evaluate", 1.0, 3.0, 0],
                   ["model.forward_batch.eval", 1.0, 3.0, 3]]
    failures = harness._expectation_failures(tiny("gated_order100"), trace)
    assert any("model.forward_batch.eval has the largest self share" in f
               for f in failures)
