"""The demos run, and FORMATS.md names every config field, every dataset
header key and the columns of each CSV file in the order they are written,
so a rename in the package cannot leave the documentation behind unnoticed."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import generate_task
from srngate import tasks
from srngate.config import RunConfig
from srngate.diagnostics import DYNAMICS_COLUMNS, PROFILE_COLUMNS
from srngate.trainer import METRICS_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_formats_lists_every_config_field():
    text = (ROOT / "FORMATS.md").read_text()
    section = text.split("## Config file (`--config`)", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
    assert documented == [f.name for f in fields(RunConfig)]


def test_formats_lists_every_dataset_header_key(tmp_path):
    text = (ROOT / "FORMATS.md").read_text()
    item = text.split("one JSON header line:", 1)[1].split("\n3. ", 1)[0]
    path = tmp_path / "adding.dat"
    tasks.save_batch(path, generate_task("adding", 20, 2, 0))
    written = json.loads(path.read_bytes().split(b"\n")[1])
    assert re.findall(r"`(\w+)`", item) == list(written)


@pytest.mark.parametrize("heading, columns", [
    ("## Metrics CSV", METRICS_COLUMNS),
    ("## Dynamics CSV", DYNAMICS_COLUMNS),
    ("## Depth profile CSV", PROFILE_COLUMNS)], ids=["metrics", "dynamics", "profile"])
def test_formats_csv_header_matches_columns(heading, columns):
    text = (ROOT / "FORMATS.md").read_text()
    section = text.split(heading, 1)[1].split("\n## ", 1)[0]
    header = section.split("Header: ", 1)[1].split("\n\n", 1)[0]
    assert "".join(re.findall(r"`([^`]*)`", header)).split(",") == list(columns)
