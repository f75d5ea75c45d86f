"""Self-test of the benchmark: one tiny unit of every workload, both kinds of run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache"}


def snapshot() -> dict:
    """Size and mtime of every file of the tree (``.zetalab_cache`` included)."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            st = (Path(dirpath) / name).stat()
            out[os.path.relpath(Path(dirpath) / name, ROOT)] = (st.st_size, st.st_mtime_ns)
    return out


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run(workload, trace):
    before = snapshot()
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    assert snapshot() == before


def test_job_list_digest():
    for workload in run.WORKLOADS:
        first = run.digest(run.job_list(workload, 3, 2))
        assert first == run.digest(run.job_list(workload, 3, 2))
        assert first != run.digest(run.job_list(workload, 4, 2))


def test_metric_tables_match_benchmark_json():
    assert set(run.END_TO_END) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(run.PER_LAYER) == {m["name"] for m in BENCH["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "char_checks", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
