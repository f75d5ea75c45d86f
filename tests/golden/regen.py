"""Rewrite ``tests/golden/reports.json`` from the code as it stands and list
the cases and perfbench job files whose record changed: ``python tests/golden/regen.py``."""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import GOLDEN, case_name, run_cases, run_jobs, versions  # noqa: E402
from zetalab import cli  # noqa: E402

old, old_jobs = {}, {}
if GOLDEN.exists():
    golden = json.loads(GOLDEN.read_text())
    old = {case_name(record): record for record in golden["cases"]}
    old_jobs = golden.get("jobs", {})
records = list(run_cases(cli.main))
for record in records:
    name = case_name(record)
    if old.get(name) != record:
        print("changed:" if name in old else "new:", name)
jobs = run_jobs()
for kind, files in jobs.items():
    if old_jobs.get(kind) != files:
        print("changed:" if kind in old_jobs else "new:", f"perfbench {kind} job")
GOLDEN.write_text(json.dumps({**versions(), "cases": records, "jobs": jobs}, indent=1) + "\n")
