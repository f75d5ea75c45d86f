"""Rewrite ``tests/golden/reports.json`` and ``tests/golden/criteria.json`` from
the code as it stands and list the cases, perfbench job files and acceptance
criteria whose record changed: ``python tests/golden/regen.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import (CRITERIA, GOLDEN, case_name, criterion_lines,  # noqa: E402
                         run_cases, run_jobs, versions)
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

# The acceptance run prints each criterion line before it compares it with the
# golden line, so a differing line is read even though its test fails.
old_lines = {}
if CRITERIA.exists():
    old_lines = {line.split()[1]: line for line in json.loads(CRITERIA.read_text())["lines"]}
env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
run = subprocess.run([sys.executable, "-m", "pytest", str(TESTS / "test_acceptance.py"), "-s", "-q",
                      "--tb=no", "-rN", "-p", "no:cacheprovider"],
                     env=env, cwd=TESTS.parent, capture_output=True, text=True, check=False)
lines = criterion_lines(run.stdout)
for line in lines:
    name = line.split()[1]
    was = old_lines.pop(name, None)
    if was != line:
        print("new:" if was is None else "changed:", name)
for name in old_lines:
    print("printed no line:", name)
CRITERIA.write_text(json.dumps({**versions(), "lines": lines}, indent=1) + "\n")
