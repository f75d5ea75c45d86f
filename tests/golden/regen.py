"""Rewrite ``tests/golden/reports.json`` from the code as it stands and list
the cases whose record changed: ``python tests/golden/regen.py``."""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import GOLDEN, case_name, run_cases, versions  # noqa: E402
from zetalab import cli  # noqa: E402

old = {}
if GOLDEN.exists():
    old = {case_name(record): record for record in json.loads(GOLDEN.read_text())["cases"]}
records = list(run_cases(cli.main))
for record in records:
    name = case_name(record)
    if old.get(name) != record:
        print("changed:" if name in old else "new:", name)
GOLDEN.write_text(json.dumps({**versions(), "cases": records}, indent=1) + "\n")
