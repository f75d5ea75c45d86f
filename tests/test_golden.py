"""Golden reports: each CLI case's exit code, stdout, stderr and written files,
byte for byte, and the sha256 of every file each ``perfbench/jobs.py`` kind
writes at ``JOB_PARAMS``, against ``tests/golden/reports.json``.  The line each
acceptance criterion prints, its time field stripped, is checked against
``tests/golden/criteria.json`` where ``test_acceptance.report`` prints it.

A change that alters a report rewrites both files with
``python tests/golden/regen.py`` and names every changed case in CHANGES.md.
The comparison is exact, so each file also records the Python and numpy
versions it was made with (argparse's help layout and float printing are
theirs); on another version the test fails and names both.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from test_cli import SPEC_REJECTIONS, USAGE_ERRORS, readme_cli_argvs
from test_reachability import JOB_PARAMS, ROOT
from zetalab import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
CRITERIA = GOLDEN.with_name("criteria.json")
RUN_CFG = "# the config file of the README's --config line\nT=1000\ntheta=0.3\nno-cache=true\n"
LARGE = 4096  # a written file above this many bytes is stored as its size and sha256


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def cases():
    """Each case as (argv, setup files), in run order.  All cases run in one
    directory, so a case may read a file that an earlier one wrote.  The cheap
    rejections and a CSV report come first, so a mutant shows at once."""
    yield from ((argv, {}) for argv, _ in SPEC_REJECTIONS)
    yield ["optimize-poly", "--output", "absent/report.json"], {}
    yield ["zeros", "find", "--T", "500", "--output", "table.txt"], {}
    yield ["zeros", "ingest", "table.txt", "--output", "copy.txt"], {}
    yield ["moments", "--T", "500", "--zero-source", "table.txt"], {}
    yield ["report-kappa", "--output", "kappa.json"], {}
    yield ["report-kappa", "--format", "csv", "--output", "kappa.csv"], {}
    for argv in readme_cli_argvs():
        yield argv, {"run.cfg": RUN_CFG} if "run.cfg" in argv else {}
    for name in cli.COMMANDS:
        if any(flag == "--format" for flag, *_ in cli._rows(name)):
            yield from (([*name.split(), "--format", fmt], {}) for fmt in ("json", "csv"))
    yield ["zeros", "find"], {}
    yield ["-h"], {}
    yield from (([*name.split(), "-h"], {}) for name in cli.COMMANDS)
    for config, argv in USAGE_ERRORS:
        yield (argv, {}) if config is None else ([*argv, "--config", "bad.cfg"], {"bad.cfg": config})


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _stored(data: bytes):
    if len(data) <= LARGE:
        with contextlib.suppress(UnicodeDecodeError):
            return data.decode()
    return {"size": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def run_cases(main):
    """Yield each case's record: ``main(argv)`` in one scratch directory with
    COLUMNS=80 (argparse wraps help to the terminal) and a fresh ZETALAB_CACHE.
    ``files`` holds what the case wrote there and into its cache."""
    saved = os.getcwd(), {key: os.environ.get(key) for key in ("COLUMNS", "ZETALAB_CACHE")}
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch, "work")
        work.mkdir()
        os.chdir(work)
        try:
            for n, (argv, setup) in enumerate(cases()):
                for name, text in setup.items():
                    Path(name).write_text(text)
                cache = Path(scratch, f"cache{n}")
                os.environ.update(COLUMNS="80", ZETALAB_CACHE=str(cache))
                before = _snapshot(work)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                files = {name: _stored(seen[2]) for name, seen in _snapshot(work).items()
                         if before.get(name) != seen}
                if cache.exists():
                    files.update({f"$ZETALAB_CACHE/{name}": _stored(seen[2])
                                  for name, seen in _snapshot(cache).items()})
                yield {"argv": shlex.join(["zetalab", *argv]), "setup": setup, "exit": code,
                       "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
        finally:
            os.chdir(saved[0])
            for key, value in saved[1].items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def run_jobs() -> dict:
    """kind -> {file name: sha256} of what ``python perfbench/jobs.py KIND PARAMS PREFIX``
    writes at ``JOB_PARAMS[KIND]``, each kind in a fresh interpreter, as the benchmark
    runs it (so no in-process memo and no module imported by another test is shared)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = {}
    for kind, params in sorted(JOB_PARAMS.items()):
        with tempfile.TemporaryDirectory() as scratch:
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "jobs.py"), kind,
                            json.dumps(params, sort_keys=True), str(Path(scratch, kind))],
                           env=env, check=True, timeout=300)
            out[kind] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(Path(scratch).iterdir())}
    return out


def case_name(record) -> str:
    """A case's setup files, then its command line."""
    setup = "".join(f"[{name}: {text!r}] " for name, text in record["setup"].items())
    return setup + record["argv"]


def mismatches(main):
    """Yield one line per difference between the cases run through ``main``
    and the golden file, case by case as they run."""
    golden = {case_name(record): record for record in json.loads(GOLDEN.read_text())["cases"]}
    seen = set()
    with contextlib.closing(run_cases(main)) as records:
        for record in records:
            name = case_name(record)
            seen.add(name)
            if name not in golden:
                yield f"{name}: no golden entry (run tests/golden/regen.py)"
                continue
            for field, value in record.items():
                if value != golden[name][field]:
                    yield f"{name}: {field} {golden[name][field]!r} -> {value!r}"
    yield from (f"{name}: golden entry with no case" for name in golden if name not in seen)


def _check_versions(path=GOLDEN):
    made = {key: json.loads(path.read_text())[key] for key in ("python", "numpy")}
    if made != versions():
        pytest.fail(f"the golden {path.stem} were made with {made}, this is {versions()}: "
                    "compare on the recorded versions, or regenerate and review the diff")


def criterion_lines(text: str) -> list[str]:
    """The criterion lines printed in ``text``, each without its time field."""
    return [" ".join(m.groups())
            for m in re.finditer(r"((?:PASS|FAIL) criterion-\d\d) \[[^]]*\] (.*)", text)]


def check_criterion(line: str):
    """Fail unless a printed criterion line, time field stripped, is its golden line."""
    _check_versions(CRITERIA)
    [pinned] = criterion_lines(line)
    name = pinned.split()[1]
    golden = {old.split()[1]: old for old in json.loads(CRITERIA.read_text())["lines"]}
    assert pinned == golden.get(name), (
        f"{name}: {golden.get(name)!r} -> {pinned!r} (run tests/golden/regen.py)")


def test_golden_reports():
    _check_versions()
    problems = list(mismatches(cli.main))
    assert not problems, "\n".join(problems)


def test_golden_job_outputs():
    """Every file of every perfbench library job, exactly: a change to the tables,
    characters or decompositions those jobs read shows here, not only at the benchmark."""
    _check_versions()
    assert run_jobs() == json.loads(GOLDEN.read_text())["jobs"]


def test_criterion_line_is_compared_without_its_time_field():
    """Each golden criterion line passes with any time field and fails when one
    more digit is printed, naming the criterion."""
    for pinned in json.loads(CRITERIA.read_text())["lines"]:
        status, name, detail = pinned.split(" ", 2)
        check_criterion(f"{status} {name} [ 12.34s / 60s] {detail}")
        with pytest.raises(AssertionError, match=rf"^{name}: .* \(run tests/golden/regen.py\)"):
            check_criterion(f"{status} {name} [  0.01s / 1s] {detail}0")


# Each mutant is one text substitution in cli.py, which must occur exactly once.
MUTANTS = {
    "rounding in _emit": ("repr(v) if isinstance(v, float)",
                          "repr(round(v, 12)) if isinstance(v, float)"),
    "wrong exit code": ('print(f"zetalab: {exc}", file=sys.stderr)\n        return 1',
                        'print(f"zetalab: {exc}", file=sys.stderr)\n        return 2'),
    "reworded message": ('f"zetalab: {exc}"', 'f"zetalab: error: {exc}"'),
}


@pytest.mark.parametrize("old, new", MUTANTS.values(), ids=MUTANTS)
def test_golden_catches_mutant(old, new):
    source = Path(cli.__file__).read_text()
    assert source.count(old) == 1
    mutant = types.ModuleType(cli.__name__)
    mutant.__package__, mutant.__file__ = cli.__package__, cli.__file__
    exec(compile(source.replace(old, new), cli.__file__, "exec"), vars(mutant))
    assert next(mismatches(mutant.main), None) is not None


def test_readme_line_without_golden_entry_fails(monkeypatch):
    readme = readme_cli_argvs()
    monkeypatch.setitem(globals(), "readme_cli_argvs",
                        lambda: [["report-kappa", "--degree", "3"], *readme])
    assert next(mismatches(cli.main)) == (
        "zetalab report-kappa --degree 3: no golden entry (run tests/golden/regen.py)")
