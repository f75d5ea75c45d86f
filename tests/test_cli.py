import csv
import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import zetalab
from zetalab import cli
from zetalab import zeta as ze


def run(argv):
    return cli.main(argv)


def test_report_kappa_output(capsys):
    assert run(["report-kappa"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(lines["kappa_star"]) - 19 / 27) < 1e-12
    assert abs(float(lines["kappa_d"]) - 0.8466512345679012) < 1e-9


def test_unknown_command_usage_exit(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_module_rejection_maps_to_exit_1(capsys):
    assert run(["verify-vaughan", "--r", "3", "--X", "10", "--N", "1001"]) == 1
    err = capsys.readouterr().err
    assert "X^r" in err


def test_verify_vaughan_json(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify-vaughan", "--r", "3", "--X", "10", "--N", "1000",
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["check"] == "vaughan-identity"
    assert set(payload) >= {"check", "parameters", "worst_case", "deviation", "pass"}


def test_failed_check_is_emitted_and_exits_1(tmp_path, monkeypatch):
    from zetalab import vaughan as va

    failed = SimpleNamespace(check="vaughan-identity", parameters={"N": 10}, worst_index=7,
                             deviation=0.5, passed=False)
    monkeypatch.setattr(va, "verify_vaughan", lambda config, N: failed)
    out = tmp_path / "rep.json"
    assert run(["verify-vaughan", "--output", str(out)]) == 1
    assert json.loads(out.read_text()) == {"check": "vaughan-identity", "parameters": {"N": 10},
                                           "worst_case": 7, "deviation": 0.5, "pass": False}


def test_multiplicity_constant_is_not_a_flag(capsys):
    assert run(["report-kappa", "--multiplicity-constant", "1.3"]) == 2
    assert "unrecognized arguments: --multiplicity-constant 1.3" in capsys.readouterr().err


def test_verify_rearrangement_and_split(tmp_path):
    out = tmp_path / "re.json"
    assert run(["verify-rearrangement", "--y", "6", "--T", "60",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True
    out2 = tmp_path / "sp.json"
    assert run(["verify-split", "--d", "12", "--m-limit", "300", "--seed", "3",
                "--output", str(out2)]) == 0
    split = json.loads(out2.read_text())
    assert split["pass"] is True
    assert split["parameters"]["j"] == 3
    assert split["parameters"]["term_ranges"] == [4.0, 32.0, 8.0, 1.25, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_optimize_poly(tmp_path):
    out = tmp_path / "poly.json"
    assert run(["optimize-poly", "--theta", "0.5", "--degree", "2",
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["coefficients"][0] - 1.5) < 1e-6
    assert abs(payload["coefficients"][1] + 0.5) < 1e-6


def test_moments_pipeline_and_determinism(tmp_path):
    cache = tmp_path / "cache"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["moments", "--T", "150", "--theta", "0.3",
            "--cache-dir", str(cache)]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, row = a.read_text().strip().splitlines()
    assert header.split(",")[:8] == ["T", "theta", "poly", "ReS1", "ImS1", "S2", "N",
                                     "kappa_bound"]
    assert (cache / "zeros-" ).parent.exists()
    assert any(p.name.startswith("zeros-") for p in cache.iterdir())


def test_moments_without_zero_table_computes(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--T", "120", "--theta", "0.25", "--no-cache",
                "--output", str(out)]) == 0
    assert out.exists()


def test_zeros_roundtrip_via_cli(tmp_path, capsys):
    table = tmp_path / "z.txt"
    assert run(["zeros", "find", "--T", "100", "--no-cache",
                "--output", str(table)]) == 0
    assert run(["zeros", "ingest", str(table)]) == 0
    err = capsys.readouterr().err
    assert "ingested 29 zeros" in err


def test_zeros_ingest_cache_dir_is_accepted_and_unused(tmp_path, capsys):
    table = tmp_path / "z.txt"
    table.write_text("14.134725141734693\n21.022039638771555\n")
    assert run(["zeros", "ingest", str(table), "--cache-dir", str(tmp_path / "new")]) == 0
    assert "ingested 2 zeros" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["z.txt"]


def test_truncated_zero_table_exits_1(tmp_path, capsys):
    table = tmp_path / "z.txt"
    assert run(["zeros", "find", "--T", "100", "--no-cache", "--output", str(table)]) == 0
    table.write_text("".join(table.read_text().splitlines(keepends=True)[:-3]))
    assert run(["zeros", "ingest", str(table)]) == 1
    assert "count=29, file has 26" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["nan_line", "inf_last"])
def test_non_finite_zero_table_exits_1(tmp_path, capsys, damage):
    table = tmp_path / "z.txt"
    if damage == "nan_line":
        table.write_text("14.134725141734693\n21.022039638771555\nnan\n25.010857580145688\n"
                         "30.424876125859513\n")
    else:
        table.write_text("14.134725141734693\n21.022039638771555\ninf\n")
    assert run(["zeros", "ingest", str(table)]) == 1
    err = capsys.readouterr().err
    assert "finite" in err and "ingested" not in err


def test_negative_height_exits_1_and_writes_no_cache(tmp_path, capsys):
    cache = tmp_path / "d"
    assert run(["zeros", "find", "--T", "-5", "--cache-dir", str(cache)]) == 1
    assert "T = -5.0" in capsys.readouterr().err
    assert not list(cache.glob("*.npy"))


def test_non_finite_cache_entry_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "m.csv"
    argv = ["moments", "--T", "100", "--theta", "0.3", "--cache-dir", str(cache),
            "--output", str(out)]
    assert run(argv) == 0
    (path,) = cache.iterdir()
    good = path.read_bytes()
    table = np.load(path, allow_pickle=False)
    table[0, 10] = np.nan
    np.save(path, table)
    assert run(argv) == 0
    header, row = out.read_text().strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["N"] == "29"
    assert path.read_bytes() == good  # found again and rewritten


@pytest.mark.parametrize("T", ["300", "3000"])
def test_warm_moments_evaluates_no_hardy_z(tmp_path, monkeypatch, T):
    base = ["moments", "--T", T, "--theta", "0.3", "--format", "csv"]
    cached = base + ["--cache-dir", str(tmp_path / "cache")]
    assert run(cached + ["--output", str(tmp_path / "cold.csv")]) == 0
    assert run(base + ["--no-cache", "--output", str(tmp_path / "nocache.csv")]) == 0

    def no_hardy_z(*args, **kwargs):
        raise AssertionError("Z evaluated on a warm cache")

    monkeypatch.setattr(ze, "hardy_z", no_hardy_z)
    monkeypatch.setattr(ze, "_z_rows", no_hardy_z)  # zeta_prime_many and _refine evaluate here
    assert run(cached + ["--output", str(tmp_path / "warm.csv")]) == 0
    cold = (tmp_path / "cold.csv").read_bytes()
    assert (tmp_path / "warm.csv").read_bytes() == cold
    assert (tmp_path / "nocache.csv").read_bytes() == cold


def test_zero_source_accepts_a_table_zetalab_wrote(tmp_path, capsys):
    table = tmp_path / "t.txt"
    assert run(["zeros", "find", "--T", "1000", "--no-cache", "--output", str(table)]) == 0
    argv = ["moments", "--T", "1000", "--theta", "0.3"]
    assert run(argv + ["--zero-source", str(table), "--output", str(tmp_path / "src.csv")]) == 0
    assert run(argv + ["--cache-dir", str(tmp_path / "cache"),
                       "--output", str(tmp_path / "cached.csv")]) == 0
    assert (tmp_path / "src.csv").read_bytes() == (tmp_path / "cached.csv").read_bytes()
    capsys.readouterr()
    assert run(["zeros", "ingest", str(table)]) == 0
    top = table.read_text().splitlines()[-1]
    assert f"ingested 649 zeros up to {top}" in capsys.readouterr().err


@pytest.mark.parametrize("height", ["98.5", "nan", "inf", "high"])
def test_zero_table_max_height_is_validated(tmp_path, capsys, height):
    table = tmp_path / "z.txt"
    assert run(["zeros", "find", "--T", "100", "--no-cache", "--output", str(table)]) == 0
    table.write_text(table.read_text().replace("max_height=100.0", f"max_height={height}"))
    assert run(["zeros", "ingest", str(table)]) == 1
    assert "max_height" in capsys.readouterr().err


def test_warm_moments_loads_no_scipy(tmp_path):
    cache = tmp_path / "cache"
    argv = ["moments", "--T", "300", "--theta", "0.3", "--cache-dir", str(cache)]
    assert run(argv + ["--output", str(tmp_path / "cold.csv")]) == 0
    code = ("import sys; from zetalab import cli; "
            f"rc = cli.main({argv + ['--output', str(tmp_path / 'warm.csv')]!r}); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0 []"
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_every_command_runs_without_scipy(tmp_path):
    """Each command, at a small size, exits 0 in a process where scipy cannot
    be imported; ``zeros ingest`` reads the table ``zeros find`` wrote."""
    table = str(tmp_path / "z.txt")
    runs = {
        "report-kappa": [],
        "optimize-poly": ["--degree", "3"],
        "verify-vaughan": ["--r", "2", "--X", "10"],
        "verify-rearrangement": ["--y", "8", "--T", "100"],
        "verify-split": ["--d", "6", "--m-limit", "100"],
        "moments": ["--T", "200", "--no-cache"],
        "zeros find": ["--T", "100", "--no-cache", "--output", table],
        "zeros ingest": [table],
        "monitor-sieve": ["--trials", "5"],
    }
    assert list(runs) == [name for name, (_, handler, _) in cli.COMMANDS.items() if handler]
    argvs = [[*name.split(), *args] for name, args in runs.items()]
    code = ("import sys; sys.modules['scipy'] = None; from zetalab import cli; "
            f"print([cli.main(argv) for argv in {argvs!r}], file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    err = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=tmp_path).stderr
    assert err.splitlines()[-1] == str([0] * len(runs)), err


def test_cold_start_import_set(tmp_path):
    """The polynomial commands load no numpy; the zero commands load exactly the zetalab
    modules they use: zeta, its prime sieve in arith, mollifier, and cache for find."""
    table = tmp_path / "z.txt"
    zero_modules = ["zetalab", "zetalab.arith", "zetalab.cli", "zetalab.mollifier", "zetalab.zeta"]
    runs = [(["optimize-poly", "--theta", "0.3", "--degree", "4"], "False"),
            (["report-kappa", "--degree", "3", "--output", str(tmp_path / "k.json")], "False"),
            (["zeros", "find", "--T", "60", "--no-cache", "--output", str(table)],
             str(sorted(zero_modules + ["zetalab.cache"]))),
            (["zeros", "ingest", str(table)], str(zero_modules))]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv, want in runs:
        loaded = ("'numpy' in sys.modules" if argv[0] != "zeros"
                  else "sorted(m for m in sys.modules if m.split('.')[0] == 'zetalab')")
        code = ("import sys; from zetalab import cli; "
                f"rc = cli.main({argv!r}); print(rc, {loaded}, file=sys.stderr)")
        err = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stderr
        assert err.splitlines()[-1] == f"0 {want}", (argv, err)


@pytest.mark.parametrize("argv", [
    *([*name.split(), "-h"] for name in cli.COMMANDS),
    [], ["-h"], ["frobnicate"], ["zeros"], ["zeros", "frob"],
    ["report-kappa", "--degree", "0"], ["optimize-poly", "--theta", "nan"],
    ["verify-vaughan", "--r", "21"], ["verify-rearrangement", "--nu", "3"],
    ["verify-split", "--seed", "-1"], ["moments", "--T", "inf"],
    ["zeros", "find", "--T", "nan"], ["zeros", "ingest"], ["monitor-sieve", "--Q", "31"],
    ["optimize-poly", "--bogus"], ["zeros", "ingest", "z.txt", "extra"],
    ["report-kappa", "--config", "absent.cfg"],
])
def test_command_parser_matches_full_parser(capsys, monkeypatch, argv):
    """Building only argv[0]'s parser leaves help, usage errors and exit codes
    byte-identical to the parser of every command."""
    rc = cli.main(argv)
    got = capsys.readouterr()
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda first=None: build())
    assert (cli.main(argv), capsys.readouterr()) == (rc, got)
    assert rc in (0, 2) and got.out + got.err


def test_report_write_is_atomic(tmp_path, monkeypatch, capsys):
    """A report write that fails half way leaves no temporary file behind, and
    ``--output`` absent or as it was."""
    old, fresh = tmp_path / "old.json", tmp_path / "fresh.json"
    assert run(["optimize-poly", "--output", str(old)]) == 0
    before = old.read_bytes()
    temps = []

    class FullDisk:  # takes half of the report, then fails as a full disk does
        def __init__(self, path, mode):
            self.fh = open(path, mode)
            temps.append(Path(path).name.split(".")[0])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(zetalab, "open", FullDisk, raising=False)
    for path in (fresh, old):
        assert run(["optimize-poly", "--degree", "3", "--output", str(path)]) == 1
    assert capsys.readouterr().err == "zetalab: [Errno 28] No space left on device\n" * 2
    assert temps == ["fresh", "old"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert old.read_bytes() == before


@pytest.mark.parametrize("target", ["absent/out.txt", "adir"])
def test_atomic_open_fails_as_open_does(tmp_path, monkeypatch, target):
    """Failing to create or to rename the temporary file raises what a plain
    ``open`` of the target raises, naming the target, and leaves nothing behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    with pytest.raises(OSError) as plain:
        open(target, "w")
    with pytest.raises(OSError) as atomic:
        with zetalab.atomic_open(target) as fh:
            fh.write("x")
    assert (type(atomic.value), str(atomic.value)) == (type(plain.value), str(plain.value))
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_atomic_open_writes_through_links_and_into_pipes(tmp_path):
    """A symlinked target is replaced in place of the file it names, and a pipe
    named as /dev/stdout names it is written, not replaced by a regular file."""
    (tmp_path / "link.json").symlink_to("real.json")
    with zetalab.atomic_open(tmp_path / "link.json") as fh:
        fh.write("report\n")
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "real.json").read_text() == "report\n"
    read, write = os.pipe()
    try:
        with zetalab.atomic_open(f"/proc/self/fd/{write}") as fh:
            fh.write("report\n")
        assert os.read(read, 64) == b"report\n"
    finally:
        os.close(read)
        os.close(write)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


@pytest.mark.parametrize("argv", [
    ["report-kappa"], ["optimize-poly"], ["verify-vaughan", "--r", "2"],
    ["verify-rearrangement", "--y", "6", "--T", "60"], ["verify-split", "--m-limit", "100"],
    ["moments", "--T", "150", "--no-cache"], ["zeros", "find", "--T", "60", "--no-cache"],
    ["zeros", "ingest", "z.txt"], ["monitor-sieve", "--trials", "5"],
])
def test_unwritable_output_names_the_path(tmp_path, monkeypatch, capsys, argv):
    """Every command exits 1 on an --output in a missing directory, with one
    zetalab: line naming the path as given."""
    monkeypatch.chdir(tmp_path)
    Path("z.txt").write_text("14.134725141734693\n21.022039638771555\n")
    assert run([*argv, "--output", "absent/out"]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("zetalab:")]
    assert lines == ["zetalab: [Errno 2] No such file or directory: 'absent/out'"]


def test_monitor_sieve(tmp_path):
    out = tmp_path / "sieve.json"
    assert run(["monitor-sieve", "--trials", "25", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["deviation"] <= 6.0


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# config\ntheta=0.4\ndegree=2\n")
    assert run(["report-kappa", "--config", str(cfg)]) == 0
    out1 = capsys.readouterr().out
    assert run(["report-kappa", "--config", str(cfg), "--theta", "0.5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 != out2  # flag overrode the config theta
    k2 = float(dict(l.split(" = ") for l in out2.strip().splitlines())["kappa_star"])
    assert abs(k2 - 19 / 27) < 1e-12


def _moments_row(path):
    header, row = csv.reader(path.read_text().splitlines())
    return dict(zip(header, row))


@pytest.mark.parametrize("config, flags, theta", [
    ("y=10\n", ["--theta", "0.3"], 0.3),
    ("y=10\n", ["--the", "0.3"], 0.3),            # an abbreviated flag is explicit too
    ("theta=0.2\n", ["--y", "10"], math.log(10) / math.log(150)),
])
def test_config_key_yields_to_its_exclusive_partner(tmp_path, config, flags, theta):
    """A config key is dropped when the command line gives the other member
    of its mutually exclusive group: explicit flags win over the file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "m.csv"
    assert run(["moments", "--T", "150", "--no-cache", "--config", str(cfg), *flags,
                "--output", str(out)]) == 0
    assert float(_moments_row(out)["theta"]) == theta


def test_config_exclusive_pair_is_still_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=0.2\ny=10\n")
    assert run(["moments", "--T", "150", "--no-cache", "--config", str(cfg)]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert run(["moments", "--T", "150", "--no-cache", "--config", str(cfg),
                "--theta", "0.3", "--y", "10"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify-vaughan"],
    ["verify-split", "--m-limit", "300"],
    ["verify-rearrangement", "--y", "6", "--T", "60"],
    ["monitor-sieve", "--trials", "5"],
    ["optimize-poly", "--degree", "3"],
    ["report-kappa"],
    ["moments", "--T", "150", "--no-cache"],
])
def test_csv_reports_parse_as_two_equal_rows(tmp_path, argv):
    """Nested fields (parameters, worst cases, coefficient lists) are quoted,
    so a CSV reader sees a header and a row of the same length."""
    out = tmp_path / "report.csv"
    assert run(argv + ["--format", "csv", "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 2 and len(rows[0]) == len(rows[1])


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETALAB_CACHE", str(tmp_path / "envcache"))
    assert run(["zeros", "find", "--T", "60"]) == 0
    assert any(p.name.startswith("zeros-") for p in (tmp_path / "envcache").iterdir())


def test_config_no_cache_writes_no_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T=60\nno-cache = true\n")
    assert run(["zeros", "find", "--config", str(cfg), "--cache-dir", str(cache)]) == 0
    assert "# N(60) census=" in capsys.readouterr().err
    assert not cache.exists() or not any(cache.iterdir())


USAGE_ERRORS = [  # (config file text or None, argv)
    ("frobnicate=1\n", ["report-kappa"]),
    ("seed=3\n", ["report-kappa"]),            # a flag of other commands only
    ("threads=4\n", ["zeros", "find"]),
    ("theta=abc\n", ["report-kappa"]),
    ("theta\n", ["report-kappa"]),
    ("no_cache=yes\n", ["zeros", "find"]),
    (None, ["moments", "--T", "nan"]),
    (None, ["zeros", "find", "--T", "inf"]),
    (None, ["monitor-sieve", "--trials", "0"]),
    (None, ["verify-rearrangement", "--nu", "3"]),
    (None, ["zeros", "--no-cache", "find", "--T", "60"]),
    (None, ["zeros", "find", "--T", "60", "--threads", "2"]),
    (None, ["moments", "--T", "150", "--y", "4", "--theta", "0.2"]),
    (None, ["verify-vaughan", "--X", "1e300"]),
    (None, ["verify-vaughan", "--r", "400"]),
    (None, ["monitor-sieve", "--Q", "1"]),
    (None, ["monitor-sieve", "--seed", "-1"]),
    (None, ["verify-split", "--seed", "-1"]),
    (None, ["monitor-sieve", "--Q", "31"]),
    (None, ["monitor-sieve", "--H", "501"]),
    (None, ["monitor-sieve", "--V", "60"]),
    (None, ["monitor-sieve", "--V", "-1"]),
    (None, ["monitor-sieve", "--V", "nan"]),
    (None, ["zeros", "ingest", "z.txt", "--no-cache"]),  # ingest reads and writes no cache
    ("no-cache=true\n", ["zeros", "ingest", "z.txt"]),
]


@pytest.mark.parametrize("config, argv", USAGE_ERRORS)
def test_usage_errors_exit_2(tmp_path, capsys, config, argv):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


SPEC_REJECTIONS = [  # (argv, what its zetalab: line names)
    (["verify-rearrangement", "--T", "1"], "T = 1.0 must exceed 2*pi"),
    (["moments", "--T", "1", "--y", "3", "--no-cache"], "T = 1.0 must exceed 2*pi"),
    (["verify-rearrangement", "--y", "0"], "y = 0.0"),
    (["moments", "--T", "150", "--y", "-2", "--no-cache"], "y = -2.0"),
    (["verify-rearrangement", "--T", "1e308", "--y", "12"], "yT/2pi = inf exceeds the table cap"),
    (["verify-rearrangement", "--T", "1e7", "--y", "12"], "yT/2pi = 1.90986e+07 exceeds"),
]


@pytest.mark.parametrize("argv, names", SPEC_REJECTIONS)
def test_spec_out_of_range_is_module_rejection(capsys, argv, names):
    """T <= 2 pi and y <= 0 are rejected before log y / log T is taken, and
    an a_nu table length yT/2pi that is infinite or above the cap before a
    table is built."""
    assert run(argv) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("zetalab:")]
    assert len(lines) == 1 and names in lines[0]
    assert "Traceback" not in err


def test_unreadable_config_exits_2(tmp_path):
    assert run(["report-kappa", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_moments_y_derives_polynomial_from_its_theta(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--T", "150", "--y", "4", "--no-cache", "--output", str(out)]) == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    theta = math.log(4) / math.log(150)
    assert float(row["theta"]) == pytest.approx(theta, rel=1e-15)
    assert row["poly"] == f"{1.0 + theta!r};{-theta!r}"


def readme_cli_argvs() -> list[list[str]]:
    """The argv of each ``zetalab ...`` line of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
            if line.startswith("zetalab ")]


def test_readme_cli_lines_parse():
    argvs = readme_cli_argvs()
    assert len(argvs) >= 9
    parser = cli._build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert callable(args.handler), argv
