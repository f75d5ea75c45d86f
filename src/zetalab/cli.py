"""Command-line front door: orchestration, caching, and report emission.

Each command's flags are ``(flag, type, default)`` rows of one table,
``COMMANDS`` (``zeros find`` and ``zeros ingest`` are commands; the ``zeros``
group takes no flags).  The parser is built from it.  A handler reads typed
``args.*`` and returns its report, which ``main`` emits, or None when it wrote
its own output.  A ``--config`` file holds ``key=value`` lines keyed by the
command's flag names (booleans ``true``/``false``); they are parsed by the same
parser ahead of the explicit flags, so flags win (a flag also drops the key of
its mutually exclusive partner).  Exit status: 0 only if every hard assertion
passed, 1 on a failed check or a module rejection, 2 on a usage error, a bad
config file included.  CSV reports quote fields that hold commas.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys

from . import atomic_open, mollifier as mo


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_seed = _checked(int, lambda n: n >= 0, "a non-negative integer")
# verify-vaughan's X^r stays finite; monitor-sieve draws Q from [2, --Q],
# H from [1, --H] and V from [0, --V], inside hybrid_large_sieve_monitor's ranges
_vaughan_r = _checked(int, lambda n: 1 <= n <= 20, "an integer in [1, 20]")
_vaughan_X = _checked(float, lambda x: 1 <= x <= 1e5, "a number in [1, 1e5]")
_sieve_Q = _checked(int, lambda n: 2 <= n <= 30, "an integer in [2, 30]")
_sieve_H = _checked(int, lambda n: 1 <= n <= 500, "an integer in [1, 500]")
_sieve_V = _checked(float, lambda x: 0 <= x <= 50, "a number in [0, 50]")
# --nu gives the tuple of moment orders to check; its default (1, 2) checks both
_nu = _checked(lambda text: (int(text),), lambda nus: nus in [(1,), (2,)], "1 or 2")


def _polynomial(text: str):
    """``--poly c1,...,cd``: the mollifier polynomial sum_j c_j x^j."""
    try:
        return mo.MollifierPolynomial(tuple(_finite(c) for c in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(args, payload: dict | list[dict]) -> None:
    """Write a report to --output (atomically) or stdout, as JSON or as a CSV
    header and row (a list holds one row; a field holding a comma is quoted)."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, default=repr) + "\n"
    else:
        row = payload[0] if isinstance(payload, list) else payload
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [row, [repr(v) if isinstance(v, float) else str(v) for v in row.values()]])
        text = buf.getvalue()
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_report_kappa(args) -> dict | None:
    poly, kappa_star = mo.optimize_P(args.theta, args.degree)
    kappa_d = mo.kappa_d_lower(kappa_star)
    print(f"kappa_star = {kappa_star!r}")
    print(f"kappa_d = {kappa_d!r}")
    if not args.output:  # the two lines above are the report
        return None
    return {
        "check": "report-kappa",
        "parameters": {"theta": args.theta, "degree": args.degree,
                       "multiplicity_constant": mo.KAPPA_MULTIPLICITY_CONSTANT},
        "polynomial": list(poly.coefficients),
        "s1_factor": mo.s1_factor(poly, args.theta),
        "s2_factor": mo.s2_factor(poly, args.theta),
        "kappa_star": kappa_star, "kappa_d": kappa_d,
    }


def cmd_optimize_poly(args) -> dict:
    poly, value = mo.optimize_P(args.theta, args.degree)
    return {
        "check": "optimize-poly",
        "parameters": {"theta": args.theta, "degree": args.degree},
        "coefficients": list(poly.coefficients),
        "kappa_star": value,
    }


def _verdict(check, parameters, worst_case, deviation, passed) -> dict:
    return {"check": check, "parameters": parameters, "worst_case": worst_case,
            "deviation": deviation, "pass": passed}


def cmd_verify_vaughan(args) -> dict:
    from . import vaughan as va

    N = args.N if args.N is not None else min(int(args.X**args.r), 10**5)
    r = va.verify_vaughan(va.VaughanConfig(args.r, args.X), N)
    return _verdict(r.check, r.parameters, r.worst_index, r.deviation, r.passed)


def cmd_verify_rearrangement(args) -> dict:
    from . import characters as ch

    spec = mo.MollifierSpec.with_y(args.T, args.y, args.poly)
    need = ch.a_limit(spec)
    results = []
    for nu in args.nu:
        a = ch.a_table(nu, spec, need)
        direct = ch.m_nu_direct(nu, spec, a)
        rearranged = ch.m_nu_rearranged(nu, spec, a)
        results.append({"nu": nu, "direct": repr(direct), "rearranged": repr(rearranged),
                        "relative_deviation": abs(direct - rearranged) / max(1.0, abs(direct))})
    worst = max(r["relative_deviation"] for r in results)
    return _verdict("rearrangement-equivalence", {"y": args.y, "T": args.T}, results, worst,
                    worst <= 1e-8)


def cmd_verify_split(args) -> dict:
    import numpy as np

    from . import vaughan as va

    spec = mo.MollifierSpec.with_y(1e4, 20.0)
    dec = va.decompose_a2(spec, va.VaughanConfig(3, 16.0), n_cap=1000)
    pick = int(np.random.default_rng(args.seed).integers(dec.count_terms()))
    term = next(itertools.islice(dec.terms(), pick, None))
    r = va.split_by_divisor(term, dec, args.d, args.m_limit)
    return _verdict(r.check, r.parameters, r.worst_index, r.deviation, r.passed)


def cmd_moments(args) -> list[dict]:
    from . import cache, zeta as ze

    if args.y is not None:
        spec = mo.MollifierSpec.with_y(args.T, args.y, args.poly)
    else:
        spec = mo.MollifierSpec.from_T_theta(args.T, args.theta, args.poly)
    if args.zero_source != "compute":
        zeros = ze.ingest_zeros(args.zero_source)
    else:
        zeros = cache.load_or_find_zeros(args.T, args.cache_dir, enabled=not args.no_cache)
    result = ze.compute_moments(spec, zeros)
    s1_scale, s2_scale = ze.predicted_moment_scales(spec)
    return [{  # one CSV row; as JSON, a list of one object
        "T": args.T, "theta": spec.theta,
        "poly": ";".join(repr(c) for c in spec.P.coefficients),
        "ReS1": result.S1.real, "ImS1": result.S1.imag, "S2": result.S2, "N": result.N_T,
        "kappa_bound": result.kappa_bound,
        "ReS1_over_predicted": result.S1.real / s1_scale,
        "S2_over_predicted": result.S2 / s2_scale,
    }]


def cmd_zeros_find(args) -> None:
    from . import cache, zeta as ze

    zeros = cache.load_or_find_zeros(args.T, args.cache_dir, enabled=not args.no_cache)
    if args.output:
        ze.write_zeros(zeros, args.output)
    else:
        for g in zeros.ordinates:
            print(repr(float(g)))
    sys.stdout.flush()
    count = ze.count_N(args.T, zeros)
    print(f"# N({args.T:g}) census={count.census} formula={count.formula}", file=sys.stderr)


def cmd_zeros_ingest(args) -> None:
    from . import zeta as ze

    zeros = ze.ingest_zeros(args.path)
    top = float(zeros.ordinates.max(initial=0.0))  # the header's max_height may lie above
    print(f"# ingested {len(zeros)} zeros up to {top!r}", file=sys.stderr)
    if args.output:
        ze.write_zeros(zeros, args.output)


def cmd_monitor_sieve(args) -> dict:
    from . import vaughan as va

    reports = va.run_sieve_trials(args.trials, args.seed, args.Q, args.H, args.V)
    worst = max(reports, key=lambda r: r.ratio)
    return _verdict("hybrid-large-sieve-monitor",
                    {"trials": args.trials, "seed": args.seed, "q_max": args.Q,
                     "h_max": args.H, "v_max": args.V},
                    {"Q": worst.Q, "V": worst.V, "H": worst.H, "lhs": worst.lhs, "rhs": worst.rhs},
                    worst.ratio, worst.ratio <= 6.0)


# ---------------------------------------------------------------------------
# The parameter table.  A row is (flag, type, default[, help]); the type is a
# converter, a tuple of choices, or bool for an on/off flag.  A tuple of rows
# is a mutually exclusive group.  default=None means the handler derives the
# value (--N, --y) or treats the flag as absent.

_OUTPUT = ("--output", str, None, "write the report or zero table to this file")
_JSON = ("--format", ("json", "csv"), "json")
_CACHE = (("--cache-dir", str, None), ("--no-cache", bool, False))

COMMANDS = {
    "report-kappa": ("closed-form kappa constants", cmd_report_kappa, [
        ("--theta", _finite, 0.5), ("--degree", _positive_int, 2), _OUTPUT,
        ("--format", ("json", "csv"), "json", "format of the --output report, default json")]),
    "optimize-poly": ("maximize the kappa quotient", cmd_optimize_poly, [
        ("--theta", _finite, 0.5), ("--degree", _positive_int, 2), _OUTPUT, _JSON]),
    "verify-vaughan": ("coefficient identity check", cmd_verify_vaughan, [
        ("--r", _vaughan_r, 3), ("--X", _vaughan_X, 10.0),
        ("--N", _positive_int, None, "default min(X^r, 10^5)"), _OUTPUT, _JSON]),
    "verify-rearrangement": ("additive vs character form", cmd_verify_rearrangement, [
        ("--y", _finite, 12.0), ("--T", _finite, 200.0),
        ("--nu", _nu, (1, 2), "1 or 2 (default both)"),
        ("--poly", _polynomial, None, "comma-separated c1,...,cd"), _OUTPUT, _JSON]),
    "verify-split": ("divisor splitting lemma check", cmd_verify_split, [
        ("--d", _positive_int, 12), ("--m-limit", _positive_int, 500),
        ("--seed", _seed, 0), _OUTPUT, _JSON]),
    "moments": ("empirical S1, S2, kappa bound", cmd_moments, [
        ("--T", _finite, 1000.0),
        (("--theta", _finite, 0.3), ("--y", _finite, None, "default T^theta")),
        ("--poly", _polynomial, None,
         "comma-separated c1,...,cd (default the paper's quadratic)"),
        ("--zero-source", str, "compute", "'compute' or a zero-table path"),
        *_CACHE, _OUTPUT, ("--format", ("json", "csv"), "csv")]),
    "zeros": ("find or ingest zero ordinates", None, []),
    "zeros find": ("scan for zero ordinates up to T", cmd_zeros_find, [
        ("--T", _finite, 100.0), *_CACHE, _OUTPUT]),
    "zeros ingest": ("read and validate a zero table", cmd_zeros_ingest, [
        ("path", str, None),
        ("--cache-dir", str, None, "accepted and unused: ingest reads and writes no cache"),
        _OUTPUT]),
    "monitor-sieve": ("hybrid large sieve ratio sweep", cmd_monitor_sieve, [
        ("--Q", _sieve_Q, 20), ("--H", _sieve_H, 200), ("--V", _sieve_V, 20.0),
        ("--trials", _positive_int, 200), ("--seed", _seed, 20250811), _OUTPUT, _JSON]),
}


def _rows(name: str):
    for row in COMMANDS[name][2]:
        yield from row if isinstance(row[0], tuple) else (row,)


def _add_row(parser, flag, kind, default, help=None) -> None:
    if kind is bool:
        parser.add_argument(flag, action="store_true", help=help)
        return
    if help is None and default is not None:
        help = "default %(default)s"
    convert = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
    parser.add_argument(flag, default=default, help=help, **convert)


def _build_parser(first: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or only of ``first`` (with its actions)
    when it names a command; the usage line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Desk-scale verification lab for mollified zeta moments",
    )
    tops = [name for name in COMMANDS if " " not in name]
    metavar = "{" + ",".join(tops) + "}" if first in tops else None
    groups = {"": parser.add_subparsers(dest="command", required=True, metavar=metavar)}
    for name, (help_, handler, rows) in COMMANDS.items():
        group, _, word = name.rpartition(" ")
        if metavar and name.split()[0] != first:
            continue
        p = groups[group].add_parser(word, help=help_)
        if handler is None:
            groups[name] = p.add_subparsers(dest="action", required=True)
            continue
        p.set_defaults(handler=handler, command=name)
        p.add_argument("--config", help="key=value config file; flags win")
        for row in rows:
            exclusive = isinstance(row[0], tuple)
            group = p.add_mutually_exclusive_group() if exclusive else p
            for r in row if exclusive else [row]:
                _add_row(group, *r)
    return parser


def _config_argv(parser: argparse.ArgumentParser, args, explicit: list[str]) -> list[str]:
    """The config file's lines as argv tokens, each key checked against the
    command's rows; any fault is a usage error (exit 2).  A key is dropped
    when the ``explicit`` command line names another member of its mutually
    exclusive group, in full or abbreviated as argparse allows: flags win."""
    flags = {flag[2:].replace("-", "_"): (flag, kind)
             for flag, kind, *_ in _rows(args.command) if flag.startswith("--")}
    named = [t.partition("=")[0] for t in explicit if t.startswith("--") and len(t) > 2]
    yields = {flag for row in COMMANDS[args.command][2] if isinstance(row[0], tuple)
              for flag, *_ in row for other, *_ in row
              if other != flag and any(other.startswith(name) for name in named)}
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    argv = []
    for lineno, line in enumerate(lines, start=1):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not key or key.startswith("#"):
            continue
        where = f"{args.config}:{lineno}"
        if not eq:
            parser.error(f"{where}: expected key=value, got {key!r}")
        if key.replace("-", "_") not in flags:
            parser.error(f"{where}: unknown key {key!r} for {args.command}")
        flag, kind = flags[key.replace("-", "_")]
        if flag in yields:
            continue
        if kind is not bool:
            argv.append(f"{flag}={value}")
        elif value.lower() in ("true", "false"):
            argv += [flag] if value.lower() == "true" else []
        else:
            parser.error(f"{where}: {key} takes true or false, got {value!r}")
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = len(args.command.split())
            args = parser.parse_args(argv[:at] + _config_argv(parser, args, argv[at:]) + argv[at:])
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report = args.handler(args)
        if report is not None:
            _emit(args, report)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"zetalab: {exc}", file=sys.stderr)
        return 1
    return 0 if not isinstance(report, dict) or report.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
