"""zetalab benchmark: seeded verification jobs, one fresh interpreter per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zetalab checkout; the program is imported from its
``src/``.  A single client runs a closed loop: it spawns one job, waits for
it to exit, then spawns the next.  A run is a fixed number of whole units of
the workload's job list, ``--seconds / UNIT_SECONDS[workload]``, rounded.
With ``--seconds 30`` that is 2, 2 and 4 units, which took 25 to 45 s on
the 2-core machine where the benchmark was defined, and put the median and
the tail of each workload inside a group of like jobs rather than between
two.  Fixing the work rather than the time keeps the job count, and so the
percentile that ``job_s.tail`` reports and the work counts, independent of
how fast the machine or the program runs.  Every job is a fresh
interpreter, as every CLI user gets, so no in-process memo
(``arith._table_cache``, the ``lru_cache`` and ``cached_property`` memos)
carries over between jobs.
Outputs are checked after the timed span, by independent routes
(``checks.py``).  The last line of stdout is one JSON object: end-to-end
metrics with ``--trace 0``; with ``--trace 1``, per-layer metrics from one
unit of the same jobs run twice, untraced and traced (``tracer.py``).

Workloads, and why each was chosen:

zero_pipeline  sessions of CLI jobs sharing one fresh cache directory:
               ``zeros find`` (cold scan, census check, cache write),
               ``zeros ingest`` of the written table (parse, validation,
               Euler-Maclaurin cross-check to t = 201), and ``moments`` at
               three seeded theta/polynomial choices plus a repeat of the
               first (cache read, zeta'(rho), B(1/2 + i gamma)).  ``zeta`` does
               nearly all the work; ``arith``, ``characters`` and ``vaughan``
               are never imported.
coeff_tables   library jobs building dense tables at large size: the a2
               growth monitor against the tau_9 envelope, ``verify-vaughan``
               with r = 3, and the a2 dyadic reconstruction against
               ``compute_a2``.  ``arith`` convolutions and sieves dominate;
               ``zeta`` is absent.
char_checks    many short checks: ``verify-rearrangement``, Gauss sums and
               primitive-character counts on a band of moduli, divisor
               splitting, ``monitor-sieve``, ``s_qxd_bruteforce`` and
               ``optimize-poly``.  ``characters`` and the splitting verifier
               dominate, ``arith`` builds many small tables, and interpreter
               start-up has its largest share.

Time metrics are scaled to a reference machine speed.  Where the benchmark
was defined, the machine's speed switched between phases minutes long (the
same zero_pipeline run took 28 s in one and 51 s in another), and raw job
times spread 25 % over ten seeds that straddled a switch.  So before each
job the driver times a fixed pure-Python loop in its own process
(``probe_speed``; it runs no zetalab code, so no change to zetalab can move
it) and multiplies ``job_s.p50``, ``job_s.tail`` and ``setup_s`` by
``PROBE_NOMINAL_S / median(probe time)``, dividing ``jobs_per_s`` by the
same factor: they read as on a machine where the loop takes
``PROBE_NOMINAL_S``.  The unscaled values are printed above the result
line; per-layer times are not scaled.

Job sizes come in antithetic pairs (x, lo + hi - x) whose x sits on a
lattice across each range, shifted by the seed by a fifth of a lattice step.
A run holds only a few units, so sizes drawn freely from the range would make
its cost, and every end-to-end metric, depend on the seed; on the lattice
every run sees the same spread of sizes, while the seed still chooses each
size and every other input (theta, polynomial, terms, moduli, checked zeros).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 100.0
HARD_CAP_S = 120.0        # start no job after this; a run must end within 180 s
SETUP_REPEATS = 3
PROBE_LOOPS = 200_000     # the speed probe's fixed work
PROBE_NOMINAL_S = 0.02    # its time on the defining machine: the reference speed
LATTICE = 2               # units per cycle of the size lattice
JITTER = 0.2              # seeded shift of a lattice point, in lattice steps
UNIT_SECONDS = {"zero_pipeline": 15.0, "coeff_tables": 15.0, "char_checks": 7.5}
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "job_s.p50": "s", "job_s.tail": "s", "jobs_per_s": "1/s", "setup_s": "s",
    "ok_frac": "ratio", "check_margin_digits": "digits", "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source); sources: self (layer self time), incl
# (span time), calls, counter, cache (lru misses), margin, or derived.
PER_LAYER = {
    "zeta.self_s": ("s", "self"),
    "zeta.find_zeros.s": ("s", "incl"),
    "zeta.hardy_z.s": ("s", "incl"),
    "zeta.hardy_z.points_rs": ("count", "counter"),
    "zeta.hardy_z.points_em": ("count", "counter"),
    "zeta.z_evals_per_zero": ("evals/zero", "derived"),
    "zeta.count_formula.s": ("s", "incl"),
    "zeta.gram_points.s": ("s", "incl"),
    "zeta.zeta_prime_many.s": ("s", "incl"),
    "zeta.compute_moments.s": ("s", "incl"),
    "zeta.ingest_zeros.s": ("s", "incl"),
    "zeta.ordinate_margin_digits": ("digits", "margin"),
    "zeta.prime_margin_digits": ("digits", "margin"),
    "cache.self_s": ("s", "self"),
    "cache.zero_hits": ("count", "counter"),
    "cache.zero_misses": ("count", "counter"),
    "cache.bytes_written": ("B", "counter"),
    "arith.self_s": ("s", "self"),
    "arith.dirichlet_convolve.s": ("s", "incl"),
    "arith.dirichlet_convolve.calls": ("count", "calls"),
    "arith.dirichlet_convolve.updates": ("count", "counter"),
    "arith.dirichlet_convolve.loop_iters": ("count", "counter"),
    "arith.sieve_standard.s": ("s", "incl"),
    "arith.compute_a2.s": ("s", "incl"),
    "vaughan.self_s": ("s", "self"),
    "vaughan.verify_vaughan.s": ("s", "incl"),
    "vaughan.reconstruct.s": ("s", "incl"),
    "vaughan.split_by_divisor.s": ("s", "incl"),
    "vaughan.split_by_divisor.calls": ("count", "calls"),
    "vaughan.run_sieve_trials.s": ("s", "incl"),
    "vaughan.margin_digits": ("digits", "margin"),
    "characters.self_s": ("s", "self"),
    "characters.enumerate_characters.s": ("s", "incl"),
    "characters.enumerate_characters.count": ("count", "counter"),
    "characters.primitive_characters.misses": ("count", "cache"),
    "characters.gauss_sum.calls": ("count", "calls"),
    "characters.m_nu_rearranged.s": ("s", "incl"),
    "characters.m_nu_direct.s": ("s", "incl"),
    "characters.delta_term.calls": ("count", "calls"),
    "characters.margin_digits": ("digits", "margin"),
    "mollifier.self_s": ("s", "self"),
    "mollifier.eval_b.calls": ("count", "calls"),
    "mollifier.optimize_P.s": ("s", "incl"),
    "mollifier.b_table.s": ("s", "incl"),
    "intfun.self_s": ("s", "self"),
    "intfun.factorize.misses": ("count", "cache"),
    "cli.import_s": ("s", "derived"),
    "cli.self_s": ("s", "self"),
    "trace.overhead_frac": ("ratio", "derived"),
}


# --- job lists ---------------------------------------------------------------


def cli_job(jid, kind, args, report, **check):
    """A zetalab CLI invocation; ``report`` is the output file a repeat must match."""
    return {"id": jid, "kind": kind, "cli": args, "report": report, "check": check}


def lib_job(jid, kind, params, report_suffix=".json"):
    """A jobs.py invocation, one library check."""
    return {"id": jid, "kind": kind, "params": params, "report": jid + report_suffix}


def repeat(job, jid):
    """The same job again under a new id; its report must be byte-identical."""
    out = json.loads(json.dumps(job))
    out["id"] = jid
    out["repeat_of"] = job["id"]
    if "cli" in out:
        args = out["cli"]
        args[args.index("--output") + 1] = out["report"] = out["report"].replace(job["id"], jid)
    else:
        out["report"] = out["report"].replace(job["id"], jid)
    return out


def pair(lo, hi, v):
    """Antithetic pair (lo + (hi - lo) v, hi - (hi - lo) v) for v in [0, 1/2)."""
    return lo + (hi - lo) * v, hi - (hi - lo) * v


def zero_pipeline(rng, u, v, tiny):
    lo, hi, thetas = (1000.0, 1500.0, (0.3, 0.4)) if tiny else (1e4, 3e4, (0.2, 0.4))
    jobs = []
    for s, T in enumerate(pair(lo, hi, v)):
        T = round(T, 1)
        p = f"u{u}s{s}"
        th1, th2, th3 = (round(float(x), 3) for x in rng.uniform(*thetas, size=3))
        picks = [int(i) for i in rng.integers(0, 1 << 30, size=3)]
        table = f"{p}.find.txt"
        find = cli_job(f"{p}.find", "find", ["zeros", "find", "--T", repr(T), "--output", table,
                                            "--cache-dir", "cache"], table, T=T, picks=picks)
        ingest = cli_job(f"{p}.ingest", "ingest",
                         ["zeros", "ingest", table, "--cache-dir", "cache"], f"{p}.ingest.err")
        m1 = cli_job(f"{p}.m1", "moments", ["moments", "--T", repr(T), "--theta", repr(th1),
                                            "--cache-dir", "cache", "--output", f"{p}.m1.csv"],
                     f"{p}.m1.csv")
        m2 = cli_job(f"{p}.m2", "moments", ["moments", "--T", repr(T), "--theta", repr(th2),
                                            "--poly", "1.0", "--cache-dir", "cache",
                                            "--output", f"{p}.m2.csv"],
                     f"{p}.m2.csv")
        m3 = cli_job(f"{p}.m3", "moments", ["moments", "--T", repr(T), "--theta", repr(th3),
                                            "--cache-dir", "cache", "--output", f"{p}.m3.csv"],
                     f"{p}.m3.csv")
        for job in (find, ingest, m1, m2, m3, repeat(m1, f"{p}.m1r")):
            job["session"] = p
            jobs.append(job)
    return jobs


def coeff_tables(rng, u, v, tiny):
    N_range, V_range, n_cap = ((2000, 5000), (1000, 5000), 1000) if tiny else \
        ((20000, 100000), (10000, 50000), 10000)
    jobs = []
    for s, N in enumerate(pair(*N_range, v)):
        N = int(round(N))
        spots = sorted({int(x) for x in rng.integers(2, N + 1, size=6)} | {N})
        jobs.append(lib_job(f"u{u}.growth{s}", "growth",
                            {"N": N, "T": 1e4, "y": round(float(rng.uniform(16, 40)), 2),
                             "spots": spots}))
    for s, NV in enumerate(pair(*V_range, v)):
        X = math.floor(NV ** (1 / 3) * 1e4) / 1e4
        jid = f"u{u}.vaughan{s}"
        jobs.append(cli_job(jid, "vaughan", ["verify-vaughan", "--r", "3", "--X", repr(X),
                                             "--output", jid + ".json"],
                            jid + ".json"))
    rec = lib_job(f"u{u}.recon", "recon",
                  {"n_cap": n_cap, "T": 1e4, "y": round(float(rng.uniform(16, 40)), 2),
                   "X": round(float(rng.uniform(16, 32)), 2)}, ".recon.npy")
    jobs += [rec, repeat(rec, f"u{u}.reconr")]
    for job in jobs:
        job["session"] = f"u{u}"
    return jobs


def char_checks(rng, u, v, tiny):
    (T_lo, T_hi), (y_lo, y_hi) = ((200.0, 400.0), (5.0, 10.0)) if tiny else \
        ((400.0, 2000.0), (10.0, 40.0))
    q_hi, width, d_max, m_limit, trials, Q_hi, X_hi = (
        (20, 5, 4, 200, 20, 6, 200) if tiny else (200, 25, 30, 1000, 200, 16, 2000))
    jobs = []
    for s, (T, f) in enumerate(zip(pair(T_lo, T_hi, v), (v, 1.0 - v))):
        # theta = log y / log T must stay below 1/2, so y < sqrt(T)
        y = y_lo + (min(y_hi, 0.9 * math.sqrt(T)) - y_lo) * f
        jid = f"u{u}.rearr{s}"
        jobs.append(cli_job(jid, "rearrangement",
                            ["verify-rearrangement", "--T", repr(round(T, 1)), "--y",
                             repr(round(y, 2)), "--output", jid + ".json"],
                            jid + ".json"))
    for s, q0 in enumerate(pair(1, q_hi - width + 1, v)):
        jobs.append(lib_job(f"u{u}.gauss{s}", "gauss", {"q0": int(round(q0)), "width": width}))
    jobs.append(lib_job(f"u{u}.split", "split",
                        {"T": 1e4, "y": 20.0, "X": 16.0, "n_cap": 1000, "m_limit": m_limit,
                         "d_max": d_max, "term": int(rng.integers(0, 1 << 30))}))
    jid = f"u{u}.sieve"
    jobs.append(cli_job(jid, "sieve", ["monitor-sieve", "--trials", str(trials), "--seed",
                                       str(int(rng.integers(0, 1 << 30))), "--output",
                                       jid + ".json"], jid + ".json"))
    jobs.append(lib_job(f"u{u}.sqxd", "sqxd",
                        {"T": 1e4, "y": 20.0, "Q": int(rng.integers(Q_hi * 3 // 4, Q_hi + 1)),
                         "X": int(rng.integers(X_hi * 3 // 4, X_hi + 1)),
                         "d": int(rng.integers(1, 9)), "nu": int(rng.integers(1, 3))}))
    for degree in (2, 3, 4):
        jid = f"u{u}.opt{degree}"
        theta = round(float(rng.uniform(0.1, 0.5)), 3)
        jobs.append(cli_job(jid, "optimize",
                            ["optimize-poly", "--theta", repr(theta), "--degree", str(degree),
                             "--output", jid + ".json"], jid + ".json"))
    jobs.append(repeat(jobs[0], f"u{u}.rearr0r"))
    for job in jobs:
        job["session"] = f"u{u}"
    return jobs


WORKLOADS = {"zero_pipeline": zero_pipeline, "coeff_tables": coeff_tables,
             "char_checks": char_checks}


def job_list(workload: str, seed: int, n_units: int, tiny: bool = False) -> list[list[dict]]:
    """Units of jobs made from the seed alone; the same seed gives the same list."""
    import numpy as np

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    units = []
    for u in range(n_units):
        jitter = JITTER * (float(rng.random()) - 0.5)
        v = (u % LATTICE + 0.5 + jitter) / (2 * LATTICE)
        units.append(WORKLOADS[workload](rng, u, v, tiny))
    return units


def digest(units) -> str:
    return hashlib.sha256(json.dumps(units, sort_keys=True).encode()).hexdigest()[:16]


# --- running jobs ------------------------------------------------------------


def job_env(session: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "ZETALAB_CACHE"}
    env.update(BLAS_PIN, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               ZETALAB_CACHE=str(session / "cache"))
    return env


def job_argv(job, trace_file: Path | None, spawn_t: float) -> list[str]:
    if "cli" in job:
        tail = ["cli", *job["cli"]]
        plain = ["-m", "zetalab.cli", *job["cli"]]
    else:
        tail = ["job", job["kind"], json.dumps(job["params"], sort_keys=True), job["id"]]
        plain = [str(HERE / "jobs.py"), *tail[1:]]
    if trace_file is None:
        return [sys.executable, *plain]
    return [sys.executable, str(HERE / "tracer.py"), str(trace_file), repr(spawn_t), *tail]


def spawn(job, session: Path, trace_file: Path | None = None) -> dict:
    """Run one job to exit; wall time from spawn to exit and its own peak RSS."""
    session.mkdir(parents=True, exist_ok=True)
    env = job_env(session)
    timed_out = threading.Event()
    with open(session / f"{job['id']}.out", "wb") as fo, \
            open(session / f"{job['id']}.err", "wb") as fe:
        spawn_t = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(job_argv(job, trace_file, spawn_t), cwd=session, env=env,
                                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        timer = threading.Timer(JOB_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"id": job["id"], "kind": job["kind"], "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode, "timed_out": timed_out.is_set()}


def setup(workload, seed, n_units, tiny, run_dir: Path, i: int):
    """Generate the inputs, create the session directories, run one warm-up job."""
    units = job_list(workload, seed, n_units, tiny)
    base = run_dir / f"setup{i}"
    for unit in units:
        for job in unit:
            (base / job["session"]).mkdir(parents=True, exist_ok=True)
    warm = lib_job("warm", "warm", {})
    rec = spawn(warm, base / "warm")
    if rec["rc"] != 0:
        raise RuntimeError(f"warm-up job failed: {(base / 'warm' / 'warm.err').read_text()}")
    return units, base


def probe_speed() -> float:
    """Seconds this process takes for a fixed pure-Python loop: the machine-speed probe."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def run_loop(units, base: Path):
    """Run the jobs one at a time, probing the machine's speed before each.
    Returns the job records, the time spent in jobs and the probe times."""
    t_start = time.perf_counter()
    records, probes = [], []
    for unit in units:
        for job in unit:
            if time.perf_counter() - t_start >= HARD_CAP_S:
                break
            probes.append(probe_speed())
            records.append(spawn(job, base / job["session"]))
    return records, time.perf_counter() - t_start - sum(probes), probes


def check_jobs(jobs, records, base: Path):
    """Check each job's outputs; returns the checks and the ids of failed jobs."""
    from checks import CHECKS, Check

    by_id = {r["id"]: r for r in records}
    ctx_by_session: dict = {}
    all_checks, failed = [], set()
    for job in jobs:
        rec = by_id.get(job["id"])
        if rec is None:
            continue
        d = base / job["session"]
        ctx = ctx_by_session.setdefault(job["session"], {})
        checks = [Check(job["id"], "exit", rec["rc"] == 0 and not rec["timed_out"],
                        detail=f"rc={rec['rc']} timed_out={rec['timed_out']}")]
        try:
            checks += CHECKS[job["kind"]](job, d, ctx)
        except Exception as exc:   # a malformed output is a failed check, not a crash
            checks.append(Check(job["id"], "check-raised", False, detail=repr(exc)))
        if "repeat_of" in job:
            orig = next(j for j in jobs if j["id"] == job["repeat_of"])
            first = _bytes(d / orig["report"])
            same = first is not None and first == _bytes(d / job["report"])
            checks.append(Check(job["id"], "repeat-identical", same,
                                detail=f"{job['report']} vs {orig['report']}"))
        all_checks += checks
        if not all(c.ok for c in checks):
            failed.add(job["id"])
    return all_checks, failed


def _bytes(path: Path):
    return path.read_bytes() if path.exists() else None


# --- metrics -----------------------------------------------------------------


def tail(times):
    """Highest percentile with at least ten jobs beyond it: (value, percentile)."""
    ordered = sorted(times)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(records, elapsed, probes, setups, checks, failed):
    times = [r["wall"] for r in records]
    t_val, t_pct = tail(times)
    scale = PROBE_NOMINAL_S / statistics.median(probes)
    groups: dict = {}
    for c in checks:
        if c.margin is not None:
            groups.setdefault(c.name.split("@")[0], []).append(c.margin)
    typical = {k: statistics.median(v) for k, v in groups.items()}
    raw = {
        "job_s.p50": statistics.median(times),
        "job_s.tail": t_val,
        "jobs_per_s": len(records) / elapsed,
        "setup_s": statistics.median(setups),
    }
    values = {
        "job_s.p50": raw["job_s.p50"] * scale,
        "job_s.tail": raw["job_s.tail"] * scale,
        "jobs_per_s": raw["jobs_per_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "ok_frac": 1.0 - len(failed) / len(records),
        "check_margin_digits": min(typical.values(), default=0.0),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["wall"])
    print("median job s by kind: " + ", ".join(
        f"{k} {statistics.median(v):.3f} (x{len(v)})" for k, v in kinds.items()))
    print(f"speed probe {statistics.median(probes):.5f} s (median of {len(probes)}); time "
          f"metrics scaled by {scale:.4f}; unscaled: "
          + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    worst = min((c for c in checks if c.margin is not None), key=lambda c: c.margin, default=None)
    print(f"{len(records)} jobs in {elapsed:.2f} s; job_s.tail is p{t_pct:.1f} "
          f"({sum(t > t_val for t in times)} jobs beyond it); "
          f"failed_frac {len(failed) / len(records):.4f}")
    if worst:
        print(f"check_margin_digits is the median margin of the weakest kind of check, "
              f"{min(typical, key=typical.get)}; the single worst check is {worst.job} "
              f"{worst.name} at {worst.margin:.3f} digits")
    return values


def per_layer(jobs, pairs, base: Path, checks):
    """Aggregate the traced jobs' spans and counters into the per-layer metrics."""
    spans: dict = {}
    counters: dict = {}
    cache_misses: dict = {}
    import_s = 0.0
    for job in jobs:
        path = base / (job["session"] + "-traced") / f"{job['id']}.trace.json"
        if not path.exists():
            continue
        tr = json.loads(path.read_text())
        import_s += tr["import_s"] or 0.0
        for name, s in tr["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in agg:
                agg[k] += s[k]
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, info in tr["cache_info"].items():
            cache_misses[name] = cache_misses.get(name, 0) + info["misses"]
    margins: dict = {}
    for c in checks:
        if c.margin is not None and c.layer:
            margins[c.layer] = min(margins.get(c.layer, math.inf), c.margin)
    untraced = statistics.median(p[0]["wall"] for p in pairs)
    traced = statistics.median(p[1]["wall"] for p in pairs)
    zeros = counters.get("zeta.find_zeros.zeros", 0)
    evals = counters.get("zeta.find_zeros.z_evals", 0)
    derived = {
        "zeta.z_evals_per_zero": evals / zeros if zeros else 0.0,
        "cli.import_s": import_s,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    margin_layer = {"zeta.ordinate_margin_digits": "zeta.ordinate",
                    "zeta.prime_margin_digits": "zeta.prime"}
    values, absent = {}, []
    for name, (unit, source) in PER_LAYER.items():
        stem = name.rsplit(".", 1)[0]
        if source == "self":
            v = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == stem)
        elif source == "incl":
            v = spans.get(stem, {}).get("incl_s", 0.0)
        elif source == "calls":
            v = spans.get(stem, {}).get("calls", 0)
        elif source == "counter":
            v = counters.get(name, 0)
        elif source == "cache":
            v = cache_misses.get(stem, 0)
        elif source == "margin":
            v = margins.get(margin_layer.get(name, stem), 0.0)
            if v == 0.0:
                absent.append(name)
        else:
            v = derived[name]
        values[name] = v
    if absent:
        print("no checks of this kind on this workload (reported as 0): " + ", ".join(absent))
    return values


# --- main --------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (self-test only)")
    return ap.parse_args(argv)


def run(args) -> dict:
    run_dir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        n_units = max(1, round(args.seconds / UNIT_SECONDS[args.workload]))
        setups = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            units, base = setup(args.workload, args.seed, n_units, args.tiny, run_dir, i)
            setups.append(time.perf_counter() - t0)
        print(f"workload {args.workload} seed {args.seed}: job-list digest {digest(units)}")
        if args.trace:
            return traced_run(units[0], base)
        records, elapsed, probes = run_loop(units, base)
        jobs = [job for unit in units for job in unit]
        checks, failed = check_jobs(jobs, records, base)
        report_failures(checks)
        metrics = end_to_end(records, elapsed, probes, setups, checks, failed)
        return result(not failed, len(records), len(failed), metrics, END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


def traced_run(unit, base: Path) -> dict:
    """Each job of one unit untraced and traced, in twin session directories,
    alternating which of the two runs first."""
    pairs = []
    for i, job in enumerate(unit):
        twin = base / (job["session"] + "-traced")
        rec = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            rec[traced] = (spawn(job, twin, twin / f"{job['id']}.trace.json") if traced
                           else spawn(job, base / job["session"]))
        pairs.append((rec[False], rec[True]))
    checks, failed = check_jobs(unit, [a for a, _ in pairs], base)
    report_failures(checks)
    t_failed = set()
    for job, (_, b) in zip(unit, pairs):
        first = _bytes(base / job["session"] / job["report"])
        if b["rc"] != 0 or first is None or first != _bytes(
                base / (job["session"] + "-traced") / job["report"]):
            t_failed.add(job["id"])
            print(f"FAIL {job['id']}: traced job exited {b['rc']} or its report differs")
    metrics = per_layer(unit, pairs, base, checks)
    n_failed = len(failed) + len(t_failed)
    return result(n_failed == 0, 2 * len(pairs), n_failed, metrics,
                  {k: u for k, (u, _) in PER_LAYER.items()})


def report_failures(checks):
    for c in checks:
        if not c.ok:
            print(f"FAIL {c.job}: {c.name}: {c.detail}")


def result(correct, attempted, failed, values, units) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through the finally clauses: kill the running job, remove the run directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"perfbench: no zetalab sources under {SRC}; run from a zetalab checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    out = run(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
