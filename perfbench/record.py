"""Record the environment and the baseline rows of the layers at fixed sizes.

    python3 perfbench/record.py

Run from the root of a zetalab checkout.  Runs four traced jobs (tracer.py)
at the sizes of the ROADMAP baseline table and rewrites the "environment"
and "baseline" sections of perfbench/RECORD.json; its hand-written
"workloads" section is kept.  Times are traced span times of one run.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import run

RECORD = run.HERE / "RECORD.json"

ROWS = [
    ("find_zeros", run.cli_job("find", "find", ["zeros", "find", "--T", "20000.0", "--output",
                                                 "z.txt", "--cache-dir", "cache"], "z.txt"),
     "T = 2e4, cold cache", ["zeta.find_zeros"]),
    ("tau_9 and compute_a2", run.lib_job("growth", "growth",
                                         {"N": 100000, "T": 1e4, "y": 30.0, "spots": [2]}),
     "N = 1e5, y = 30", ["arith.sieve_standard", "arith.compute_a2"]),
    ("m_nu_rearranged", run.cli_job("rearr", "rearrangement",
                                    ["verify-rearrangement", "--T", "2000.0", "--y", "40.0",
                                     "--nu", "2", "--output", "r.json"], "r.json"),
     "nu = 2, (T, y) = (2e3, 40)", ["characters.m_nu_rearranged", "characters.m_nu_direct"]),
    ("split_by_divisor", run.lib_job("split", "split",
                                     {"T": 1e4, "y": 20.0, "X": 16.0, "n_cap": 1000,
                                      "m_limit": 1000, "d_max": 30, "term": 0}),
     "one term, d <= 30, m_limit = 1000", ["vaughan.split_by_divisor"]),
]


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_pin": run.BLAS_PIN,
        "note": "every job runs with this pin; the benchmark measures one job at a time",
    }


def baseline() -> list[dict]:
    rows = []
    work = run.ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    try:
        for label, job, size, spans in ROWS:
            session = work / job["id"]
            rec = run.spawn(job, session, session / "trace.json")
            if rec["rc"] != 0:
                raise RuntimeError(f"{label}: job exited {rec['rc']}")
            tr = json.loads((session / "trace.json").read_text())
            row = {"layer": label, "size": size, "job_s": round(rec["wall"], 3)}
            for name in spans:
                s = tr["spans"].get(name, {"calls": 0, "incl_s": 0.0})
                row[name] = {"s": round(s["incl_s"], 4), "calls": s["calls"]}
            c = tr["counters"]
            if c.get("zeta.find_zeros.zeros"):
                row["zeros"] = int(c["zeta.find_zeros.zeros"])
                row["z_evals_per_zero"] = round(c["zeta.find_zeros.z_evals"] / row["zeros"], 2)
            if label == "split_by_divisor":
                s = tr["spans"]["vaughan.split_by_divisor"]
                row["s_per_call"] = round(s["incl_s"] / s["calls"], 5)
            rows.append(row)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return rows


def main() -> int:
    if not (run.SRC / "zetalab" / "__init__.py").is_file():
        print("record: run from a zetalab checkout", file=sys.stderr)
        return 2
    os.environ.update(run.BLAS_PIN)
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record["environment"] = environment()
    record["baseline"] = {"measured": time.strftime("%Y-%m-%d"), "rows": baseline()}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["baseline"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
