"""Output checks of the benchmark, run after the timed span.

Each check compares a job's output with an independent route where one
exists: exact integer arithmetic for tau_9 and the character and
factorisation counts, direct divisor sums for a2, mpmath for Hardy Z and
zeta'(rho), and the closed forms for the moment scales and kappa.  A check reports
its margin in digits, log10(tolerance / deviation); exact agreement is
capped at ``MARGIN_CAP`` digits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

MARGIN_CAP = 12.0
ORDINATE_TOL = 1e-6      # the README's ingest cross-check tolerance
ZETA_PRIME_TOL = 1e-3    # relative; enough for the 3-digit moment ratios
A2_TOL = 1e-10           # relative, a2 spot values against divisor sums
RECON_TOL = 1e-9         # acceptance criterion 4
GAUSS_TOL = 1e-9         # acceptance criterion 7
REARRANGE_TOL = 1e-8     # acceptance criterion 6
S1_BAND, S2_BAND, KAPPA_MAX = (0.8, 1.2), (0.55, 1.2), 1.01   # criterion 9
SIEVE_RATIO_MAX = 6.0    # acceptance criterion 10


@dataclass
class Check:
    job: str
    name: str
    ok: bool
    margin: float | None = None   # digits; None for pass/fail-only checks
    layer: str | None = None      # layer whose output the margin measures
    detail: str = ""


def margin_digits(tol: float, dev: float) -> float:
    return math.log10(tol / max(dev, tol * 10.0**-MARGIN_CAP))


def _tol_check(job, name, dev, tol, layer, detail="") -> Check:
    ok = math.isfinite(dev) and dev <= tol
    return Check(job, name, ok, margin_digits(tol, dev) if ok else None, layer,
                 detail or f"deviation {dev:.3e} vs tolerance {tol:g}")


# --- independent integer routes ------------------------------------------


def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def mobius(n: int) -> int:
    f = factorize(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def tau9_exact(n: int) -> int:
    return math.prod(math.comb(a + 8, 8) for _, a in factorize(n))


def primitive_count_exact(q: int) -> int:
    return math.prod(p - 2 if a == 1 else p ** (a - 2) * (p - 1) ** 2
                     for p, a in factorize(q))


def quadratic_b(k: int, T: float, y: float) -> float:
    """b(k) for the paper's quadratic P(x) = (1 + th) x - th x^2, th = log y / log T."""
    if k > y:
        return 0.0
    mu = mobius(k)
    if mu == 0:
        return 0.0
    th = math.log(y) / math.log(T)
    x = math.log(y / k) / math.log(y)
    return mu * ((1.0 + th) * x - th * x * x)


def a2_direct(n: int, T: float, y: float) -> float:
    """a2(n) = -sum_{k | n} b(k) c(n/k), where c = Lambda * log * log is
    c(m) = sum_{p^j | m} log p sum_{e | m/p^j} log e log(m/(p^j e))."""
    def loglog(m):
        return math.fsum(math.log(e) * math.log(m // e) for e in divisors(m))

    def c(m):
        return math.fsum(math.log(p) * loglog(m // p**j)
                         for p, a in factorize(m) for j in range(1, a + 1))

    return -math.fsum(quadratic_b(k, T, y) * c(n // k) for k in divisors(n) if k <= y)


# --- per-kind checks ------------------------------------------------------


def _json(path: Path) -> dict:
    """A job's JSON output; a missing or malformed file raises, failing the job."""
    return json.loads(path.read_text())


def check_find(job, d: Path, ctx: dict) -> list[Check]:
    err = (d / f"{job['id']}.err").read_text()
    m = re.search(r"census=(\d+) formula=(\d+)", err)
    if not m:
        return [Check(job["id"], "census-line", False, detail="no census line on stderr")]
    census, formula = int(m.group(1)), int(m.group(2))
    checks = [Check(job["id"], "census==formula", census == formula,
                    detail=f"census {census} formula {formula}")]
    lines = [ln for ln in (d / job["report"]).read_text().splitlines()
             if ln and not ln.startswith("#")]
    ords = [float(ln) for ln in lines]
    T = job["check"]["T"]
    sane = (len(ords) == census and all(a < b for a, b in zip(ords, ords[1:]))
            and bool(ords) and 14.0 < ords[0] and ords[-1] <= T)
    checks.append(Check(job["id"], "table", sane, detail=f"{len(ords)} ordinates"))
    ctx["census"], ctx["top"] = census, (ords[-1] if ords else None)
    if not sane:
        return checks

    import mpmath
    import numpy as np

    from zetalab import zeta as ze

    mpmath.mp.dps = 20
    picks = [ords[i % len(ords)] for i in job["check"]["picks"]]
    prog = ze.zeta_prime_many(np.array(picks))
    for g, zp in zip(picks, prog):
        ref = complex(mpmath.zeta(mpmath.mpc(0.5, g), derivative=1))
        z_at = abs(float(mpmath.siegelz(g)))
        checks.append(_tol_check(job["id"], f"ordinate@{g:.4f}", z_at / abs(ref),
                                 ORDINATE_TOL, "zeta.ordinate"))
        checks.append(_tol_check(job["id"], f"zeta'@{g:.4f}", abs(zp - ref) / abs(ref),
                                 ZETA_PRIME_TOL, "zeta.prime"))
    return checks


def check_ingest(job, d: Path, ctx: dict) -> list[Check]:
    m = re.search(r"ingested (\d+) zeros up to (\S+)", (d / f"{job['id']}.err").read_text())
    ok = bool(m) and int(m.group(1)) == ctx.get("census") and float(m.group(2)) == ctx.get("top")
    return [Check(job["id"], "ingest-count", ok, detail=m.group(0) if m else "no ingest line")]


def _factors(coeffs, theta):
    """Closed-form main-term factors of P(x) = sum_j c_j x^(j+1):
    s1 = 1/2 + theta int P, s2 = 1/3 + theta int P + (theta int P)^2 + int P'^2 / (12 theta)."""
    ip = math.fsum(c / (j + 2) for j, c in enumerate(coeffs))
    ipd = math.fsum((i + 1) * (j + 1) * ci * cj / (i + j + 1)
                    for i, ci in enumerate(coeffs) for j, cj in enumerate(coeffs))
    return 0.5 + theta * ip, 1 / 3 + theta * ip + (theta * ip) ** 2 + ipd / (12 * theta)


def check_moments(job, d: Path, ctx: dict) -> list[Check]:
    text = (d / job["report"]).read_text().splitlines()
    if len(text) != 2:
        return [Check(job["id"], "moments-report", False, detail="missing CSV row")]
    row = dict(zip(text[0].split(","), text[1].split(",")))
    T, theta = float(row["T"]), float(row["theta"])
    coeffs = [float(c) for c in row["poly"].split(";")]
    re1, im1, s2, n = float(row["ReS1"]), float(row["ImS1"]), float(row["S2"]), int(row["N"])
    r1, r2, kappa = (float(row["ReS1_over_predicted"]), float(row["S2_over_predicted"]),
                     float(row["kappa_bound"]))
    f1, f2 = _factors(coeffs, theta)
    L = math.log(T / (2 * math.pi))
    s1_scale = T / (2 * math.pi) * L**2 * f1
    s2_scale = T / (2 * math.pi) * L**3 * f2
    dev = max(abs(re1 / s1_scale - r1) / abs(r1), abs(s2 / s2_scale - r2) / abs(r2),
              abs((re1 * re1 + im1 * im1) / (s2 * n) - kappa) / kappa)
    bands = (S1_BAND[0] <= r1 <= S1_BAND[1] and S2_BAND[0] <= r2 <= S2_BAND[1]
             and 0.0 < kappa <= KAPPA_MAX)
    return [
        Check(job["id"], "zero-count", n == ctx.get("census"), detail=f"N={n}"),
        Check(job["id"], "criterion-9-bands", bands,
              detail=f"S1 ratio {r1:.4f} S2 ratio {r2:.4f} kappa {kappa:.4f}"),
        _tol_check(job["id"], "moment-scales", dev, 1e-9, "zeta.moments"),
    ]


def check_optimize(job, d: Path, ctx: dict) -> list[Check]:
    rep = _json(d / job["report"])
    theta, coeffs, kappa = rep["parameters"]["theta"], rep["coefficients"], rep["kappa_star"]
    s1, s2 = _factors(coeffs, theta)
    q1, q2 = _factors([1.0 + theta, -theta], theta)
    quadratic = q1 * q1 / q2
    return [
        Check(job["id"], "P(1)=1", abs(math.fsum(coeffs) - 1.0) <= 1e-12, detail=repr(coeffs)),
        Check(job["id"], "beats-paper-quadratic", kappa >= quadratic - 1e-12,
              detail=f"kappa {kappa!r} vs quadratic {quadratic!r}"),
        _tol_check(job["id"], "kappa-closed-form", abs(s1 * s1 / s2 - kappa) / kappa, 1e-9,
                   "mollifier"),
    ]


def check_growth(job, d: Path, ctx: dict) -> list[Check]:
    out = _json(d / f"{job['id']}.json")
    p = job["params"]
    tau_ok = all(v == tau9_exact(int(n)) for n, v in out["tau9"].items())
    checks = [Check(job["id"], "tau9-exact", tau_ok, MARGIN_CAP if tau_ok else None, "arith",
                    f"{len(out['tau9'])} spot values")]
    worst = max(abs(v - a2_direct(int(n), p["T"], p["y"])) / max(1.0, abs(v))
                for n, v in out["a2"].items())
    checks.append(_tol_check(job["id"], "a2-divisor-sums", worst, A2_TOL, "arith"))
    n = out["argmax"]
    expect = abs(out["a2"][str(n)]) / (out["envelope_scale"] * tau9_exact(n))
    checks.append(_tol_check(job["id"], "growth-ratio", abs(expect - out["max_ratio"])
                             / out["max_ratio"], 1e-12, "arith"))
    return checks


def check_recon(job, d: Path, ctx: dict) -> list[Check]:
    import numpy as np

    recon = np.load(d / f"{job['id']}.recon.npy")
    a2 = np.load(d / f"{job['id']}.a2.npy")
    n = min(job["params"]["n_cap"], int(job["params"]["X"] ** 3))
    dev = float(np.abs(recon[1:n + 1] - a2[1:n + 1]).max() / np.abs(a2[1:n + 1]).max())
    return [_tol_check(job["id"], "reconstruction", dev, RECON_TOL, "vaughan")]


def check_vaughan(job, d: Path, ctx: dict) -> list[Check]:
    rep = _json(d / job["report"])
    p = rep["parameters"]
    tol = 1e-9 * max(1.0, math.log(p["N"]))
    ok = rep["pass"] and p["r"] == 3 and p["N"] <= p["X"] ** 3 <= 1e5 + 1
    c = _tol_check(job["id"], "vaughan-identity", rep["deviation"], tol, "vaughan")
    c.ok = c.ok and ok
    return [c]


def check_rearrangement(job, d: Path, ctx: dict) -> list[Check]:
    rep = _json(d / job["report"])
    dev = max(abs(complex(r["direct"]) - complex(r["rearranged"]))
              / max(1.0, abs(complex(r["direct"]))) for r in rep["worst_case"])
    c = _tol_check(job["id"], "rearrangement", dev, REARRANGE_TOL, "characters")
    c.ok = c.ok and rep["pass"] and len(rep["worst_case"]) == 2
    return [c]


def check_gauss(job, d: Path, ctx: dict) -> list[Check]:
    out = _json(d / f"{job['id']}.json")
    rows = out["rows"]
    counts_ok = all(r["count"] == primitive_count_exact(int(q)) for q, r in rows.items())
    worst = max(r["worst"] for r in rows.values())
    return [Check(job["id"], "primitive-counts", counts_ok, detail=f"{len(rows)} moduli"),
            _tol_check(job["id"], "gauss-sum-law", worst, GAUSS_TOL, "characters")]


def check_split(job, d: Path, ctx: dict) -> list[Check]:
    out = _json(d / f"{job['id']}.json")
    rows = out["rows"]
    counts_ok = all(r["count"] == math.prod(math.comb(a + 8, 8) for _, a in factorize(int(dd)))
                    for dd, r in rows.items())
    worst = max(r["deviation"] / r["tolerance"] for r in rows.values())
    return [Check(job["id"], "factorisation-counts", counts_ok, detail=f"d <= {len(rows)}"),
            _tol_check(job["id"], "divisor-splitting", worst, 1.0, "vaughan")]


def check_sieve(job, d: Path, ctx: dict) -> list[Check]:
    rep = _json(d / job["report"])
    c = _tol_check(job["id"], "hybrid-sieve-ratio", rep["deviation"], SIEVE_RATIO_MAX, "vaughan")
    c.ok = c.ok and rep["pass"]
    return [c]


def check_sqxd(job, d: Path, ctx: dict) -> list[Check]:
    v = _json(d / f"{job['id']}.json")["value"]
    return [Check(job["id"], "s_qxd", isinstance(v, float) and math.isfinite(v) and v >= 0.0,
                  detail=f"S = {v!r}")]


CHECKS = {
    "find": check_find, "ingest": check_ingest, "moments": check_moments,
    "growth": check_growth, "recon": check_recon, "vaughan": check_vaughan,
    "rearrangement": check_rearrangement, "gauss": check_gauss, "split": check_split,
    "sieve": check_sieve, "sqxd": check_sqxd, "optimize": check_optimize,
}
