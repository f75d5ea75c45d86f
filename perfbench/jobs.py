"""Library jobs of the benchmark: one job is one fresh interpreter running

    python3 perfbench/jobs.py KIND PARAMS_JSON OUT_PREFIX

It imports only the zetalab modules its kind needs, does the computation,
and writes ``OUT_PREFIX.json`` (plus ``.npy`` arrays for the reconstruction
job).  It checks nothing itself: the benchmark driver checks the outputs
after the timed span, by routes independent of the program where one exists.
"""

from __future__ import annotations

import json
import sys


def _write(prefix: str, payload: dict) -> None:
    with open(prefix + ".json", "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def growth(p: dict, prefix: str) -> None:
    """a2 coefficient growth against the tau_9 envelope at size N."""
    from zetalab import arith, mollifier as mo

    N = p["N"]
    spec = mo.MollifierSpec.with_y(p["T"], p["y"])
    tau9 = arith.sieve_standard("tau_9", N)
    a2 = arith.compute_a2(N, mo.b_table(spec, N))
    rep = arith.coefficient_growth_report(a2, spec.log_scale, spec.P.sup_norm_01())
    spots = sorted(set(p["spots"]) | {rep.argmax})
    _write(prefix, {
        "max_ratio": rep.max_ratio, "argmax": rep.argmax,
        "violations": len(rep.violations), "envelope_scale": rep.envelope_scale,
        "tau9": {str(n): tau9[n] for n in spots},
        "a2": {str(n): a2[n] for n in spots},
    })


def recon(p: dict, prefix: str) -> None:
    """Dyadic reconstruction of a2 next to the direct compute_a2 table."""
    import numpy as np

    from zetalab import arith, mollifier as mo, vaughan as va

    n_cap = p["n_cap"]
    spec = mo.MollifierSpec.with_y(p["T"], p["y"])
    dec = va.decompose_a2(spec, va.VaughanConfig(3, p["X"]), n_cap=n_cap)
    np.save(prefix + ".recon.npy", dec.reconstruct())
    np.save(prefix + ".a2.npy", arith.compute_a2(n_cap, mo.b_table(spec, n_cap)).values)
    _write(prefix, {"n_cap": n_cap})


def gauss(p: dict, prefix: str) -> None:
    """Gauss-sum law |tau(psi)| = sqrt(q) and primitive counts on a band of q."""
    from zetalab import characters as ch

    rows = {}
    for q in range(p["q0"], p["q0"] + p["width"]):
        prims = ch.primitive_characters(q)
        worst = max((ch.gauss_sum(psi).modulus_sqrt_check for psi in prims), default=0.0)
        rows[str(q)] = {"count": len(prims), "worst": worst}
    _write(prefix, {"rows": rows})


def split(p: dict, prefix: str) -> None:
    """Divisor splitting of one term of the a2 decomposition over d <= d_max."""
    from zetalab import mollifier as mo, vaughan as va

    spec = mo.MollifierSpec.with_y(p["T"], p["y"])
    dec = va.decompose_a2(spec, va.VaughanConfig(3, p["X"]), n_cap=p["n_cap"])
    terms = list(dec.terms())
    term = terms[p["term"] % len(terms)]
    rows = {}
    for d in range(1, p["d_max"] + 1):
        rep = va.split_by_divisor(term, dec, d, p["m_limit"])
        rows[str(d)] = {"deviation": rep.deviation, "tolerance": rep.tolerance,
                        "count": rep.factorization_count}
    _write(prefix, {"terms": len(terms), "rows": rows})


def sqxd(p: dict, prefix: str) -> None:
    """Brute-force S(Q, X, d) for one seeded cell."""
    from zetalab import mollifier as mo, vaughan as va

    spec = mo.MollifierSpec.with_y(p["T"], p["y"])
    value = va.s_qxd_bruteforce(p["Q"], p["X"], p["d"], p["nu"], spec)
    _write(prefix, {"value": value})


def warm(p: dict, prefix: str) -> None:
    """Import every module (byte-compiles them, fills the page cache)."""
    import zetalab.cache
    import zetalab.cli
    import zetalab.vaughan  # noqa: F401  (imports arith, characters, mollifier, intfun)

    _write(prefix, {"modules": sorted(m for m in sys.modules if m.startswith("zetalab"))})


KINDS = {f.__name__: f for f in (growth, recon, gauss, split, sqxd, warm)}


def main(argv: list[str]) -> int:
    kind, params, prefix = argv
    KINDS[kind](json.loads(params), prefix)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
