"""Run one benchmark job with per-module layer tracing, from outside src/.

    python3 perfbench/tracer.py TRACE_OUT SPAWN_T cli ARGS...
    python3 perfbench/tracer.py TRACE_OUT SPAWN_T job KIND PARAMS_JSON OUT_PREFIX

An import hook wraps every binding of each public function of a zetalab
module as the module is loaded, so from-imports made later by other modules
(``vaughan.dirichlet_convolve``, ``zeta.eval_b``, ...) bind the wrapper too;
``A2Decomposition.reconstruct`` and ``.terms`` are wrapped as methods.
Names that do not exist are skipped.  A wrapped call is a span: its self
time is its duration minus the time its child spans cover, and a layer
(module) self time is the sum over its spans.  The hot per-element calls in
``COUNT_ONLY`` are counted, never timed, and calls made inside them are
neither.  Work counters are computed from call arguments and results; cache
hit and miss counts come from ``cache_info()``.  Everything is kept in
memory and written as JSON to TRACE_OUT when the job ends.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import json
import os
import sys
import time
from collections import defaultdict

EM_CUTOFF = 400.0   # zeta's Euler-Maclaurin / Riemann-Siegel split
COUNT_ONLY = {"mollifier.eval_b", "characters.delta_term"}
NOT_WRAPPED = {"intfun.factorize"}   # hot; read through cache_info() instead
METHODS = {"vaughan": {"A2Decomposition": ("reconstruct", "terms")}}

clock = time.monotonic   # CLOCK_MONOTONIC: comparable with the parent's spawn time


class Tracer:
    def __init__(self):
        self.stack = []          # [name, start, child_time]
        self.active = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.cached = {}         # name -> lru_cache object
        self.wrappers = {}       # id(original) -> wrapper
        self.quiet = 0           # > 0 inside a count-only call
        self.first_layer_t = None

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        t = clock()
        if self.first_layer_t is None and not name.startswith("cli."):
            self.first_layer_t = t
        self.stack.append([name, t, 0.0])
        self.active[name] += 1

    def leave(self):
        name, t0, child = self.stack.pop()
        dur = clock() - t0
        self.active[name] -= 1
        if not self.active[name]:
            self.incl[name] += dur      # outermost occurrence only
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn):
        if id(fn) in self.wrappers:
            return self.wrappers[id(fn)]
        probe = PROBES.get(name)
        tracer = self
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                tracer.quiet += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.quiet -= 1
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.quiet:
                    yield from fn(*args, **kwargs)
                    return
                tracer.enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.leave()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.quiet:
                    return fn(*args, **kwargs)
                before = probe.before(tracer, args, kwargs) if probe else None
                tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leave()
                if probe:
                    probe.after(tracer, args, kwargs, result, before)
                return result
        wrapper._perfbench_wrapped = True
        self.wrappers[id(fn)] = wrapper
        return wrapper

    def instrument(self, module):
        layer = module.__name__.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "_perfbench_wrapped", False):
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith("zetalab."):
                continue
            name = f"{home.rpartition('.')[2]}.{attr}"
            if hasattr(obj, "cache_info"):
                self.cached[name] = obj
            if name in NOT_WRAPPED:
                continue
            setattr(module, attr, self.wrap(name, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name, None)
            for meth in methods:
                fn = getattr(cls, meth, None) if cls is not None else None
                if inspect.isfunction(fn):
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", fn))

    def report(self, spawn_t: float) -> dict:
        return {
            "import_s": (self.first_layer_t - spawn_t) if self.first_layer_t else None,
            "spans": {n: {"calls": self.calls[n], "incl_s": self.incl[n],
                          "self_s": self.self_s[n]} for n in self.calls},
            "counters": dict(self.counters),
            "cache_info": {n: {"hits": f.cache_info().hits, "misses": f.cache_info().misses}
                           for n, f in self.cached.items()},
        }


# --- work counters computed from call arguments and results -----------------


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


class Probe:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, result, before):
        pass


class HardyZ(Probe):
    def before(self, tracer, args, kwargs):
        import numpy as np

        t = np.asarray(_arg(args, kwargs, 0, "t"), dtype=float)
        em = int((t < EM_CUTOFF).sum())
        c = tracer.counters
        c["zeta.hardy_z.points_em"] += em
        c["zeta.hardy_z.points_rs"] += t.size - em
        if tracer.active["zeta.find_zeros"]:
            c["zeta.find_zeros.z_evals"] += t.size


class FindZeros(Probe):
    def after(self, tracer, args, kwargs, result, before):
        tracer.counters["zeta.find_zeros.zeros"] += len(result)


class Convolve(Probe):
    def before(self, tracer, args, kwargs):
        import numpy as np

        f, g = args[0], args[1]
        limit = _arg(args, kwargs, 2, "limit") or min(f.limit, g.limit)
        support = np.nonzero(f.values[1:limit + 1])[0] + 1
        c = tracer.counters
        c["arith.dirichlet_convolve.loop_iters"] += len(support)
        c["arith.dirichlet_convolve.updates"] += int((limit // support).sum())


class EnumerateCharacters(Probe):
    def after(self, tracer, args, kwargs, result, before):
        tracer.counters["characters.enumerate_characters.count"] += len(result)


class LoadOrFindZeros(Probe):
    def before(self, tracer, args, kwargs):
        return tracer.calls["zeta.find_zeros"]

    def after(self, tracer, args, kwargs, result, before):
        hit = tracer.calls["zeta.find_zeros"] == before
        tracer.counters["cache.zero_hits" if hit else "cache.zero_misses"] += 1


class WrittenBytes(Probe):
    """Bytes of a file written inside a cache-layer span."""

    def __init__(self, path_index):
        self.path_index = path_index

    def after(self, tracer, args, kwargs, result, before):
        if any(n.startswith("cache.") for n, *_ in tracer.stack):
            path = _arg(args, kwargs, self.path_index, "path")
            tracer.counters["cache.bytes_written"] += os.path.getsize(path)


PROBES = {
    "zeta.hardy_z": HardyZ(),
    "zeta.find_zeros": FindZeros(),
    "arith.dirichlet_convolve": Convolve(),
    "characters.enumerate_characters": EnumerateCharacters(),
    "cache.load_or_find_zeros": LoadOrFindZeros(),
    "zeta.write_zeros": WrittenBytes(1),
    "arith.save_table": WrittenBytes(1),
}


class _Finder:
    """Meta-path finder that instruments each zetalab module after it executes."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("zetalab."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_instrument(module):
            exec_module(module)
            tracer.instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


def main(argv: list[str]) -> int:
    out_path, spawn_t, mode, *rest = argv
    tracer = Tracer()
    sys.meta_path.insert(0, _Finder(tracer))
    try:
        if mode == "cli":
            from zetalab import cli

            code = cli.main(rest)
        else:
            import jobs

            code = jobs.main(rest)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.report(float(spawn_t)), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
