"""Structure guards on ``src/zetalab``: every function, class and public
class member has a caller in ``src/``, the package imports nothing but the
standard library and numpy, the README names every module, and every
library job of ``perfbench/jobs.py`` still runs against the package."""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import zetalab

SRC = Path(zetalab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public code that no src/ code reaches, each entry with its reason; a class
# member is named ``Class.member``.  A reason that cites perfbench names the job
# as "perfbench <kind> job".
ALLOWED = {
    # cross-check routes that the tests use as oracles (ROADMAP aim 2)
    "rs_theta_asymptotic": "second route for rs_theta",
    "zeta_prime_line_route": "second route for zeta'(rho)",
    "zeta_euler_maclaurin": "second route for _zeta_at_height and the Euler-Maclaurin branch",
    "quadrature_01": "second route for the closed-form polynomial moments",
    "eval_B": "second route for the B(rho) of compute_moments",
    "s_qxd_bruteforce": "brute-force S(Q, X, d)",
    "term_convolution": "per-term route for A2Decomposition.reconstruct",
    "MollifierPolynomial.derivative_at":
        "integrand of the quadrature route for integral_deriv_square",
    # read by perfbench jobs
    "primitive_characters": "perfbench gauss job",
    "gauss_sum": "perfbench gauss job",
    "coefficient_growth_report": "perfbench growth job",
    "MollifierPolynomial.sup_norm_01": "perfbench growth job",
    "A2Decomposition.reconstruct": "perfbench recon job and criterion 4",
    # closed-form main terms that normalise M_1 and M_2 (ROADMAP direction 2, step 4)
    "m11_factor": "main-term factor of M_1",
    "m21_factor": "main-term factor of M_2",
}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached(sources: dict[str, str], roots) -> list[str]:
    """``module.name`` of each top-level function or class, and
    ``module.Class.member`` of each public method or property, in ``sources``
    (module name -> text) that no reached code references.

    A reference (an AST Name or Attribute, not text) counts only from code
    that is itself reached: module-level statements such as the CLI's command
    table, the names in ``roots`` (``Class.member`` for a member), and every
    definition they reach in turn. So code called only by other unreached code
    is unreached too.  A class reaches its fields and private members; a public
    member is reached on its own, by any reached reference to its name."""
    uses, defined, live = {}, [], set()

    def define(name, qualified, names):
        uses[name] = uses.get(name, set()) | names
        defined.append((name, qualified))

    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                live |= _names(stmt)
                continue
            members = [m for m in stmt.body if isinstance(stmt, ast.ClassDef)
                       and isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for m in members:
                define(m.name, f"{module}.{stmt.name}.{m.name}", _names(m))
            rest = [n for n in ast.iter_child_nodes(stmt) if n not in members]
            define(stmt.name, f"{module}.{stmt.name}", set().union(*map(_names, rest)))
    todo = list(live | {root.split(".")[-1] for root in roots})
    while todo:
        name = todo.pop()
        live.add(name)
        todo += uses.pop(name, ())
    return sorted(qualified for name, qualified in defined if name not in live)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _private(qualified: str) -> bool:
    return qualified.split(".")[1].startswith("_")


def _member(qualified: str) -> bool:
    return qualified.count(".") == 2


def test_every_public_symbol_has_a_caller():
    sources = _sources()
    defined = set()
    for text in sources.values():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                defined |= {f"{stmt.name}.{m.name}" for m in stmt.body
                            if isinstance(m, ast.FunctionDef)}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    unreached = [q for q in _unreached(sources, ALLOWED) if not _private(q) and not _member(q)]
    assert not unreached, f"public code that no src/ code reaches: {unreached}"


def test_every_public_member_has_a_caller():
    """A public method or property of a class is reached when reached src/
    code names it; test-only accessors need an allowlist entry."""
    unreached = [q for q in _unreached(_sources(), ALLOWED) if _member(q)]
    assert not unreached, f"class members that no src/ code reaches: {unreached}"


def test_private_helpers_have_a_caller():
    """A ``_helper`` at module level is reached from code that is itself
    reached, like public code but with no allowlist."""
    unreached = [q for q in _unreached(_sources(), ALLOWED) if _private(q)]
    assert not unreached, f"private helpers that no reached code calls: {unreached}"


def test_allowlist_holds_only_code_that_src_does_not_reach():
    """An entry that src/ code comes to call leaves the allowlist."""
    sources = _sources()
    for name in ALLOWED:
        others = set(ALLOWED) - {name}
        assert any(q.endswith(f".{name}") for q in _unreached(sources, others)), (
            f"{name} is reached from src/ and needs no allowlist entry")


def test_guard_names_code_reached_only_from_unreached_code():
    sources = {
        "a": "import b\n"
             "COMMANDS = {'run': b.handler}\n"
             "def helper():\n    return 1\n"
             "def orphan():\n    return chain()\n"
             "def _orphan_private():\n    return 0\n",
        "b": "class Handler:\n"
             "    def run(self):\n        return self._hook()\n"
             "    def idle(self):\n        return oracle()\n"
             "    def _hook(self):\n        return 0\n"
             "def handler():\n    return helper() + Handler().run()\n"
             "def chain():\n    return 2\n"
             "def oracle():\n    return 3\n",
    }
    assert _unreached(sources, ()) == ["a._orphan_private", "a.orphan", "b.Handler.idle",
                                       "b.chain", "b.oracle"]
    assert _unreached(sources, {"oracle", "orphan"}) == ["a._orphan_private", "b.Handler.idle"]
    assert _unreached(sources, {"Handler.idle", "orphan"}) == ["a._orphan_private"]


def test_allowlist_reasons_name_the_perfbench_job_that_calls_them():
    """A reason that cites perfbench names a kind of ``perfbench/jobs.py``'s
    KINDS, and that kind's function calls the allowlisted name."""
    tree = ast.parse((ROOT / "perfbench" / "jobs.py").read_text())
    functions = {s.name: s for s in tree.body if isinstance(s, ast.FunctionDef)}
    kinds_value = next(s.value for s in tree.body if isinstance(s, ast.Assign)
                       and any(getattr(t, "id", None) == "KINDS" for t in s.targets))
    kinds = {n.id for n in ast.walk(kinds_value) if isinstance(n, ast.Name)} & set(functions)
    for name, reason in ALLOWED.items():
        if "perfbench" not in reason:
            continue
        cited = re.findall(r"perfbench (\w+) job", reason)
        assert cited, f"{name}: reason {reason!r} names no perfbench job"
        for kind in cited:
            assert kind in kinds, f"{name}: perfbench has no {kind!r} job"
            called = {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                      for n in ast.walk(functions[kind]) if isinstance(n, ast.Call)
                      and isinstance(n.func, (ast.Name, ast.Attribute))}
            assert name.split(".")[-1] in called, f"{name}: perfbench {kind} job does not call it"


def test_imports_only_the_standard_library_and_numpy():
    """numpy is the one runtime dependency, in pyproject.toml and in the code."""
    deps = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                     re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = {node.module.split(".")[0]}
            else:
                continue
            outside |= {f"{path.stem}: {t}" for t in tops
                        if t not in sys.stdlib_module_names and t not in ("numpy", "zetalab")}
    assert not outside, sorted(outside)


def test_readme_layout_names_every_module():
    listed = set(re.findall(r"^\| `zetalab\.(\w+)` \|", (ROOT / "README.md").read_text(), re.M))
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert listed == modules


# tiny parameters for each kind of perfbench/jobs.py
JOB_PARAMS = {
    "growth": {"N": 2000, "T": 1e4, "y": 20.0, "spots": [2, 1999]},
    "recon": {"n_cap": 500, "T": 1e4, "y": 20.0, "X": 16.0},
    "gauss": {"q0": 1, "width": 5},
    "split": {"T": 1e4, "y": 20.0, "X": 16.0, "n_cap": 200, "d_max": 3, "m_limit": 50,
              "term": 5},
    "sqxd": {"T": 1e4, "y": 20.0, "Q": 4, "X": 100, "d": 2, "nu": 2},
    "warm": {},
}


def test_job_params_cover_every_perfbench_kind(perfbench_jobs):
    assert set(JOB_PARAMS) == set(perfbench_jobs.KINDS)


@pytest.mark.parametrize("kind", sorted(JOB_PARAMS))
def test_perfbench_library_job_runs(perfbench_jobs, kind, tmp_path):
    """A src/ change that breaks a job's contract fails here, not at the benchmark."""
    prefix = str(tmp_path / kind)
    perfbench_jobs.KINDS[kind](JOB_PARAMS[kind], prefix)
    assert isinstance(json.loads(Path(prefix + ".json").read_text()), dict)
    if kind == "recon":
        recon, a2 = np.load(prefix + ".recon.npy"), np.load(prefix + ".a2.npy")
        assert recon.shape == a2.shape == (JOB_PARAMS["recon"]["n_cap"] + 1,)
