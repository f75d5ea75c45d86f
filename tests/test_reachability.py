"""Structure guards on ``src/zetalab``: every function or class has a caller
in ``src/``, the package imports nothing but the standard library and numpy,
and the README names every module."""

import ast
import re
import sys
from pathlib import Path

import zetalab

SRC = Path(zetalab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public code that no src/ code reaches, each entry with its reason.
ALLOWED = {
    # cross-check routes that the tests use as oracles (ROADMAP aim 2)
    "rs_theta_asymptotic": "second route for rs_theta",
    "zeta_prime_line_route": "second route for zeta'(rho)",
    "zeta_euler_maclaurin": "second route for _zeta_at_height and the Euler-Maclaurin branch",
    "quadrature_01": "second route for the closed-form polynomial moments",
    "eval_B": "second route for the B(rho) of compute_moments",
    "s_qxd_bruteforce": "brute-force S(Q, X, d)",
    "term_convolution": "per-term route for A2Decomposition.reconstruct",
    # reached by the tests only (perfbench's tracer names it but no job calls it)
    "enumerate_characters": "every character mod q, for the tests of the character laws",
    # perfbench's gauss and growth jobs
    "primitive_characters": "perfbench gauss job",
    "gauss_sum": "perfbench gauss job",
    "coefficient_growth_report": "perfbench growth job",
    # closed-form main terms that normalise M_1 and M_2 (ROADMAP directions 1, 4)
    "m11_factor": "main-term factor of M_1",
    "m21_factor": "main-term factor of M_2",
}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached(sources: dict[str, str], roots) -> list[str]:
    """``module.name`` of each top-level function or class in ``sources``
    (module name -> text) that no reached code references.

    A reference (an AST Name or Attribute, not text) counts only from code
    that is itself reached: module-level statements such as the CLI's command
    table, the names in ``roots``, and every top-level definition they reach
    in turn. So code called only by other unreached code is unreached too."""
    uses, defined, live = {}, {}, set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                uses[stmt.name] = uses.get(stmt.name, set()) | _names(stmt)
                defined[stmt.name] = f"{module}.{stmt.name}"
            else:
                live |= _names(stmt)
    todo = list(live | set(roots))
    while todo:
        name = todo.pop()
        live.add(name)
        todo += uses.pop(name, ())
    return sorted(defined[n] for n in defined if n not in live)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _private(qualified: str) -> bool:
    return qualified.split(".")[1].startswith("_")


def test_every_public_symbol_has_a_caller():
    sources = _sources()
    defined = {stmt.name for text in sources.values() for stmt in ast.parse(text).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    unreached = [q for q in _unreached(sources, ALLOWED) if not _private(q)]
    assert not unreached, f"public code that no src/ code reaches: {unreached}"


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
        "b": "class Handler:\n    pass\n"
             "def handler():\n    return helper() + Handler()\n"
             "def chain():\n    return 2\n"
             "def oracle():\n    return 3\n",
    }
    assert _unreached(sources, ()) == ["a._orphan_private", "a.orphan", "b.chain", "b.oracle"]
    assert _unreached(sources, {"oracle", "orphan"}) == ["a._orphan_private"]


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
