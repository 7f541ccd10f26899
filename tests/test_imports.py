"""The modules of ringspec import only public names from one another, the
package exports exactly the public names it imports, no program path calls the
Aberth oracle, and only the numeric spectrum and the oscillation report read
eigenvalues."""

from __future__ import annotations

import ast
from pathlib import Path

import ringspec

SOURCES = sorted(Path(ringspec.__file__).parent.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``.module:name`` for each underscore name a relative import brings in."""
    return [f"{'.' * node.level}{node.module or ''}:{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


#: the only (module, top-level scope) pairs that may name ``eigvals``
EIGVALS_SCOPES = {("ringgraph", "spectrum_numeric"), ("dynamics", "oscillation_report")}


def layering_violations(source: str, module: str) -> list[str]:
    """``module.scope`` for each place that breaks the root finder's layering.

    Only ``rootfind`` itself may name ``aberth_roots``, the tests' oracle: no
    program path calls it and the package does not export it.  ``eigvals``
    may be named only in ``ringgraph.spectrum_numeric`` and
    ``dynamics.oscillation_report``, so never in ``polycore``, ``rootfind``
    or the exact verdicts and records.  The consensus dynamics may not import
    from ``rootfind`` at all.
    """
    found = []
    for node in ast.parse(source).body:
        scope = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            names = {getattr(sub, "id", None), getattr(sub, "attr", None)}
            if isinstance(sub, ast.ImportFrom):
                names |= {alias.name for alias in sub.names}
                if module == "dynamics" and sub.level > 0 and (
                        sub.module == "rootfind" or "rootfind" in names):
                    found.append(f"dynamics.{scope}: imports rootfind")
            if "aberth_roots" in names and module != "rootfind":
                found.append(f"{module}.{scope}: aberth_roots")
            if "eigvals" in names and (module, scope) not in EIGVALS_SCOPES:
                found.append(f"{module}.{scope}: eigvals")
    return found


def test_the_check_sees_a_layering_violation():
    planted = ("from .rootfind import aberth_roots\n"
               "def report(g):\n    return rootfind.aberth_roots(p)\n")
    assert layering_violations(planted, "cli") == [
        "cli.<module>: aberth_roots", "cli.report: aberth_roots"]
    assert layering_violations(planted, "dynamics") == [
        "dynamics.<module>: imports rootfind", "dynamics.<module>: aberth_roots",
        "dynamics.report: aberth_roots"]
    assert layering_violations("from . import rootfind\n", "dynamics") == [
        "dynamics.<module>: imports rootfind"]
    call = "(g):\n    return rootfind.aberth_roots(p)\n"
    assert layering_violations("def other" + call, "ringgraph") == [
        "ringgraph.other: aberth_roots"]
    # the numeric spectrum and the package's exports may not name it either
    assert layering_violations("def spectrum_numeric" + call, "ringgraph") == [
        "ringgraph.spectrum_numeric: aberth_roots"]
    assert layering_violations("from .rootfind import aberth_roots\n", "__init__") == [
        "__init__.<module>: aberth_roots"]
    assert layering_violations("def oracle" + call, "rootfind") == []
    eigvals = "(g):\n    return np.linalg.eigvals(m)\n"
    assert layering_violations("def spectrum_numeric" + eigvals, "ringgraph") == []
    assert layering_violations("def oscillation_report" + eigvals, "dynamics") == []
    for module, scope in [("polycore", "poly_mul"), ("rootfind", "certify_roots"),
                          ("ringgraph", "classify_exact"), ("ringgraph", "char_poly"),
                          ("ringgraph", "classification_record"), ("dynamics", "simulate")]:
        assert layering_violations(f"def {scope}" + eigvals, module) == [
            f"{module}.{scope}: eigvals"]
    assert layering_violations("from numpy.linalg import eigvals\n", "rootfind") == [
        "rootfind.<module>: eigvals"]


def test_the_root_finder_has_one_entry_point():
    found = {path.stem: layering_violations(path.read_text(), path.stem) for path in SOURCES}
    assert {"cli", "dynamics", "polycore", "ringgraph", "rootfind"} <= set(found)
    assert {name: places for name, places in found.items() if places} == {}
    # both places that may read eigenvalues do
    for module, scope in EIGVALS_SCOPES:
        source = (SOURCES[0].parent / f"{module}.py").read_text()
        node = next(n for n in ast.parse(source).body if getattr(n, "name", None) == scope)
        assert any(getattr(sub, "attr", None) == "eigvals" for sub in ast.walk(node))


def test_the_check_sees_a_private_import():
    assert private_imports("from .ringgraph import RingDigraph, _hidden\n"
                           "from ringspec.ringgraph import _absolute\n"
                           "def f():\n    from . import _module\n") == [
        ".ringgraph:_hidden", ".:_module"]


def test_no_module_imports_a_private_name_of_a_sibling():
    assert len(SOURCES) >= 9
    found = {path.name: private_imports(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_exports_resolve_and_match_the_imports():
    exported = ringspec.__all__
    assert [name for name in exported if not hasattr(ringspec, name)] == []
    assert len(set(exported)) == len(exported)
    init = Path(ringspec.__file__).read_text()
    imported = [alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(exported) == sorted(name for name in imported if not name.startswith("_"))
