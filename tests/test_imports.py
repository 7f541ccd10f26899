"""The modules of ringspec import only public names from one another, the
package exports exactly the public names it imports, and the root finder has
one entry point."""

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


def layering_violations(source: str, module: str) -> list[str]:
    """``module.scope`` for each place that breaks the root finder's layering.

    Only ``rootfind`` itself and ``ringgraph.spectrum_numeric`` may name
    ``aberth_roots``; the package's ``__init__`` may re-export it.  The
    consensus dynamics may not import from ``rootfind`` at all.
    """
    found = []
    for node in ast.parse(source).body:
        scope = getattr(node, "name", "<module>")
        allowed = module == "rootfind" or (module, scope) == ("ringgraph", "spectrum_numeric")
        for sub in ast.walk(node):
            names = {getattr(sub, "id", None), getattr(sub, "attr", None)}
            if isinstance(sub, ast.ImportFrom):
                names |= {alias.name for alias in sub.names}
                if module == "dynamics" and sub.level > 0 and (
                        sub.module == "rootfind" or "rootfind" in names):
                    found.append(f"dynamics.{scope}: imports rootfind")
                if module == "__init__":
                    continue
            if "aberth_roots" in names and not allowed:
                found.append(f"{module}.{scope}: aberth_roots")
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
    # the one entry point, and the package's re-export, pass
    assert layering_violations("def spectrum_numeric" + call, "ringgraph") == []
    assert layering_violations("from .rootfind import aberth_roots\n", "__init__") == []


def test_the_root_finder_has_one_entry_point():
    found = {path.stem: layering_violations(path.read_text(), path.stem) for path in SOURCES}
    assert {"cli", "dynamics", "ringgraph", "rootfind"} <= set(found)
    assert {name: places for name, places in found.items() if places} == {}


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
