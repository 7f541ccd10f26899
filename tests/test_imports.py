"""The modules of ringspec import only public names from one another, the
package exports exactly the public names it imports, only the numeric spectrum
and the oscillation report read eigenvalues, and every function and class of
the root finder serves the rest of the program."""

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

    ``eigvals`` may be named only in ``ringgraph.spectrum_numeric`` and
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
            if "eigvals" in names and (module, scope) not in EIGVALS_SCOPES:
                found.append(f"{module}.{scope}: eigvals")
    return found


def test_the_check_sees_a_layering_violation():
    assert layering_violations("from .rootfind import certify_roots\n", "dynamics") == [
        "dynamics.<module>: imports rootfind"]
    assert layering_violations("from . import rootfind\n", "dynamics") == [
        "dynamics.<module>: imports rootfind"]
    assert layering_violations("from . import rootfind\n", "ringgraph") == []
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


def rootfind_names(source: str) -> set[str]:
    """The names a module imports from ``rootfind`` or reads as ``rootfind.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("rootfind", "ringspec.rootfind"):
            names |= {alias.name for alias in node.names}
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "rootfind"):
            names.add(node.attr)
    return names


def unreached(source: str, roots: set[str]) -> list[str]:
    """The module-level functions and classes of ``source`` that nothing reaches.

    Reaching starts from the names in ``roots`` and from every top-level
    statement that defines no function or class (constants and imports); a
    statement reaches each module-level function or class whose name it reads.
    """
    body = ast.parse(source).body
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = {node.name: node for node in body if isinstance(node, kinds)}
    todo = [defs[name] for name in roots if name in defs]
    todo += [node for node in body if not isinstance(node, kinds)]
    seen = set()
    while todo:
        for sub in ast.walk(todo.pop()):
            name = getattr(sub, "id", None)
            if name in defs and name not in seen:
                seen.add(name)
                todo.append(defs[name])
    seen |= set(roots)
    return sorted(name for name in defs if name not in seen)


def test_the_check_sees_an_unreached_definition():
    planted = ("LIMIT = _limit()\n"
               "def _limit():\n    return 3\n"
               "def used(x: '_Lonely') -> int:\n    return _helper(x)\n"
               "def _helper(x):\n    return x\n"
               "def _orphan():\n    return _helper(_Lonely())\n"
               "class _Lonely:\n    pass\n")
    assert unreached(planted, {"used"}) == ["_Lonely", "_orphan"]
    assert unreached(planted, {"used", "_orphan"}) == []
    assert unreached(planted, set()) == ["_Lonely", "_helper", "_orphan", "used"]
    assert rootfind_names("from .rootfind import a, b as c\nfrom . import rootfind\n"
                          "def f():\n    return rootfind.d(rootfind)\n") == {"a", "b", "d"}


def test_every_root_finder_definition_serves_the_program():
    # a function or class of rootfind that no other module reaches, directly
    # or through rootfind's own definitions, serves only the tests
    used = set().union(*(rootfind_names(path.read_text()) for path in SOURCES
                         if path.stem != "rootfind"))
    assert {"certify_roots", "refine_all", "char_poly_exact", "spectral_verdict"} <= used
    source = (SOURCES[0].parent / "rootfind.py").read_text()
    assert unreached(source, used) == []


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
