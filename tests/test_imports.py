"""The modules of ringspec import only public names from one another, and the
package exports exactly the public names it imports."""

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
