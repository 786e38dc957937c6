"""No module of the package imports a private name from rowmotion.poset.

Every other module reads the orbit engine through its public names,
list_orbits and Listing among them.  Each module under src/rowmotion is
parsed with ast, and each from-import of poset is read for names that
start with an underscore.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rowmotion"


def private_poset_imports(source: str) -> list[str]:
    """The names starting with _ that source imports from poset."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in (("poset", 1),
                                              ("rowmotion.poset", 0))
            for alias in node.names if alias.name.startswith("_")]


def test_the_guard_sees_a_private_import():
    assert private_poset_imports(
        "from .poset import DEFAULT_CAP, _list_orbits\n"
        "def f():\n    from rowmotion.poset import _step\n"
    ) == ["_list_orbits", "_step"]
    assert private_poset_imports(
        "from .words import _private\nfrom .poset import list_orbits\n"
    ) == []


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "poset.py"],
    ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_poset(path):
    assert private_poset_imports(path.read_text()) == []
