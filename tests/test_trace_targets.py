"""The names perfbench/layertrace.py traces still exist in the package.

install() wraps every target of its TARGETS table and raises on a name it
cannot find, so a rename in the package would fail every traced benchmark
run.  This test reads the table (without changing it) and resolves each
name the way install() does: a module-level name by getattr on its module,
a Class.attr name in the class's own dict.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_table",
                                                  LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLE = _layertrace()
NAMES = [(module, path) for module, path, *_ in TABLE.TARGETS]
NAMES.append(TABLE.ENUMERATE[:2])


def test_the_table_is_read():
    assert len(NAMES) > 30
    assert ("rowmotion.words", "size_profile") in NAMES
    assert ("rowmotion.words", "MarkedSequence.window") in NAMES


@pytest.mark.parametrize("module_name,path", NAMES,
                         ids=[f"{m}.{p}" for m, p in NAMES])
def test_every_traced_name_resolves(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        assert attr in vars(getattr(module, owner_name)), path
    else:
        assert callable(getattr(module, attr)), path
