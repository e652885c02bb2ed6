"""The package surface: names loaded on first access (PEP 562)."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gammaseq

SRC = Path(gammaseq.__file__).resolve().parents[1]


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("name", gammaseq.__all__[1:])
def test_each_name_is_its_home_modules_object(name):
    value = getattr(gammaseq, name)
    home = sys.modules[value.__module__]
    assert home.__name__ == f"gammaseq.{gammaseq._HOMES[name]}"
    assert getattr(home, name) is value


def test_star_import_binds_every_name():
    proc = _fresh("import sys, gammaseq\n"
                  "assert not [m for m in sys.modules if m.startswith('gammaseq.')]\n"
                  "from gammaseq import *\n"
                  "missing = set(gammaseq.__all__) - set(globals())\n"
                  "assert not missing, missing\n")
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_name():
    assert "__all__" in dir(gammaseq)
    assert set(gammaseq.__all__) <= set(dir(gammaseq))


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as exc:
        gammaseq.nope  # noqa: B018
    assert str(exc.value) == "module 'gammaseq' has no attribute 'nope'"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(gammaseq.__path__)))
def test_any_submodule_imports_first(module):
    # a fresh interpreter imports one submodule, then resolves every name
    proc = _fresh("import importlib, sys\n"
                  "importlib.import_module('gammaseq.' + sys.argv[1])\n"
                  "import gammaseq\n"
                  "for name in gammaseq.__all__:\n"
                  "    getattr(gammaseq, name)\n", module)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(gammaseq.__path__)))
def test_every_name_in_a_submodules_all_resolves(module):
    # a stale __all__ entry, naming something the module no longer defines,
    # would break `from gammaseq.<module> import *`
    home = importlib.import_module(f"gammaseq.{module}")
    missing = [name for name in getattr(home, "__all__", ()) if not hasattr(home, name)]
    assert missing == []
