"""Every module under ``repro`` imports.

Most modules are reached only through the code paths that use them, so
a dangling import (say, of a deleted module or helper) would otherwise
fail only when that path runs.  ``__main__`` modules are skipped: they
run their command line on import.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name.rsplit(".", 1)[-1] != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
