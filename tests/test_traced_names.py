"""The benchmark's layer tracer wraps public functions by name; a name
that disappears from the program reads zero in every per-layer metric
without an error.  This guard fails instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("layertrace", Path(__file__).parent.parent / "bench" / "layertrace.py")
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize("module, names", layertrace.TRACED, ids=[m for m, _ in layertrace.TRACED])
def test_traced_names_are_functions_of_the_program(module, names):
    mod = importlib.import_module(f"holonomy_forge.{module}")
    missing = [name for name in names if not callable(getattr(mod, name, None))]
    assert not missing, f"holonomy_forge.{module} no longer defines {missing}"
