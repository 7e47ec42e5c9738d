"""The benchmark's layer tracer wraps public functions by name; a name
that disappears from the program reads zero in every per-layer metric
without an error.  This guard fails instead."""

import importlib
import importlib.util
import sys
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


def test_roundtrip_calls_the_traced_holonomy_evaluator(tmp_path, monkeypatch):
    # The traced roundtrip-abelian case reports holonomy.eval_holonomy calls,
    # which only the round trip's holonomy-only transport makes, one batch
    # call for all its sample paths; the tracer replaces the function
    # wherever a module imported it by name.
    from holonomy_forge import cli, holonomy

    real, calls = holonomy.eval_holonomy, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "holonomy_forge":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    cli.main(["roundtrip", "--preset", "abelian-ydx", "--grid", "2", "--steps", "4", "--out", str(tmp_path)])
    assert calls
