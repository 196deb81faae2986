"""The benchmark's per-layer tracer (`perfbench/layertrace.py`) wraps
program functions at the names their callers bind them to; a rename on
the program side would silently drop a layer from traced runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BINDINGS = sorted({(module, name) for module, name, _ in load_layertrace().BINDINGS})


@pytest.mark.parametrize("module, name", BINDINGS, ids=[".".join(b) for b in BINDINGS])
def test_traced_binding_exists(module, name):
    assert callable(getattr(importlib.import_module(f"weingarten.{module}"), name, None))


def test_traced_sparse_solver_module_exists():
    # the tracer wraps the factorizations through `continuation.spla`
    assert hasattr(importlib.import_module("weingarten.continuation"), "spla")
