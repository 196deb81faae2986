"""The benchmark's per-layer tracer (`perfbench/layertrace.py`) wraps
program functions at the names their callers bind them to, and reads
Newton results' `iterations` and `converged` and writers' first argument,
the output path; a rename on the program side would silently drop a
layer from traced runs or break them."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from weingarten.continuation import NewtonResult, check_hypotheses, initial_solution, newton_solve
from weingarten.curvop import ProblemSpec
from weingarten.spheregeom import SphereGrid, geometry

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
    # the tracer wraps the factorizations through `continuation.spla`, and
    # reads every name it stands in for when it installs
    continuation = importlib.import_module("weingarten.continuation")
    assert hasattr(continuation, "spla")
    for name in load_layertrace().LINSOLVE_FUNCTIONS:
        assert callable(getattr(continuation.spla, name, None)), name


def test_traced_newton_result_fields():
    # the tracer records each Newton solve's `iterations` and `converged`
    names = {field.name for field in dataclasses.fields(NewtonResult)}
    assert {"iterations", "converged"} <= names


def test_traced_failed_newton_solve_reports_its_iterations():
    # |F| cannot reach 1e-17 near the round sphere: from a start 1e-9 off
    # it, the solve stagnates after some accepted steps and returns, so its
    # span records iterations and converged like a converged one, not only
    # that it raised
    spec = ProblemSpec(
        r1=1.0, r2=4.0, alphas=("(0.6 - 0.05*rho)/rho^2", "0.25/rho"), phi="2.5/rho",
        grid=SphereGrid(8, 16), newton_tol=1e-17,
    )
    args = (spec, geometry(spec.grid, initial_solution(spec) * (1.0 + 1e-9)), 0.0)
    result = newton_solve(*args)
    assert result.reason.startswith("StagnationError") and result.iterations > 0
    assert load_layertrace()._describe("continuation.newton_solve", args, result) == {
        "iterations": result.iterations, "converged": False,
    }


def test_traced_writers_take_the_output_path_first(tmp_path):
    # the tracer records each writer's bytes as the size of its first argument
    grid = SphereGrid(4, 8)
    rho = np.full(grid.shape, 2.0)
    report = check_hypotheses(ProblemSpec(
        r1=1.0, r2=4.0, alphas=("(0.6 - 0.05*rho)/rho^2", "0.25/rho"), phi="2.5/rho", grid=grid,
    ))
    layertrace = load_layertrace()
    arguments = {"export.write_solution_csv": (grid, rho), "export.write_obj": (grid, rho),
                 "export.write_report": (report,)}
    writers = [binding for binding in layertrace.BINDINGS if binding[2].startswith("export.write_")]
    assert {span for _, _, span in writers} == set(arguments)
    for module, name, span in writers:
        path = tmp_path / name
        getattr(importlib.import_module(f"weingarten.{module}"), name)(path, *arguments[span])
        assert path.stat().st_size > 0
        assert layertrace._describe(span, (path,), None) == {"bytes": path.stat().st_size}
