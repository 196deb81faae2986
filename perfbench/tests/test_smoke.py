"""Smoke tests of the benchmark on tiny grids.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    kind: dataclasses.replace(bench.WORKLOADS[name], name=f"tiny-{kind}", grid=(8, 16))
    for kind, name in (("solve", "tilt-32x64"), ("verify-export", "verify-export-256x512"))
}


def measure(workload, trace, tmp_path, seed=3):
    return bench.measure(workload, seed, 0.0, trace, tmp_path, time.monotonic() + 120)


def test_benchmark_json_names_the_workloads_it_runs():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    for workload in SPEC["workloads"]:
        assert workload["name"] in bench.WORKLOADS


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(kind, trace, tmp_path):
    report = measure(TINY[kind], trace, tmp_path)
    assert report["failed"] == 0, report["failures"]
    metrics = report["metrics"]
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert isinstance(value, (int, float)), metric["name"]
        # a listed metric is compared as a share of its value
        assert value > 0, metric["name"]
    if trace:
        assert report["unwrapped"] == []
        solved = kind == "solve"
        assert (metrics["curvop.jacobian.calls"][0] > 0) == solved
        assert (metrics["continuation.linsolve.calls"][0] > 0) == solved
        assert metrics["export.bytes_written"][0] > 0


class TamperingRunner(bench.Runner):
    """Moves one node of every written solution before it is checked."""

    def cli(self, command, *args, traced=False):
        call = super().cli(command, *args, traced=traced)
        if command == "solve":
            path = self.workdir / "out" / "solution.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            theta, phi, rho = lines[5].split(",")
            lines[5] = f"{theta},{phi},{float(rho) * 1.01!r}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return call


def test_tampered_field_counts_as_failed(tmp_path):
    workload = TINY["solve"]
    inputs = bench.make_inputs(workload, 3, tmp_path)
    runner = TamperingRunner(tmp_path, time.monotonic() + 120)
    cycle = bench.solve_cycle(runner, workload, inputs, traced=False)
    assert any(f.startswith("verify:") for f in cycle.failures)
    metrics = bench.end_to_end([cycle], ("solve",), workload.timed, [0.5])
    assert metrics["work_s"][0] is None  # a failed cycle is never a fast sample


def test_inputs_follow_the_seed(tmp_path):
    workload = TINY["verify-export"]
    digests = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / sub).mkdir()
        paths = bench.make_inputs(workload, seed, tmp_path / sub)
        digests.append({role: bench.sha256(p) for role, p in paths.items()})
    assert digests[0] == digests[1]
    assert digests[0]["perturbed"] != digests[2]["perturbed"]
    assert digests[0]["sphere"] == digests[2]["sphere"]


def test_self_time_and_residual_labels():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["continuation.newton_solve", 1.0, 9.0, 0, {"iterations": 2, "converged": True}],
        ["curvop.residual_field", 1.0, 2.0, 1, None],
        ["curvop.jacobian", 2.0, 6.0, 1, None],
        ["curvop.residual_field", 2.5, 3.5, 3, None],
        ["continuation.linsolve", 6.0, 7.0, 1, None],
        ["curvop.residual_field", 7.0, 8.0, 1, None],
        ["curvop.residual_field", 8.0, 8.5, 1, None],
    ]
    m = layertrace.layer_metrics([(12.0, spans)])
    assert m["curvop.jacobian.busy_s"][0] == 4.0
    assert m["curvop.jacobian.self_s"][0] == 3.0
    assert m["curvop.residual_field.probe.calls"][0] == 1
    assert m["curvop.residual_field.newton.calls"][0] == 3
    assert m["curvop.residual_field.calls"][0] == 4
    assert m["curvop.residual_field.busy_s"][0] == 3.5
    assert m["continuation.newton_solve.self_s"][0] == 8.0 - 1.0 - 4.0 - 1.0 - 1.0 - 0.5
    assert m["continuation.newton_iters"][0] == 2
    assert m["continuation.linesearch.evals_per_iter"][0] == 1.0
    assert m["cli.main.self_s"][0] == 2.0
    assert m["other_s"][0] == 2.0
