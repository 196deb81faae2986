"""Traced run of the `weingarten` CLI, and per-layer metrics from its spans.

Run as a script, this file is the traced child process:

    python3 perfbench/layertrace.py SPANS.json RUN_ID <weingarten arguments...>

It imports the program, replaces the public functions at the names their
calling modules bind them to (for example `continuation.jacobian`, the
`jacobian` that `newton_solve` calls), runs `weingarten.cli.main` and
writes every span to SPANS.json.  A span is
`[name, start, end, parent, info]`; `parent` indexes the span list (-1 at
the root) and all spans of one file share RUN_ID.  The program's own code
is not changed.

Imported as a module, it turns the spans of one or more traced processes
into the per-layer metrics of `run.py` (`layer_metrics`).
"""

from __future__ import annotations

import json
import os
import sys
import time

# (calling module, bound name, span name).  `exprlang.evaluate` is
# recursive, so it is wrapped where curvop and continuation call it and
# never inside exprlang itself.
BINDINGS = [
    ("cli", "load_config", "config.load_config"),
    ("cli", "check_hypotheses", "continuation.check_hypotheses"),
    ("cli", "continue_to_one", "continuation.continue_to_one"),
    ("cli", "residual_field", "curvop.residual_field"),
    ("cli", "geometry", "spheregeom.geometry"),
    ("cli", "read_solution_csv", "export.read_solution_csv"),
    ("cli", "write_solution_csv", "export.write_solution_csv"),
    ("cli", "write_obj", "export.write_obj"),
    ("cli", "write_solve_report", "export.write_report"),
    ("cli", "write_hypothesis_report", "export.write_report"),
    ("continuation", "check_hypotheses", "continuation.check_hypotheses"),
    ("continuation", "initial_solution", "continuation.initial_solution"),
    ("continuation", "newton_solve", "continuation.newton_solve"),
    ("continuation", "_record_step", "continuation.monitors"),
    ("continuation", "jacobian", "curvop.jacobian"),
    ("continuation", "residual_field", "curvop.residual_field"),
    ("continuation", "geometry", "spheregeom.geometry"),
    ("continuation", "evaluate", "exprlang.evaluate"),
    ("curvop", "residual_field", "curvop.residual_field"),
    ("curvop", "residual", "curvop.residual"),
    ("curvop", "geometry", "spheregeom.geometry"),
    ("curvop", "evaluate", "exprlang.evaluate"),
]

# Factorizations that continuation reaches through `spla`, the scipy
# module; they are wrapped by `_LinsolveModule`.
LINSOLVE_FUNCTIONS = ("spsolve", "splu")

LAYERS = ("config", "continuation", "curvop", "spheregeom", "exprlang", "export", "cli")


class Tracer:
    """Keeps spans in memory; `wrap` makes a function record one per call."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, func):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                record[4] = {"raised": type(err).__name__}
                raise
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = _describe(name, args, result)
            return result

        traced.__wrapped__ = func
        return traced


def _describe(name, args, result):
    if name == "continuation.newton_solve":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name.startswith("export.write_"):
        return {"bytes": os.path.getsize(args[0])}
    return None


class _LinsolveModule:
    """Stands in for `scipy.sparse.linalg` inside continuation, with its
    factorizations wrapped."""

    def __init__(self, module, tracer):
        self._module = module
        self._wrapped = {
            name: tracer.wrap("continuation.linsolve", getattr(module, name))
            for name in LINSOLVE_FUNCTIONS
        }

    def __getattr__(self, name):
        if name in self._wrapped:
            return self._wrapped[name]
        return getattr(self._module, name)


def install(tracer, modules):
    """Wrap every binding in BINDINGS that the program has; return the
    ones it lacks, so a renamed function shows up in the output."""
    missing = []
    for module_name, attr, span_name in BINDINGS:
        module = modules[module_name]
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(span_name, getattr(module, attr)))
        else:
            missing.append(f"{module_name}.{attr}")
    continuation = modules["continuation"]
    if hasattr(continuation, "spla"):
        continuation.spla = _LinsolveModule(continuation.spla, tracer)
    else:
        missing.append("continuation.spla")
    return missing


def main(argv):
    out_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    from weingarten import cli, continuation, curvop

    tracer = Tracer()
    missing = install(tracer, {"cli": cli, "continuation": continuation, "curvop": curvop})
    rc = 2
    try:
        rc = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "missing": missing, "spans": tracer.spans}, fh)
    return rc


def layer_metrics(processes):
    """Per-layer metrics of traced processes, each `(wall_s, spans)` with
    the wall time the parent measured and the spans the child wrote.

    Self time is a span's duration minus its children's; `share_pct` is
    busy time over the processes' wall time; `other_s` is the wall time no
    span accounts for (interpreter start, imports, exit).
    `curvop.residual_field` spans are labelled `probe` under a Jacobian
    build and `newton` otherwise.
    """
    # every wrapped name is reported, with zeros where a run never calls it
    names = {span for _, _, span in BINDINGS} | {"cli.main", "continuation.linsolve"}
    names.discard("curvop.residual_field")
    names |= {"curvop.residual_field.probe", "curvop.residual_field.newton"}
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    self_time = dict.fromkeys(names, 0.0)
    first_jacobian_self = 0.0
    bytes_written = 0
    attempts = rejected = newton_iters = newton_residuals = 0
    wall_total = 0.0

    for wall, spans in processes:
        wall_total += wall
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        jacobians_under = [0] * len(spans)
        residuals_under = [0] * len(spans)
        seen_jacobian = False
        for index, (name, start, end, parent, info) in enumerate(spans):
            ancestors = _ancestors(spans, index)
            if name == "curvop.residual_field":
                under_jacobian = any(spans[a][0] == "curvop.jacobian" for a in ancestors)
                name += ".probe" if under_jacobian else ".newton"
            duration = end - start
            own = duration - child_time[index]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + own
            if name == "curvop.jacobian" and not seen_jacobian:
                seen_jacobian = True
                first_jacobian_self += own
            if info and "bytes" in info:
                bytes_written += info["bytes"]
            newton = next(
                (a for a in ancestors if spans[a][0] == "continuation.newton_solve"), None
            )
            if newton is not None:
                if name == "curvop.jacobian":
                    jacobians_under[newton] += 1
                elif name == "curvop.residual_field.newton":
                    residuals_under[newton] += 1
        for index, (name, _, _, _, info) in enumerate(spans):
            if name != "continuation.newton_solve":
                continue
            attempts += 1
            # the first residual of a call is its starting point; the rest
            # are line-search trials
            newton_residuals += max(residuals_under[index] - 1, 0)
            if info and "iterations" in info:
                newton_iters += info["iterations"]
                rejected += not info["converged"]
            else:
                # raised: every iteration it began built one Jacobian
                newton_iters += jacobians_under[index]
                rejected += 1

    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.busy_s"] = (busy[name], "s")
        metrics[f"{name}.self_s"] = (self_time[name], "s")
        metrics[f"{name}.share_pct"] = (100.0 * busy[name] / wall_total, "%")
    probe, newton = "curvop.residual_field.probe", "curvop.residual_field.newton"
    metrics["curvop.residual_field.calls"] = (calls[probe] + calls[newton], "count")
    metrics["curvop.residual_field.busy_s"] = (busy[probe] + busy[newton], "s")
    for layer in LAYERS:
        own = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    metrics["other_s"] = (wall_total - sum(self_time.values()), "s")
    metrics["curvop.jacobian.first_self_s"] = (first_jacobian_self, "s")
    metrics["export.bytes_written"] = (bytes_written, "B")
    metrics["continuation.attempts"] = (attempts, "count")
    metrics["continuation.rejected"] = (rejected, "count")
    metrics["continuation.accept_ratio"] = (
        (attempts - rejected) / attempts if attempts else 0.0, "ratio"
    )
    metrics["continuation.newton_iters"] = (newton_iters, "count")
    metrics["continuation.linesearch.evals_per_iter"] = (
        newton_residuals / newton_iters if newton_iters else 0.0, "evals/iter"
    )
    return metrics


def _ancestors(spans, index):
    chain = []
    parent = spans[index][3]
    while parent >= 0:
        chain.append(parent)
        parent = spans[parent][3]
    return chain


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
