#!/usr/bin/env python3
"""Benchmark of the `weingarten` CLI (check, solve, verify, export).

    python3 perfbench/run.py --workload tilt-32x64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, nothing is installed.  Every CLI call is a fresh child process and
only one runs at a time.  The inputs (configs and CSV fields) are made
from `--seed`.  The run repeats the workload's cycle of CLI calls for
`--seconds` and checks every output; a cycle that fails any check counts
as failed and as slower than every passing cycle.  The timed work of a
cycle is the commands its workload exists to measure (`solve` on the
tilt workloads); the other calls only feed the checks.

With `--trace 0` the cycles run as the user runs them and give the
end-to-end metrics.  With `--trace 1` traced and untraced cycles
alternate; the traced ones run `perfbench/layertrace.py` and give the
per-layer metrics.  Output: a table, a one-line JSON report (gates,
inputs, environment), and last a JSON line with `correct`, `attempted`,
`failed` and the metrics that BENCHMARK.json names.  README.md in this
directory gives the reason for each workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACE_SCRIPT = HERE / "layertrace.py"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402

CLI = "import sys; from weingarten.cli import main; sys.exit(main())"
SETUP = (
    "import sys; from weingarten.cli import main; "
    "from weingarten.config import load_config; load_config(sys.argv[1])"
)
#: fewest set-up probes in an untraced run; one also runs before each cycle
SETUP_REPEATS = 9
#: a run ends, and an unfinished child is killed, this long after it starts
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "WEINGARTEN_THREADS")

R1, R2 = 1.0, 4.0
RESIDUAL_GATE = 1e-8
RADIAL_ALPHA0 = "(0.6 - 0.05*rho)/rho^2"
SPHERE_RADIUS = 2.0  # exact solution of the radial problem
BUMP_HEIGHT = 1e-4  # radial bump of the perturbed sphere that verify must reject


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" or "verify-export"
    grid: tuple
    timed: tuple  # the commands whose time is the workload's `work_s`


# README.md gives the reason for each workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tilt-32x64", "solve", (32, 64), ("solve",)),
        Workload("tilt-128x256", "solve", (128, 256), ("solve",)),
        Workload("verify-export-256x512", "verify-export", (256, 512),
                 ("check", "verify", "export")),
    )
}

# ---------------------------------------------------------------- inputs


def unit_direction(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def tilt_alpha0(d):
    """nonradial.cfg's alpha0 with its polar tilt turned toward d."""
    return (
        f"(0.6 - 0.05*rho)*(1 + 0.05*({d[0]!r}*x1 + {d[1]!r}*x2 + {d[2]!r}*x3)/rho)"
        "/rho^2"
    )


def config_text(alpha0, grid, outdir):
    return f"""[problem]
k = 2
n = 2
r1 = {R1!r}
r2 = {R2!r}
alpha0 = "{alpha0}"
alpha1 = "0.25/rho"
phi = "2.5/rho"

[grid]
ntheta = {grid[0]}
nphi = {grid[1]}

[output]
directory = {outdir}
"""


def write_field_csv(path, grid, rho_at):
    """Solution CSV of the field rho_at(x, y, z) on the staggered grid, in
    the program's layout (theta-major rows, 17 significant digits)."""
    nt, nph = grid
    dtheta, dphi = math.pi / nt, 2.0 * math.pi / nph
    phis = [j * dphi for j in range(nph)]
    lines = ["theta,phi,rho"]
    for i in range(nt):
        theta = (i + 0.5) * dtheta
        st, ct = math.sin(theta), math.cos(theta)
        for phi in phis:
            rho = rho_at(st * math.cos(phi), st * math.sin(phi), ct)
            lines.append(f"{theta:.17g},{phi:.17g},{rho:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(workload, seed, workdir):
    """Write the workload's input files; return {role: path}."""
    rng = random.Random(seed)
    paths = {}
    if workload.kind == "solve":
        paths["config"] = workdir / "tilt.cfg"
        alpha0 = tilt_alpha0(unit_direction(rng))
        paths["config"].write_text(config_text(alpha0, workload.grid, "out"), encoding="utf-8")
    else:
        paths["config"] = workdir / "radial.cfg"
        paths["config"].write_text(
            config_text(RADIAL_ALPHA0, workload.grid, "out"), encoding="utf-8"
        )
        paths["sphere"] = workdir / "sphere.csv"
        write_field_csv(paths["sphere"], workload.grid, lambda x, y, z: SPHERE_RADIUS)
        c = unit_direction(rng)
        width = rng.uniform(0.05, 0.2)

        def bumped(x, y, z):
            dist2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
            return SPHERE_RADIUS + BUMP_HEIGHT * math.exp(-dist2 / width**2)

        paths["perturbed"] = workdir / "perturbed.csv"
        write_field_csv(paths["perturbed"], workload.grid, bumped)
    return paths


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv_values(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [tuple(float(v) for v in line.split(",")) for line in fh if line.strip()]


# ---------------------------------------------------------------- children


@dataclass
class Call:
    command: str
    rc: int
    wall_s: float
    rss_mb: float
    out: str
    spans: dict | None = None  # what layertrace.py wrote, on traced calls


@dataclass
class Cycle:
    runner: "Runner"
    traced: bool
    calls: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def run(self, command, *args):
        call = self.runner.cli(command, *args, traced=self.traced)
        self.calls.append(call)
        return call

    def seconds(self, commands=None):
        return sum(c.wall_s for c in self.calls if commands is None or c.command in commands)


class Runner:
    """Starts the CLI children, one at a time, inside one work directory."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.serial = 0

    def spawn(self, argv):
        """Run argv to completion; return (rc, wall_s, peak_rss_mb, output)."""
        log = self.workdir / "child.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env, stdout=out, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), _kill, (proc.pid,)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                _kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(encoding="utf-8", errors="replace")
        log.unlink()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, text

    def cli(self, command, *args, traced=False):
        self.serial += 1
        argv = [sys.executable]
        if traced:
            spans_path = self.workdir / "spans.json"
            argv += [str(TRACE_SCRIPT), str(spans_path), f"{command}-{self.serial}"]
        else:
            argv += ["-c", CLI]
        rc, wall, rss, out = self.spawn(argv + [command, *map(str, args)])
        call = Call(command, rc, wall, rss, out)
        if traced:
            if spans_path.is_file():
                call.spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            else:
                call.spans = {"missing": [], "spans": []}
        return call


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------- cycles


def solve_cycle(runner, workload, inputs, traced):
    """solve, verify the written solution, export it as CSV.  The config
    passed `check` once before the cycles."""
    cycle = Cycle(runner, traced)
    cfg = inputs["config"]
    outdir = runner.workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)

    solve = cycle.run("solve", cfg)
    if solve.rc != 0:
        cycle.failures.append(f"solve: exit {solve.rc}")
        return cycle
    solution = outdir / "solution.csv"
    cycle.failures += solution_failures(outdir, cycle.counts)
    if cycle.failures:
        return cycle
    verify = cycle.run("verify", solution, cfg)
    if verify.rc != 0 or "verification passed" not in verify.out:
        cycle.failures.append(f"verify: exit {verify.rc} on the written solution")
    roundtrip = runner.workdir / "roundtrip.csv"
    roundtrip.unlink(missing_ok=True)
    cycle.run("export", solution, cfg, "--format", "csv", "--output", roundtrip)
    if not same_values(solution, roundtrip):
        cycle.failures.append("export: CSV round trip is not bit-exact")
    return cycle


def solution_failures(outdir, counts):
    """Gates on what `solve` wrote: t=1 reached, final |F|, barriers."""
    try:
        report = json.loads((outdir / "solve_report.json").read_text(encoding="utf-8"))
        rho = [row[2] for row in read_csv_values(outdir / "solution.csv")]
    except (OSError, ValueError, IndexError) as err:
        return [f"solve: unreadable output ({err})"]
    steps = report.get("steps") or [{}]
    counts["accepted_steps"] = len(steps)
    counts["newton_iters"] = sum(s.get("newton_iters", 0) for s in steps)
    failures = []
    if not report.get("reached_t1"):
        failures.append("solve: t=1 not reached")
    final = steps[-1].get("residual_inf", math.inf)
    if not final <= RESIDUAL_GATE:
        failures.append(f"solve: final |F| = {final:.3e} > {RESIDUAL_GATE:g}")
    if not (rho and R1 < min(rho) and max(rho) < R2):
        failures.append("solve: rho leaves (r1, r2)")
    return failures


def verify_export_cycle(runner, workload, inputs, traced):
    """check; verify the exact sphere (passes) and a bumped one (fails);
    export the sphere to OBJ and to CSV."""
    cycle = Cycle(runner, traced)
    cfg = inputs["config"]

    if cycle.run("check", cfg).rc != 0:
        cycle.failures.append("check: exit != 0")
    exact = cycle.run("verify", inputs["sphere"], cfg)
    if exact.rc != 0 or "verification passed" not in exact.out:
        cycle.failures.append(f"verify: exact sphere not accepted (exit {exact.rc})")
    bumped = cycle.run("verify", inputs["perturbed"], cfg)
    if bumped.rc != 1 or not any(
        line.startswith("FAIL residual") for line in bumped.out.splitlines()
    ):
        cycle.failures.append(f"verify: perturbed sphere not rejected (exit {bumped.rc})")

    mesh = runner.workdir / "sphere.obj"
    mesh.unlink(missing_ok=True)
    cycle.run("export", inputs["sphere"], cfg, "--format", "obj", "--output", mesh)
    nt, nph = workload.grid
    counts = obj_counts(mesh)
    if counts != (nt * nph + 2, 2 * nt * nph):
        cycle.failures.append(f"export: OBJ has (vertices, faces) = {counts}")
    roundtrip = runner.workdir / "roundtrip.csv"
    roundtrip.unlink(missing_ok=True)
    cycle.run("export", inputs["sphere"], cfg, "--format", "csv", "--output", roundtrip)
    if not same_values(inputs["sphere"], roundtrip):
        cycle.failures.append("export: CSV round trip is not bit-exact")
    return cycle


def obj_counts(path):
    vertices = faces = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                vertices += line.startswith("v ")
                faces += line.startswith("f ")
    except OSError:
        return None
    return vertices, faces


def same_values(path_a, path_b):
    """Both CSV files hold the same doubles, bit for bit."""
    try:
        a, b = read_csv_values(path_a), read_csv_values(path_b)
    except (OSError, ValueError):
        return False
    return len(a) == len(b) and all(
        x.hex() == y.hex() for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


# each kind of workload: its cycle and the commands the cycle runs
CYCLES = {
    "solve": (solve_cycle, ("solve", "verify", "export")),
    "verify-export": (verify_export_cycle, ("check", "verify", "export")),
}


# ---------------------------------------------------------------- metrics


def median_or_none(values):
    """Median where a failed sample is +inf, i.e. slower than any limit."""
    if not values:
        return None
    value = statistics.median(values)
    return None if math.isinf(value) else value


def end_to_end(cycles, commands, timed, setup_times):
    """Medians over untraced cycles; a command's time is summed per cycle,
    `work_s` sums the `timed` commands and `cycle_s` every call."""
    untraced = [c for c in cycles if not c.traced]
    times = {}
    for command in commands:
        times[f"{command}_s"] = [
            math.inf if c.failures else c.seconds((command,)) for c in untraced
        ]
    times["work_s"] = [math.inf if c.failures else c.seconds(timed) for c in untraced]
    times["cycle_s"] = [math.inf if c.failures else c.seconds() for c in untraced]
    times["setup_s"] = setup_times
    metrics = {name: (median_or_none(samples), "s") for name, samples in times.items()}
    metrics["peak_rss_mb"] = (
        median_or_none([max(call.rss_mb for call in c.calls) for c in untraced]), "MB"
    )
    return metrics


def per_layer(cycles, timed):
    """Medians over traced cycles of each layer metric, plus the tracing
    overhead: traced minus untraced median time of the timed commands."""
    traced = [c for c in cycles if c.traced]
    per_cycle = [
        layertrace.layer_metrics(
            [(call.wall_s, call.spans["spans"]) for call in c.calls]
        )
        for c in traced
    ]
    metrics = {}
    for name, (_, unit) in (per_cycle[0] if per_cycle else {}).items():
        metrics[name] = (statistics.median(m[name][0] for m in per_cycle), unit)
    untraced_s = median_or_none([c.seconds(timed) for c in cycles if not c.traced])
    traced_s = median_or_none([c.seconds(timed) for c in traced])
    overhead = None if None in (untraced_s, traced_s) else traced_s - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
        commit_error = None if commit else git.stderr.strip() or f"git exit {git.returncode}"
    except (OSError, subprocess.SubprocessError) as err:
        commit, commit_error = None, f"git not run: {err}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_vars_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_child": "1",
        "git_commit": commit,  # "-dirty": the tree differs from that commit
        "git_commit_error": commit_error,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- main


def setup_probe(runner, config):
    """Wall time of interpreter start, import and `load_config`."""
    rc, wall, _, out = runner.spawn([sys.executable, "-c", SETUP, str(config)])
    if rc != 0:
        raise SystemExit(f"set-up probe failed:\n{out}")
    return wall


def measure(workload, seed, seconds, trace, workdir, deadline):
    """Run one benchmark: gates on inputs, then cycles for `seconds`, with
    a set-up probe before each untraced one.  Returns the report dict."""
    runner = Runner(workdir, deadline)
    inputs = make_inputs(workload, seed, workdir)
    first = runner.cli("check", inputs["config"])  # also warms the file cache
    if first.rc != 0:
        raise SystemExit(f"generated config fails `weingarten check`:\n{first.out}")

    cycle_fn, commands = CYCLES[workload.kind]
    cycles, setup_times = [], []
    stop = time.monotonic() + seconds
    while not cycles or (time.monotonic() < stop and time.monotonic() < deadline):
        traced = bool(trace) and len(cycles) % 2 == 1
        if not trace:
            setup_times.append(setup_probe(runner, inputs["config"]))
        cycles.append(cycle_fn(runner, workload, inputs, traced))
    if trace and len(cycles) < 2:
        cycles.append(cycle_fn(runner, workload, inputs, True))
    while not trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_probe(runner, inputs["config"]))

    if trace:
        metrics = per_layer(cycles, workload.timed)
    else:
        metrics = end_to_end(cycles, commands, workload.timed, setup_times)
    failed = sum(bool(c.failures) for c in cycles)
    solve_failures = [
        call.wall_s for c in cycles if not c.traced for call in c.calls
        if call.command == "solve" and call.rc != 0
    ]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "inputs": {role: sha256(path) for role, path in inputs.items()},
        "cycles": len(cycles),
        "failed": failed,
        "failed_frac": failed / len(cycles),
        "failures": sorted({f for c in cycles for f in c.failures}),
        "counts": cycles[0].counts,
        "time_to_failure_s": median_or_none(solve_failures),
        "work_s_samples": [
            round(c.seconds(workload.timed), 4) for c in cycles if not c.traced
        ],
        "setup_s_samples": [round(t, 4) for t in setup_times],
        "unwrapped": sorted(
            {m for c in cycles for call in c.calls if call.spans for m in call.spans["missing"]}
        ),
        "metrics": metrics,
        "environment": environment(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weingarten" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/weingarten", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        report = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir, deadline
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report["metrics"]
    for name, (value, unit) in sorted(metrics.items()):
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown:>14s} {unit}")
    print(f"cycles {report['cycles']}, failed {report['failed']}: "
          + ("; ".join(report["failures"]) or "all gates passed"))
    report["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    print(json.dumps({"report": report}))

    unknown = [m["name"] for m in wanted if m["name"] not in metrics]
    if unknown:
        print(f"error: no value for {unknown}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["cycles"],
        "failed": report["failed"],
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
