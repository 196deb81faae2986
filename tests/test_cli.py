"""Command line interface: exit codes, artifacts, and config parsing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weingarten
from weingarten import cli, continuation, spheregeom
from weingarten.config import ConfigError, load_config
from weingarten.exprlang import parse
from weingarten.export import read_solution_csv, write_solution_csv

BENCHMARK = """\
[problem]
k = 2
n = 2
r1 = 1.0
r2 = 4.0
alpha0 = "(0.6 - 0.05*rho)/rho^2"
alpha1 = "0.25/rho"
phi = "2.5/rho"

[grid]
ntheta = {ntheta}
nphi = {nphi}

[output]
directory = {outdir}
{extra}"""


def write_cfg(tmp_path, name="run.cfg", ntheta=8, nphi=16, outdir="out",
              extra="", body=None):
    text = body if body is not None else BENCHMARK.format(
        ntheta=ntheta, nphi=nphi, outdir=outdir, extra=extra
    )
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_benchmark(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    spec = cfg.problem
    assert spec.r1 == 1.0 and spec.r2 == 4.0
    assert spec.grid.shape == (8, 16)
    assert spec.newton_tol == 1e-10
    assert cfg.outdir == tmp_path / "out"


def test_load_config_defaults(tmp_path):
    body = "[problem]\nr1 = 1.0\nr2 = 4.0\n" \
           "alpha0 = \"0.1/rho^2\"\nalpha1 = \"0.25/rho\"\nphi = \"2.5/rho\"\n" \
           "[grid]\n"
    cfg = load_config(write_cfg(tmp_path, body=body))
    assert cfg.problem.grid.shape == (32, 64)
    assert cfg.outdir == tmp_path / "out"
    assert cfg.problem.newton_tol == 1e-10


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
    ids=lambda path: path.name,
)
def test_shipped_config_loads(path):
    # a key the loader no longer knows makes this raise ConfigError
    load_config(path)


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_rejects_missing_required_key(tmp_path):
    body = "[problem]\nr1 = 1.0\n[grid]\n"
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, body=body))


def test_load_config_rejects_bad_expression(tmp_path):
    body = BENCHMARK.format(ntheta=8, nphi=16, outdir="out", extra="")
    body = body.replace('"0.25/rho"', '"0.25/"')
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, body=body))


def test_load_config_rejects_bad_grid(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, nphi=15))


# names the run would not read: a misspelled key or section, keys in
# [DEFAULT], an alpha past alpha1, and keys that runs may no longer set
# (extra text lands in [output])
UNKNOWN_NAMES = {
    "misspelled-key": ("[solver]\nnewton_tl = 1e-30\n", "unknown key 'newton_tl' in [solver]"),
    "misspelled-section": ("[solvr]\nnewton_tol = 1e-30\n", "unknown section [solvr] in {cfg}"),
    "default-section": ("[DEFAULT]\nnewton_tol = 1e-9\n", "unknown section [DEFAULT] in {cfg}"),
    "alpha-past-k": ("", "unknown key 'alpha2' in [problem]"),
    "removed-solver-key": ("[solver]\nt_step_min = 1e-4\n", "unknown key 't_step_min' in [solver]"),
    "removed-output-key": ("mesh = false\n", "unknown key 'mesh' in [output]"),
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("case", sorted(UNKNOWN_NAMES))
def test_unknown_config_name_is_bad_input(tmp_path, capsys, command, case):
    extra, message = UNKNOWN_NAMES[case]
    cfg = write_cfg(tmp_path, extra=extra)
    if case == "alpha-past-k":
        cfg.write_text(cfg.read_text().replace("phi = ", 'alpha2 = "0.1/rho"\nphi = '))
    assert cli.main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not (tmp_path / "out").exists()


# the solver treats sigma_2/sigma_1 on surfaces only; a file may state k
# and n, but only as 2, and a huge k sizes nothing
@pytest.mark.parametrize("key, value", [("k", 1), ("k", 3), ("k", 1000000), ("n", 3)])
def test_k_or_n_other_than_2_is_bad_input(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(f"{key} = 2", f"{key} = {value}"))
    assert cli.main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: need {key} = 2 (sigma_2/sigma_1 on surfaces), got {key}={value}\n"
    )
    assert not (tmp_path / "out").exists()


# values that parse as floats but leave no problem to solve: a tolerance
# that accepts the starting sphere unsolved, a barrier no band can sample
NON_FINITE = {
    "newton_tol": ("[solver]\nnewton_tol = 1e400\n", "newton_tol must be positive and finite"),
    "r2": ("", "need 0 < r1 < r2 < inf"),
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("key", sorted(NON_FINITE))
def test_non_finite_setting_is_bad_input(tmp_path, capsys, command, key):
    extra, message = NON_FINITE[key]
    cfg = write_cfg(tmp_path, extra=extra)
    if key == "r2":
        cfg.write_text(cfg.read_text().replace("r2 = 4.0", "r2 = inf"))
    assert cli.main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# barrier radii whose check band [r1/2, 2 r2] would hold a rho^2 that is
# subnormal or overflows
EXTREME_RADII = [("r2 = 4.0", "r2 = 1e308"), ("r1 = 1.0", "r1 = 1e-160"),
                 ("r1 = 1.0", "r1 = 1e-200")]


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("setting, written", EXTREME_RADII)
def test_radius_beyond_the_normal_doubles_is_bad_input(tmp_path, capsys, command, setting, written):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(setting, written))
    assert cli.main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: need r1 >= 3e-154 and r2 <= 6.7e+153, so that rho^2 is a normal double "
        "on the check band [r1/2, 2 r2]\n"
    )
    assert not (tmp_path / "out").exists()


def test_radius_limits_named_in_the_error_are_accepted(tmp_path):
    cfg = write_cfg(tmp_path)
    text = cfg.read_text().replace("r1 = 1.0", "r1 = 3e-154").replace("r2 = 4.0", "r2 = 6.7e153")
    cfg.write_text(text)
    spec = load_config(cfg).problem
    assert (spec.r1, spec.r2) == (3e-154, 6.7e153)


# numbers float or int would read but a config may not hold: digit-group
# underscores and non-ASCII digits, as in expressions and solution files
@pytest.mark.parametrize("setting, written, section", [
    ("r2 = 4.0", "r2 = 4_0.0", "problem"),
    ("r1 = 1.0", "r1 = \uff11.0", "problem"),
    ("k = 2", "k = \uff12", "problem"),
    ("ntheta = 8", "ntheta = \uff18", "grid"),
    ("nphi = 16", "nphi = 1_6", "grid"),
])
def test_config_numbers_are_ascii_without_underscores(tmp_path, capsys, setting, written, section):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(setting, written))
    key, value = written.split(" = ")
    assert cli.main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad value for {key!r} in [{section}]: {value!r} is not written in ASCII without '_'\n"
    )
    assert not (tmp_path / "out").exists()


def test_coefficient_nested_too_deep_is_bad_input(tmp_path, capsys):
    # one line and exit 2, not a RecursionError traceback
    cfg = write_cfg(tmp_path)
    alpha0 = "+".join(["rho"] * 1200)
    cfg.write_text(cfg.read_text().replace('"(0.6 - 0.05*rho)/rho^2"', f'"{alpha0}"'))
    assert cli.main(["check", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: bad expression for 'alpha0': expression nested deeper than 200 levels (byte offset 803)\n"
    )
    assert not (tmp_path / "out").exists()


def test_readme_config_example_loads_with_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write_cfg(tmp_path, body=block))
    spec = cfg.problem
    assert (spec.r1, spec.r2) == (1.0, 4.0)
    assert spec.alphas == (parse("(0.6 - 0.05*rho)/rho^2"), parse("0.25/rho"))
    assert spec.phi == parse("2.5/rho")
    # the example shows the default of every optional key
    assert spec.grid.shape == (32, 64)
    assert spec.newton_tol == 1e-10
    assert cfg.outdir == tmp_path / "out"


def test_check_passes_on_benchmark(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = cli.main(["check", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "shell_outer" in out
    report = json.loads((tmp_path / "out" / "hypothesis_report.json").read_text())
    assert report["passed"] is True


def test_check_fails_on_bad_coefficients(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    text = cfg.read_text().replace('"(0.6 - 0.05*rho)/rho^2"', '"0.1*rho"')
    cfg.write_text(text)
    code = cli.main(["check", str(cfg)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


# coefficients that cannot be evaluated somewhere on [r1, 2*r2]
UNEVALUABLE = {
    "log(rho - 1.5)/rho^2": "log of a non-positive value",
    "sqrt(1.5 - rho)": "sqrt of a negative value",
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("alpha0", sorted(UNEVALUABLE))
def test_unevaluable_coefficient_is_bad_input(tmp_path, capsys, command, alpha0):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("(0.6 - 0.05*rho)/rho^2", alpha0))
    assert cli.main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {UNEVALUABLE[alpha0]}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "alpha0, message",
    [("log(rho - 2.5)", "log of a non-positive value"), ("1/(rho - 2)", "division by zero")],
)
def test_verify_reports_unevaluable_coefficient_as_failed_residual(tmp_path, capsys, alpha0, message):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("(0.6 - 0.05*rho)/rho^2", alpha0))
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "sphere.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, 2.0))
    assert cli.main(["verify", str(solution), str(cfg)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"FAIL residual: {message}") for line in out)


# the same fault, log of a non-positive value for rho <= 2.5, under each key
FAULTY_KEY = {
    "alpha0": "(0.6 - 0.05*rho)/rho^2",
    "alpha1": "0.25/rho",
    "phi": "2.5/rho",
}


@pytest.mark.parametrize("command", ["check", "solve", "verify"])
@pytest.mark.parametrize("key", sorted(FAULTY_KEY))
def test_unevaluable_coefficient_error_names_its_key(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(f'"{FAULTY_KEY[key]}"', '"log(rho - 2.5)"'))
    message = f"log of a non-positive value in {key} (byte offset 0)"
    if command == "verify":
        grid = spheregeom.SphereGrid(8, 16)
        solution = tmp_path / "sphere.csv"
        write_solution_csv(solution, grid, np.full(grid.shape, 2.0))
        assert cli.main(["verify", str(solution), str(cfg)]) == 1
        assert f"FAIL residual: {message}" in capsys.readouterr().out.splitlines()
    else:
        assert cli.main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "solve", "verify"])
@pytest.mark.parametrize("key", sorted(FAULTY_KEY))
def test_literal_too_large_for_a_double_is_bad_input(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(f'"{FAULTY_KEY[key]}"', '"1e400"'))
    solution = tmp_path / "sphere.csv"
    write_solution_csv(solution, spheregeom.SphereGrid(8, 16), np.full((8, 16), 2.0))
    args = [str(solution), str(cfg)] if command == "verify" else [str(cfg)]
    assert cli.main([command, *args]) == 2
    assert capsys.readouterr().err == (
        f"error: bad expression for {key!r}: number '1e400' is too large for a double "
        "(byte offset 0)\n"
    )
    assert not (tmp_path / "out").exists()


def test_solve_stalled_at_t0_exits_3(tmp_path, capsys):
    # |F| cannot reach 1e-17 on the round sphere: the t=0 solve fails
    cfg = write_cfg(tmp_path, extra="[solver]\nnewton_tol = 1e-17\n")
    assert cli.main(["solve", str(cfg)]) == 3
    assert "continuation stalled at t=0.000000" in capsys.readouterr().out.splitlines()
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_solve_stall_says_why(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra="[solver]\nnewton_tol = 1e-17\n")
    assert cli.main(["solve", str(cfg)]) == 3
    lines = capsys.readouterr().out.splitlines()
    stalled = lines.index("continuation stalled at t=0.000000")
    assert lines[stalled + 1].startswith(
        "last failed solve: StagnationError: no residual decrease after 8 halvings"
    )
    assert lines[stalled + 2] == "last target t=0.000000; the t=0 solve did not converge"


def test_solve_stall_after_t0_names_its_target(tmp_path, capsys, monkeypatch):
    # the t=0 solve converges, every later one stagnates: dt halves from 1
    # down to 2^-13 before the step floor, and the last line says so
    newton_solve = continuation.newton_solve

    def stagnating(spec, rho, t):
        if t > 0.0:
            return continuation.NewtonResult(rho, 0, [1.0], [], False, 0, "StagnationError: stubbed")
        return newton_solve(spec, rho, t)

    monkeypatch.setattr(continuation, "newton_solve", stagnating)
    cfg = write_cfg(tmp_path)
    assert cli.main(["solve", str(cfg)]) == 3
    lines = capsys.readouterr().out.splitlines()
    stalled = lines.index("continuation stalled at t=0.000000")
    assert lines[stalled + 1] == "last failed solve: StagnationError: stubbed"
    assert lines[stalled + 2] == "last target t=0.000122; the t=0 solve converged"


def test_check_missing_config_is_bad_input(tmp_path, capsys):
    code = cli.main(["check", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_solve_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = cli.main(["solve", str(cfg)])
    assert code == 0
    outdir = tmp_path / "out"
    assert (outdir / "solution.csv").is_file()
    assert (outdir / "surface.obj").is_file()
    assert (outdir / "solve_report.json").is_file()
    report = json.loads((outdir / "solve_report.json").read_text())
    assert report["reached_t1"] is True
    assert report["monitor_warnings"] == []
    last = report["steps"][-1]
    assert len(last["newton_residual_norms"]) == last["newton_iters"] + 1
    assert last["newton_residual_norms"][-1] == last["residual_inf"]
    hyp = json.loads((outdir / "hypothesis_report.json").read_text())
    assert hyp["passed"] is True
    grid, rho = read_solution_csv(outdir / "solution.csv")
    assert grid.shape == (8, 16)
    assert np.abs(rho - 2.0).max() < 1e-6


def test_solve_refuses_failing_hypotheses(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    text = cfg.read_text().replace('"0.25/rho"', '"0.6/rho"')
    cfg.write_text(text)
    code = cli.main(["solve", str(cfg)])
    assert code == 1
    assert "not solving" in capsys.readouterr().out


def test_solve_reports_stall(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(continuation, "NEWTON_MAX_ITER", 1)
    cfg = write_cfg(tmp_path)
    code = cli.main(["solve", str(cfg)])
    assert code == 3
    assert "stalled" in capsys.readouterr().out


def test_verify_accepts_solved_surface(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["solve", str(cfg)]) == 0
    solution = tmp_path / "out" / "solution.csv"
    code = cli.main(["verify", str(solution), str(cfg)])
    assert code == 0
    assert "verification passed" in capsys.readouterr().out


def test_verify_rejects_tampered_solution(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["solve", str(cfg)]) == 0
    solution = tmp_path / "out" / "solution.csv"
    lines = solution.read_text().strip().splitlines()
    theta, phi, rho = lines[40].split(",")
    lines[40] = f"{theta},{phi},{float(rho) * 1.01}"
    solution.write_text("\n".join(lines) + "\n")
    code = cli.main(["verify", str(solution), str(cfg)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_names_the_violated_barrier(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "outside.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, 4.4))
    code = cli.main(["verify", str(solution), str(cfg)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL barrier: rho range [4.4, 4.4] not inside (1, 4)" in out


MISMATCH = "error: solution grid (8, 16) does not match config grid (16, 32)\n"


def test_verify_rejects_mismatched_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["solve", str(cfg)]) == 0
    solution = tmp_path / "out" / "solution.csv"
    bigger = write_cfg(tmp_path, name="big.cfg", ntheta=16, nphi=32)
    capsys.readouterr()
    code = cli.main(["verify", str(solution), str(bigger)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == MISMATCH
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_export_rejects_mismatched_grid(tmp_path, capsys, fmt):
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, 2.0))
    bigger = write_cfg(tmp_path, name="big.cfg", ntheta=16, nphi=32)
    code = cli.main(["export", str(solution), str(bigger), "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == MISMATCH
    assert captured.out == ""
    assert not (tmp_path / f"solution_export.{fmt}").exists()


def test_verify_missing_solution_is_bad_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = cli.main(["verify", str(tmp_path / "nope.csv"), str(cfg)])
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("bad_value", ["not-utf8", "nan", "inf"])
def test_unusable_solution_file_is_bad_input(tmp_path, capsys, command, bad_value):
    cfg = write_cfg(tmp_path)
    solution = tmp_path / "solution.csv"
    grid = spheregeom.SphereGrid(8, 16)
    write_solution_csv(solution, grid, np.full(grid.shape, 2.0))
    if bad_value == "not-utf8":
        solution.write_bytes(b"theta,phi,rho\n\xff\xfe,1,2\n")
    else:
        lines = solution.read_text().splitlines()
        lines[40] = lines[40].rsplit(",", 1)[0] + "," + bad_value
        solution.write_text("\n".join(lines) + "\n")
    argv = [command, str(solution), str(cfg)]
    if command == "export":
        argv += ["--format", "obj"]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "solution_export.obj").exists()


def test_export_to_missing_directory_is_bad_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, 2.0))
    target = tmp_path / "missing" / "x.obj"
    argv = ["export", str(solution), str(cfg), "--format", "obj", "--output", str(target)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "solution.csv"]


def test_export_to_obj_and_back_to_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["solve", str(cfg)]) == 0
    solution = tmp_path / "out" / "solution.csv"
    code = cli.main(["export", str(solution), str(cfg), "--format", "obj"])
    assert code == 0
    exported = tmp_path / "out" / "solution_export.obj"
    assert exported.is_file()
    assert exported.read_text().startswith("v ")

    custom = tmp_path / "copy.csv"
    code = cli.main([
        "export", str(solution), str(cfg), "--format", "csv",
        "--output", str(custom),
    ])
    assert code == 0
    grid_a, rho_a = read_solution_csv(solution)
    grid_b, rho_b = read_solution_csv(custom)
    assert grid_a.shape == grid_b.shape
    assert np.array_equal(rho_a, rho_b)


def test_solve_verify_export_never_read_kappa(tmp_path, capsys, monkeypatch):
    # the solver reads sigma_1 and sigma_2; the principal curvatures are
    # off its path
    def unread(self):
        raise AssertionError("GeometryState.kappa read")

    monkeypatch.setattr(spheregeom.GeometryState, "kappa", property(unread))
    cfg = write_cfg(tmp_path)
    solution = tmp_path / "out" / "solution.csv"
    assert cli.main(["solve", str(cfg)]) == 0
    assert cli.main(["verify", str(solution), str(cfg)]) == 0
    assert cli.main(["export", str(solution), str(cfg), "--format", "obj"]) == 0


def run_program(cwd, *argv):
    """The Python interpreter in a fresh process, with this package on its
    path, so that what it prints to stderr is seen as a user sees it.  Any
    warning is an error there, as in the test suite."""
    env = dict(os.environ)
    src = str(Path(weingarten.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_overflowing_coefficient_is_one_error_line(tmp_path):
    # no numpy warning reaches the user ahead of the error line
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace('"0.25/rho"', '"rho*1e308*10"'))
    done = run_program(tmp_path, "-m", "weingarten.cli", "check", str(cfg))
    assert done.returncode == 2
    assert done.stderr == "error: non-finite value in alpha1 (byte offset 3)\n"


@pytest.mark.parametrize("value", [1e200, 1e-200, 1e308])
def test_verify_of_an_extreme_field_is_one_failure_line(tmp_path, value):
    # the geometry kernel overflows or divides by zero on these finite
    # fields; no numpy warning reaches the user ahead of the failure
    cfg = write_cfg(tmp_path)
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, value))
    done = run_program(tmp_path, "-m", "weingarten.cli", "verify", str(solution), str(cfg))
    assert done.returncode == 1
    assert done.stdout == "verification failed: non-finite curvature at node (0, 0)\n"
    assert done.stderr == ""


def test_verify_of_an_overflowing_residual_is_one_failure_line(tmp_path):
    # the surface is a round sphere, but alpha_0 / sigma_1 overflows at
    # t=1; the residual reports it as a failure, with no numpy warning
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace('"(0.6 - 0.05*rho)/rho^2"', '"1.5e308"'))
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, 3.0))
    done = run_program(tmp_path, "-m", "weingarten.cli", "verify", str(solution), str(cfg))
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == "FAIL residual: non-finite residual at node (0, 0)"
    assert done.stderr == ""


#: zero up to r2 = 4, then 1.7e308 a hair beyond it
PAST_R2 = "1.7e308*min(1, max(0, 1e9*(rho - 4.0000001)))"


def overflow_past_r2_cfg(tmp_path, alpha1):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text()
                   .replace('"(0.6 - 0.05*rho)/rho^2"', f'"(0.6 - 0.05*rho)/rho^2 + {PAST_R2}"')
                   .replace('"0.25/rho"', f'"{alpha1}"'))
    return cfg


def test_an_overflowed_barrier_margin_is_refused(tmp_path):
    # past r2 the outer barrier fails by about 1e308 and its sum overflows
    # to -inf: no pass, no solve, and no numpy warning on stderr
    cfg = overflow_past_r2_cfg(tmp_path, f"0.25/rho + {PAST_R2}")
    done = run_program(tmp_path, "-m", "weingarten.cli", "check", str(cfg))
    assert (done.returncode, done.stderr) == (1, "")
    row = next(line for line in done.stdout.splitlines() if line.startswith("shell_outer"))
    assert row.split()[:3] == ["shell_outer", "FAIL", "-inf"]
    done = run_program(tmp_path, "-m", "weingarten.cli", "solve", str(cfg))
    assert (done.returncode, done.stderr) == (1, "")
    assert "hypothesis check failed; not solving" in done.stdout
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_non_finite_margins_are_written_as_strict_json(tmp_path, capsys):
    def refuse(token):
        raise ValueError(f"{token} is not RFC 8259 JSON")

    cfg = overflow_past_r2_cfg(tmp_path, "1e308")
    assert cli.main(["check", str(cfg)]) == 1
    text = (tmp_path / "out" / "hypothesis_report.json").read_text()
    checks = json.loads(text, parse_constant=refuse)["checks"]
    assert checks["shell_outer"]["margin"] == "-inf"
    assert checks["shell_inner"]["margin"] == checks["shell_inner"]["boundary_margin"] == "inf"
    assert [checks[name]["passed"] for name in ("shell_outer", "shell_inner")] == [False, True]


def test_a_barrier_margin_beyond_the_double_range_is_certified(tmp_path):
    # alpha_1 = 1e308 puts 2 alpha_1/rho at 2e308-4e308 on the inner band
    # [0.5, 1]: the inner barrier holds, though its margin reads +inf in raw
    # units, while the outer barrier and the monotonicity still fail
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace('"0.25/rho"', '"1e308"'))
    done = run_program(tmp_path, "-m", "weingarten.cli", "check", str(cfg))
    assert (done.returncode, done.stderr) == (1, "")
    rows = [line.split() for line in done.stdout.splitlines()[1:-1]]
    assert ["shell_inner", "pass", "+inf"] in [row[:3] for row in rows]
    assert [row[0] for row in rows if row[1] == "FAIL"] == ["shell_outer", "weighted_monotone"]


@pytest.mark.parametrize("value, node, reason", [
    (-2.0, (3, 5), "rho must be positive, violated at node (3, 5)"),
    (0.0, (7, 0), "rho must be positive, violated at node (7, 0)"),
    (1e308, None, "the pole vertex of theta ring 0 overflows"),
])
def test_export_obj_refuses_a_field_it_cannot_mesh(tmp_path, value, node, reason):
    # an inside-out, collapsed or overflowing mesh is refused, as verify
    # refuses the field, and no file is written
    cfg = write_cfg(tmp_path)
    grid = spheregeom.SphereGrid(8, 16)
    rho = np.full(grid.shape, 2.0 if node else value)
    if node:
        rho[node] = value
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, rho)
    done = run_program(
        tmp_path, "-m", "weingarten.cli", "export", str(solution), str(cfg), "--format", "obj"
    )
    assert done.returncode == 2
    assert done.stderr == f"error: cannot mesh: {reason}\n"
    assert done.stdout == ""
    assert not (tmp_path / "solution_export.obj").exists()


def test_check_verify_export_never_import_scipy(tmp_path):
    # the program runs on numpy alone: no command, solve included, pays
    # for scipy's import
    cfg = write_cfg(tmp_path)
    grid = spheregeom.SphereGrid(8, 16)
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, np.full(grid.shape, 2.0))
    runs = [
        ["solve", str(cfg)],
        ["check", str(cfg)],
        ["verify", str(solution), str(cfg)],
        ["export", str(solution), str(cfg), "--format", "obj"],
        ["export", str(solution), str(cfg), "--format", "csv"],
    ]
    script = (
        "import json, sys\n"
        "from weingarten import cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    done = run_program(tmp_path, "-c", script)
    assert done.returncode == 0, done.stderr
    codes, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_modules == []


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
