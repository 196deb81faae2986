"""Run configuration: INI-style files with [problem], [grid], [solver] and
[output] sections.  Coefficient expressions are quoted strings in the
expression language; everything else is plain key = value.  Beyond the
problem and its grid, a run sets only Newton's stopping tolerance and its
output directory."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .curvop import ProblemSpec
from .exprlang import ExprSyntaxError, parse
from .spheregeom import SphereGrid

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Unusable configuration file."""


#: the keys each section may hold
KEYS = {
    "problem": {"k", "n", "r1", "r2", "alpha0", "alpha1", "phi"},
    "grid": {"ntheta", "nphi"},
    "solver": {"newton_tol"},
    "output": {"directory"},
}


@dataclass
class RunConfig:
    problem: ProblemSpec
    outdir: Path


def _unquote(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _get(section, key, cast, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {key!r} in [{section.name}]")
        return default
    text = section[key]
    try:
        # float and int also read "1_0" and non-ASCII digits; a config
        # number, like an expression's, is plain ASCII
        if "_" in text or not text.isascii():
            raise ValueError(f"{text!r} is not written in ASCII without '_'")
        return cast(text)
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r} in [{section.name}]: {err}") from err


def load_config(path):
    """Parse a configuration file into a RunConfig.

    Raises ConfigError on missing files, unknown sections or keys,
    unparseable expressions, grid sizes outside the supported range, or
    malformed values.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    for name in ("problem", "grid"):
        if name not in parser:
            raise ConfigError(f"missing [{name}] section in {path}")
    for name in ("solver", "output"):
        if name not in parser:
            parser.add_section(name)
    problem = parser["problem"]
    grid_sec = parser["grid"]
    solver_sec = parser["solver"]
    output = parser["output"]

    # a name the run would not read is most likely misspelled
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")
    for name in parser.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}")
        for key in parser[name]:
            if key not in KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    # the solver treats sigma_2/sigma_1 on surfaces only; a file may say so
    for key in ("k", "n"):
        value = _get(problem, key, int, default=2)
        if value != 2:
            raise ConfigError(f"need {key} = 2 (sigma_2/sigma_1 on surfaces), got {key}={value}")
    r1 = _get(problem, "r1", float)
    r2 = _get(problem, "r2", float)

    exprs = {}
    for key in ("alpha0", "alpha1", "phi"):
        if key not in problem:
            raise ConfigError(f"missing key {key!r} in [problem]")
        try:
            exprs[key] = parse(_unquote(problem[key]))
        except ExprSyntaxError as err:
            raise ConfigError(f"bad expression for {key!r}: {err}") from err

    shape = _get(grid_sec, "ntheta", int, default=32), _get(grid_sec, "nphi", int, default=64)
    try:
        grid = SphereGrid(*shape)
    except ValueError as err:
        raise ConfigError(f"bad grid: {err}") from err

    newton_tol = _get(solver_sec, "newton_tol", float, default=ProblemSpec.newton_tol)
    try:
        spec = ProblemSpec(
            r1=r1, r2=r2, alphas=(exprs["alpha0"], exprs["alpha1"]), phi=exprs["phi"],
            grid=grid, newton_tol=newton_tol,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    outdir = Path(_unquote(output["directory"]) if "directory" in output else "out")
    if not outdir.is_absolute():
        outdir = path.parent / outdir

    return RunConfig(problem=spec, outdir=outdir)
