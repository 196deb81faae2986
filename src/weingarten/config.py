"""Run configuration: INI-style files with [problem], [grid], [solver] and
[output] sections.  Coefficient expressions are quoted strings in the
expression language; everything else is plain key = value.  Beyond the
problem and its grid, a run sets only Newton's stopping tolerance and its
output directory.  `KEYS` is the one statement of the format: every key,
with the reader of its text and its default, and `load_config` reads each
key through it."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .curvop import ProblemSpec
from .exprlang import ExprSyntaxError, parse
from .spheregeom import SphereGrid


class ConfigError(ValueError):
    """Unusable configuration file."""


def _unquote(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _expression(text):
    return parse(_unquote(text))


#: section -> key -> (reader, default), in the order a file is read; a key
#: whose default is None is required
KEYS = {
    "problem": {"k": (int, 2), "n": (int, 2), "r1": (float, None), "r2": (float, None),
                "alpha0": (_expression, None), "alpha1": (_expression, None),
                "phi": (_expression, None)},
    "grid": {"ntheta": (int, 32), "nphi": (int, 64)},
    "solver": {"newton_tol": (float, ProblemSpec.newton_tol)},
    "output": {"directory": (_unquote, "out")},
}


@dataclass
class RunConfig:
    problem: ProblemSpec
    outdir: Path


def _read(section, name, key, reader, default):
    """The value of `key` in [name], read from its text by `reader`."""
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {key!r} in [{name}]")
        return default
    text = section[key]
    try:
        # float and int also read "1_0" and non-ASCII digits; a config
        # number, like an expression's, is plain ASCII
        if reader in (int, float) and ("_" in text or not text.isascii()):
            raise ValueError(f"{text!r} is not written in ASCII without '_'")
        value = reader(text)
    except ExprSyntaxError as err:
        raise ConfigError(f"bad expression for {key!r}: {err}") from err
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r} in [{name}]: {err}") from err
    # the solver treats sigma_2/sigma_1 on surfaces only; a file may say so
    if key in ("k", "n") and value != 2:
        raise ConfigError(f"need {key} = 2 (sigma_2/sigma_1 on surfaces), got {key}={value}")
    return value


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
    # a name the run would not read is most likely misspelled
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")
    for name in parser.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}")
        for key in parser[name]:
            if key not in KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    # [solver] and [output] may be left out, and then hold every default
    values = {key: _read(parser[name] if name in parser else {}, name, key, reader, default)
              for name, keys in KEYS.items() for key, (reader, default) in keys.items()}
    try:
        grid = SphereGrid(values["ntheta"], values["nphi"])
    except ValueError as err:
        raise ConfigError(f"bad grid: {err}") from err
    try:
        spec = ProblemSpec(
            r1=values["r1"], r2=values["r2"], alphas=(values["alpha0"], values["alpha1"]),
            phi=values["phi"], grid=grid, newton_tol=values["newton_tol"],
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    # a relative directory is the config file's; an absolute one replaces it
    return RunConfig(problem=spec, outdir=path.parent / values["directory"])
