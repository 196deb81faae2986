"""Solution serialization: CSV fields, watertight OBJ meshes and reports.

The CSV layout is theta, phi, rho with one row per node in theta-major
order, values printed with 17 significant digits so a write/read round
trip is bit-lossless.  The OBJ mesh closes the two polar holes with fans
around ring-averaged pole vertices, giving a watertight genus-0 surface.

Both writers work one theta ring at a time, so memory stays at a few
rings of text plus a few grid-sized arrays whatever the grid.  Each ring
is formatted in one step through a template: the OBJ templates are a
line repeated per vertex or face of the ring; the CSV template holds the
ring's theta and each phi, formatted once, so only rho is formatted per
node.  The reader streams the CSV body line by line into numpy's C text
parser, which rounds like ``float()``.  It converts only rho when the
theta and phi fields are, byte for byte, the texts the writer prints for
the grid; any other file, such as one another tool wrote with other
digits, goes through a parse that converts every value, 1.6 times as slow.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .spheregeom import SphereGrid, first_node

#: 17 significant digits round-trip IEEE doubles exactly
NUMBER = "%.17g"
OBJ_VERTEX = "v %.17g %.17g %.17g\n"
OBJ_FACE = "f %d %d %d\n"

#: characters read at a time from a solution CSV: a few rings of text
CHUNK = 1 << 16
#: a whitespace-only line, with the newline that ends the line before it
_BLANK_LINE = re.compile(r"\n[^\S\n]*\n")
#: theta and phi kept as text, rho converted; a lattice node prints in at
#: most 21 bytes, so no field cut to 24 bytes matches one
TEXT_ROWS = np.dtype([("theta", "S24"), ("phi", "S24"), ("rho", "f8")])


class SolutionFormatError(ValueError):
    """Solution file does not match the expected layout."""


def write_solution_csv(path, grid, rho):
    rho = grid.check_field(rho)
    # "theta,phi,%.17g\n" per node, with theta and phi already formatted
    ring = [f"{NUMBER % phi},{NUMBER}\n" for phi in grid.phi.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,phi,rho\n")
        for theta, row in zip(grid.theta.tolist(), rho):
            lead = f"{NUMBER % theta},"
            fh.write((lead + lead.join(ring)) % tuple(row.tolist()))


def _rows(fh):
    """The lines left in `fh`, without their newlines, one list per chunk.

    Whitespace-only lines may only trail.  A line holding a NUL is
    refused: no number holds one, and numpy drops trailing NULs from a
    bytes field.
    """
    # `text` starts with the newline that ends the line before it, so a
    # blank line is a newline, whitespace and a newline
    text = "\n"
    while True:
        chunk = fh.read(CHUNK)
        text += chunk
        if not chunk:
            if text == "\n":
                return
            text += "\n"
        end = text.rfind("\n")
        if "\0" in text:
            raise SolutionFormatError("NUL character in a row")
        blank = _BLANK_LINE.search(text, 0, end + 1)
        if blank:
            end = blank.start()
        if end:
            yield text[1:end].split("\n")
        if blank:
            rest = text[end:]
            while rest:
                if not rest.isspace():
                    raise SolutionFormatError("blank line among the rows")
                rest = fh.read(CHUNK)
            return
        if not chunk:
            return
        text = text[end:]


def _load_body(path, dtype, ndmin):
    """The rows after the header of the CSV at `path`, parsed as `dtype`."""
    with open(path, encoding="utf-8") as fh:
        header = next((line for line in fh if not line.isspace()), "")
        if header.strip().lower() != "theta,phi,rho":
            raise SolutionFormatError("expected header 'theta,phi,rho'")
        rows = _rows(fh)
        first = next(rows, None)
        if first is None:
            raise SolutionFormatError("expected rows of theta,phi,rho")
        return np.loadtxt(
            itertools.chain.from_iterable(itertools.chain([first], rows)),
            dtype=dtype, delimiter=",", comments=None, ndmin=ndmin,
        )


def _lattice_rows(path):
    """(grid, rho) of the CSV at `path` if its theta and phi fields are,
    byte for byte, the texts `write_solution_csv` prints for the grid its
    first ring implies and every rho is finite; else None."""
    try:
        table = _load_body(path, TEXT_ROWS, 1)
        # a ring is the first run of one theta text
        theta = table["theta"]
        nphi = int(np.argmax(theta != theta[0])) or table.size
        grid = SphereGrid(table.size // nphi, nphi)
        # raises ValueError unless the rings fill the grid
        rows = table.reshape(grid.shape)
    except ValueError:
        return None

    thetas, phis = (
        np.array([NUMBER % x for x in nodes.tolist()], dtype=theta.dtype)
        for nodes in (grid.theta, grid.phi)
    )
    if not (
        (rows["theta"] == thetas[:, None]).all()
        and (rows["phi"] == phis).all()
        and np.isfinite(rows["rho"]).all()
    ):
        return None
    # a copy, so that the parsed table is freed on return
    return grid, rows["rho"].copy()


def _float_rows(path):
    """(grid, rho) of the CSV at `path` through the whole-row float parse,
    which converts every value and checks finiteness, the lattice up to
    the print precision and the theta-major row order."""
    data = _load_body(path, float, 2)
    if data.shape[1] != 3:
        raise SolutionFormatError("expected rows of theta,phi,rho")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise SolutionFormatError(
            f"non-finite value in {path}, row {row + 1}: "
            f"theta,phi,rho = {data[row].tolist()}"
        )
    thetas, phis = np.unique(data[:, 0]), np.unique(data[:, 1])
    if thetas.size * phis.size != len(data):
        raise SolutionFormatError("rows do not form a full theta x phi lattice")
    try:
        grid = SphereGrid(thetas.size, phis.size)
    except ValueError as err:
        raise SolutionFormatError(f"unsupported lattice: {err}") from err
    near = functools.partial(np.allclose, rtol=0, atol=1e-12)
    if not (near(thetas, grid.theta) and near(phis, grid.phi)):
        raise SolutionFormatError("node lattice is not a staggered grid")
    rows = data.reshape(*grid.shape, 3)
    if not (near(rows[..., 0], grid.theta[:, None]) and near(rows[..., 1], grid.phi)):
        raise SolutionFormatError("rows are not in theta-major order")
    return grid, rows[..., 2].copy()


def read_solution_csv(path):
    """Read a solution CSV back into (grid, rho).

    Blank lines may come before the header and after the last row, but
    not between rows, and no row may hold a NUL.  The node lattice must
    match a staggered grid exactly (up to the print precision) and every
    value must be finite; anything else, including a file that is not
    UTF-8, raises SolutionFormatError.
    """
    path = Path(path)
    if not path.is_file():
        raise SolutionFormatError(f"no such solution file: {path}")
    try:
        return _lattice_rows(path) or _float_rows(path)
    except UnicodeDecodeError as err:
        raise SolutionFormatError(f"{path} is not UTF-8 text: {err}") from err
    except SolutionFormatError:
        raise
    except ValueError as err:
        raise SolutionFormatError(f"bad row in {path}: {err}") from err


def write_obj(path, grid, rho):
    """Watertight triangle mesh of the radial graph.

    One vertex per node plus a ring-averaged vertex at each pole; quads
    between rings are split into triangles and the polar holes closed by
    fans, all faces oriented outward.  A field that is not positive or whose
    pole vertex overflows is refused, naming where, before a file is opened.
    """
    rho = grid.check_field(rho)
    nt, nphi = grid.shape
    d1, d2, d3 = grid.directions()
    bad = first_node(~(rho > 0.0))
    if bad is not None:
        raise SolutionFormatError(f"cannot mesh: rho must be positive, violated at node {bad}")

    def ring(i):
        """The (nphi, 3) vertices of theta ring i."""
        return np.stack([rho[i] * d1[i], rho[i] * d2[i], rho[i] * d3[i]], axis=-1)

    with np.errstate(over="ignore"):
        poles = np.stack([ring(0).mean(axis=0), ring(nt - 1).mean(axis=0)])
    if not np.isfinite(poles).all():
        i = 0 if not np.isfinite(poles[0]).all() else nt - 1
        raise SolutionFormatError(f"cannot mesh: the pole vertex of theta ring {i} overflows")

    # 1-based vertex ids of ring 0; `nxt` is the neighbour one step on in phi
    ids = np.arange(1, nphi + 1)
    nxt = np.roll(ids, -1)
    north = np.full(nphi, grid.size + 1)
    south = np.full(nphi, grid.size + 2)
    last = (nt - 1) * nphi
    # two triangles per quad between rings 0 and 1; band i adds i * nphi
    band = np.stack([ids, ids + nphi, nxt + nphi, ids, nxt + nphi, nxt], axis=-1).ravel()
    fan = OBJ_FACE * nphi

    with open(path, "w", encoding="utf-8") as fh:
        vertices = OBJ_VERTEX * nphi
        for i in range(nt):
            fh.write(vertices % tuple(ring(i).ravel().tolist()))
        fh.write((OBJ_VERTEX * 2) % tuple(poles.ravel().tolist()))
        fh.write(fan % tuple(np.stack([north, ids, nxt], axis=-1).ravel().tolist()))
        faces = OBJ_FACE * (2 * nphi)
        for i in range(nt - 1):
            fh.write(faces % tuple((band + i * nphi).tolist()))
        south_fan = np.stack([south, nxt + last, ids + last], axis=-1)
        fh.write(fan % tuple(south_fan.ravel().tolist()))


def _strict(value):
    """`value` with each non-finite float in it named "inf", "-inf" or
    "nan": strict JSON has no number for them."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return str(value) if isinstance(value, float) and not np.isfinite(value) else value


def write_report(path, report):
    """A solve or hypothesis report as indented, strict JSON."""
    Path(path).write_text(
        json.dumps(_strict(report.as_dict()), indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


write_solve_report = write_hypothesis_report = write_report
