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
parser, which rounds like ``float()``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .spheregeom import SphereGrid

__all__ = [
    "SolutionFormatError",
    "write_solution_csv",
    "read_solution_csv",
    "write_obj",
    "write_solve_report",
    "write_hypothesis_report",
]

#: 17 significant digits round-trip IEEE doubles exactly
NUMBER = "%.17g"
OBJ_VERTEX = "v %.17g %.17g %.17g\n"
OBJ_FACE = "f %d %d %d\n"


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


def _rows(lines):
    """The lines left in `lines`; whitespace-only lines may only trail."""
    blank = False
    for line in lines:
        if line.isspace():
            blank = True
        elif blank:
            raise SolutionFormatError("blank line among the rows")
        else:
            yield line


def read_solution_csv(path):
    """Read a solution CSV back into (grid, rho).

    Blank lines may come before the header and after the last row, but
    not between rows.  The node lattice must match a staggered grid
    exactly (up to the print precision) and every value must be finite;
    anything else, including a file that is not UTF-8, raises
    SolutionFormatError.
    """
    path = Path(path)
    if not path.is_file():
        raise SolutionFormatError(f"no such solution file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            header = next((line for line in fh if not line.isspace()), "")
            if header.strip().lower() != "theta,phi,rho":
                raise SolutionFormatError("expected header 'theta,phi,rho'")
            rows = _rows(fh)
            first = next(rows, None)
            if first is None:
                raise SolutionFormatError("expected rows of theta,phi,rho")
            data = np.loadtxt(
                itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2
            )
    except UnicodeDecodeError as err:
        raise SolutionFormatError(f"{path} is not UTF-8 text: {err}") from err
    except SolutionFormatError:
        raise
    except ValueError as err:
        raise SolutionFormatError(f"bad row in {path}: {err}") from err
    if data.shape[1] != 3:
        raise SolutionFormatError("expected rows of theta,phi,rho")
    finite = np.isfinite(data)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise SolutionFormatError(
            f"non-finite value in {path}, row {row + 1}: theta,phi,rho = {data[row].tolist()}"
        )

    thetas = np.unique(data[:, 0])
    phis = np.unique(data[:, 1])
    ntheta, nphi = thetas.size, phis.size
    if ntheta * nphi != data.shape[0]:
        raise SolutionFormatError("rows do not form a full theta x phi lattice")
    try:
        grid = SphereGrid(ntheta, nphi)
    except ValueError as err:
        raise SolutionFormatError(f"unsupported lattice: {err}") from err
    if not (
        np.allclose(thetas, grid.theta, rtol=0, atol=1e-12)
        and np.allclose(phis, grid.phi, rtol=0, atol=1e-12)
    ):
        raise SolutionFormatError("node lattice is not a staggered grid")

    expect_theta = np.repeat(grid.theta, nphi)
    expect_phi = np.tile(grid.phi, ntheta)
    if not (
        np.allclose(data[:, 0], expect_theta, rtol=0, atol=1e-12)
        and np.allclose(data[:, 1], expect_phi, rtol=0, atol=1e-12)
    ):
        raise SolutionFormatError("rows are not in theta-major order")
    # a copy, so that the parsed table is freed on return
    return grid, data[:, 2].copy().reshape(ntheta, nphi)


def write_obj(path, grid, rho):
    """Watertight triangle mesh of the radial graph.

    One vertex per node plus a ring-averaged vertex at each pole; quads
    between rings are split into triangles and the polar holes closed by
    fans, all faces oriented outward.
    """
    rho = grid.check_field(rho)
    nt, nphi = grid.shape
    d1, d2, d3 = grid.directions()

    def ring(i):
        """The (nphi, 3) vertices of theta ring i."""
        return np.stack([rho[i] * d1[i], rho[i] * d2[i], rho[i] * d3[i]], axis=-1)

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
        poles = np.stack([ring(0).mean(axis=0), ring(nt - 1).mean(axis=0)])
        fh.write((OBJ_VERTEX * 2) % tuple(poles.ravel().tolist()))
        fh.write(fan % tuple(np.stack([north, ids, nxt], axis=-1).ravel().tolist()))
        faces = OBJ_FACE * (2 * nphi)
        for i in range(nt - 1):
            fh.write(faces % tuple((band + i * nphi).tolist()))
        south_fan = np.stack([south, nxt + last, ids + last], axis=-1)
        fh.write(fan % tuple(south_fan.ravel().tolist()))


def write_solve_report(path, report):
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
    )


def write_hypothesis_report(path, report):
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
    )
