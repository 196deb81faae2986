"""Solution serialization: CSV fields, watertight OBJ meshes and reports.

The CSV layout is theta, phi, rho with one row per node in theta-major
order, values printed with 17 significant digits so a write/read round
trip is bit-lossless.  The OBJ mesh closes the two polar holes with fans
around ring-averaged pole vertices, giving a watertight genus-0 surface.

Both writers format whole arrays at once through one template.  The OBJ
template is a line repeated per vertex or face; the CSV template already
holds each ring's theta and each phi, formatted once, so only rho is
formatted per node.  The reader parses the CSV body with numpy's C text
parser, which rounds like ``float()``.
"""

from __future__ import annotations

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
    leads = [f"{NUMBER % theta}," for theta in grid.theta.tolist()]
    template = "".join(lead + lead.join(ring) for lead in leads)
    body = template % tuple(rho.ravel().tolist())
    Path(path).write_text("theta,phi,rho\n" + body, encoding="utf-8")


def read_solution_csv(path):
    """Read a solution CSV back into (grid, rho).

    The node lattice must match a staggered grid exactly (up to the
    print precision) and every value must be finite; anything else,
    including a file that is not UTF-8, raises SolutionFormatError.
    """
    path = Path(path)
    if not path.is_file():
        raise SolutionFormatError(f"no such solution file: {path}")
    try:
        text = path.read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as err:
        raise SolutionFormatError(f"{path} is not UTF-8 text: {err}") from err
    if not text or text[0].strip().lower() != "theta,phi,rho":
        raise SolutionFormatError("expected header 'theta,phi,rho'")
    body = text[1:]
    if not body:
        raise SolutionFormatError("expected rows of theta,phi,rho")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise SolutionFormatError(f"bad row in {path}: {err}") from err
    # loadtxt skips blank lines, which are malformed rows here
    if data.shape != (len(body), 3):
        raise SolutionFormatError("expected rows of theta,phi,rho")
    finite = np.isfinite(data)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise SolutionFormatError(
            f"non-finite value in {path}, row {row + 1}: {body[row]!r}"
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
    return grid, data[:, 2].reshape(ntheta, nphi)


def write_obj(path, grid, rho):
    """Watertight triangle mesh of the radial graph.

    One vertex per node plus a ring-averaged vertex at each pole; quads
    between rings are split into triangles and the polar holes closed by
    fans, all faces oriented outward.
    """
    rho = grid.check_field(rho)
    d1, d2, d3 = grid.directions()
    xyz = np.stack([rho * d1, rho * d2, rho * d3], axis=-1)
    verts = np.concatenate(
        [xyz.reshape(-1, 3), xyz[0].mean(axis=0)[None], xyz[-1].mean(axis=0)[None]]
    )

    # 1-based vertex ids; `nxt` is the neighbour one step on in phi
    ids = np.arange(1, grid.size + 1).reshape(grid.shape)
    nxt = np.roll(ids, -1, axis=1)
    north = np.full(grid.nphi, grid.size + 1)
    south = np.full(grid.nphi, grid.size + 2)
    a, b, c, d = ids[:-1], ids[1:], nxt[1:], nxt[:-1]
    band = np.stack([a, b, c, a, c, d], axis=-1)  # two triangles per quad
    faces = np.concatenate(
        [
            np.stack([north, ids[0], nxt[0]], axis=-1),
            band.reshape(-1, 3),
            np.stack([south, nxt[-1], ids[-1]], axis=-1),
        ]
    )

    with open(path, "w", encoding="utf-8") as fh:
        fh.write((OBJ_VERTEX * len(verts)) % tuple(verts.ravel().tolist()))
        fh.write((OBJ_FACE * len(faces)) % tuple(faces.ravel().tolist()))


def write_solve_report(path, report):
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
    )


def write_hypothesis_report(path, report):
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
    )
