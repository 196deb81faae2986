"""Solution files: lossless CSV round trips, watertight OBJ meshes,
and JSON reports."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from weingarten import export
from weingarten.continuation import check_hypotheses, continue_to_one
from weingarten.curvop import ProblemSpec
from weingarten.export import (
    SolutionFormatError,
    read_solution_csv,
    write_hypothesis_report,
    write_obj,
    write_report,
    write_solution_csv,
    write_solve_report,
)
from weingarten.spheregeom import SphereGrid


def bumpy_field(grid):
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    return 2.0 + 0.3 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ph)


def test_csv_round_trip_is_bit_exact(tmp_path):
    grid = SphereGrid(8, 16)
    rho = bumpy_field(grid)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, rho)
    grid2, rho2 = read_solution_csv(path)
    assert grid2.shape == grid.shape
    assert np.array_equal(rho2, rho)


def test_csv_layout(tmp_path):
    grid = SphereGrid(8, 16)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, np.full(grid.shape, 2.0))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,phi,rho"
    assert len(lines) == 1 + grid.size
    # theta-major: the first nphi rows share theta_0
    first = {line.split(",")[0] for line in lines[1 : 1 + grid.nphi]}
    assert len(first) == 1


def test_csv_rejects_missing_file(tmp_path):
    with pytest.raises(SolutionFormatError):
        read_solution_csv(tmp_path / "nope.csv")


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SolutionFormatError):
        read_solution_csv(path)


def test_csv_rejects_wrong_lattice(tmp_path):
    grid = SphereGrid(8, 16)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, np.full(grid.shape, 2.0))
    lines = path.read_text().strip().splitlines()
    # perturb one theta so it is no longer a staggered grid node
    parts = lines[1].split(",")
    parts[0] = "0.123456"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SolutionFormatError):
        read_solution_csv(path)


def test_csv_rejects_truncated_file(tmp_path):
    grid = SphereGrid(8, 16)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, np.full(grid.shape, 2.0))
    lines = path.read_text().strip().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(SolutionFormatError):
        read_solution_csv(path)


def _reference_rows(lines):
    blank = False
    for line in lines:
        if line.isspace():
            blank = True
        elif blank:
            raise SolutionFormatError("blank line among the rows")
        else:
            yield line


def reference_read(path):
    """The reader that converts every field of every row, line by line:
    the accept/reject decisions and arrays the fast reader must keep."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = next((line for line in fh if not line.isspace()), "")
            if header.strip().lower() != "theta,phi,rho":
                raise SolutionFormatError("header")
            rows = _reference_rows(fh)
            first = next(rows, None)
            if first is None:
                raise SolutionFormatError("no rows")
            data = np.loadtxt(
                itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2
            )
    except (UnicodeDecodeError, ValueError) as err:
        raise SolutionFormatError(str(err)) from err
    if data.shape[1] != 3 or not np.isfinite(data).all():
        raise SolutionFormatError("columns")
    thetas, phis = np.unique(data[:, 0]), np.unique(data[:, 1])
    if thetas.size * phis.size != data.shape[0]:
        raise SolutionFormatError("lattice size")
    try:
        grid = SphereGrid(thetas.size, phis.size)
    except ValueError as err:
        raise SolutionFormatError(str(err)) from err
    if not (
        np.allclose(thetas, grid.theta, rtol=0, atol=1e-12)
        and np.allclose(phis, grid.phi, rtol=0, atol=1e-12)
        and np.allclose(data[:, 0], np.repeat(grid.theta, grid.nphi), rtol=0, atol=1e-12)
        and np.allclose(data[:, 1], np.tile(grid.phi, grid.ntheta), rtol=0, atol=1e-12)
    ):
        raise SolutionFormatError("lattice")
    return grid, data[:, 2].reshape(grid.shape)


def _edit_field(lines, row, column, edit):
    """`lines` with field `column` of line `row` passed through `edit`."""
    fields = lines[row].split(",")
    fields[column] = edit(fields[column])
    return lines[:row] + [",".join(fields)] + lines[row + 1 :]


def _replace_rho(lines, value):
    theta, phi, _ = lines[5].split(",")
    return lines[:5] + [f"{theta},{phi},{value}"] + lines[6:]


MALFORMED = {
    "blank-line": lambda lines: lines[:5] + [""] + lines[5:],
    "whitespace-line": lambda lines: lines[:5] + [" \t "] + lines[5:],
    "blank-line-after-header": lambda lines: lines[:1] + [""] + lines[1:],
    "comment-line": lambda lines: lines[:5] + ["# note"] + lines[5:],
    "non-numeric": lambda lines: _replace_rho(lines, "abc"),
    "two-fields": lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:],
    "trailing-comma": lambda lines: lines[:5] + [lines[5] + ","] + lines[6:],
    "four-columns": lambda lines: lines[:1] + [line + ",0" for line in lines[1:]],
    "header-only": lambda lines: lines[:1],
    "nan": lambda lines: _replace_rho(lines, "nan"),
    "inf": lambda lines: _replace_rho(lines, "inf"),
    "minus-inf": lambda lines: _replace_rho(lines, "-inf"),
    "overflow": lambda lines: _replace_rho(lines, "1e400"),
    # 125 rows: no ring length divides them
    "truncated": lambda lines: lines[:-3],
    "nul-in-theta": lambda lines: _edit_field(lines, 5, 0, lambda t: t[:3] + "\0" + t[3:]),
    "nul-ending-theta": lambda lines: _edit_field(lines, 5, 0, lambda t: t + "\0"),
    "nul-after-rho": lambda lines: _edit_field(lines, 5, 2, lambda t: t + "\0"),
    "non-ascii-digit-in-phi": lambda lines: _edit_field(lines, 5, 1, lambda t: "\u0663"),
    "unicode-space-line": lambda lines: lines[:5] + ["\u2003"] + lines[5:],
    "nul-in-trailing-line": lambda lines: lines + ["", "\0"],
    # 9 distinct thetas, all within 1e-12 of the 8 lattice thetas
    "close-thetas": lambda lines: _edit_field(lines, 5, 0, lambda t: repr(float(t) + 1e-13)),
    "rows-out-of-order": lambda lines: lines[:5] + [lines[5 + 16]] + lines[6 : 5 + 16]
    + [lines[5]] + lines[6 + 16 :],
    "phi-major-order": lambda lines: lines[:1] + sorted(
        lines[1:], key=lambda line: [float(x) for x in line.split(",")[1::-1]]
    ),
}


@pytest.mark.parametrize("case", [*MALFORMED, "not-utf8"])
def test_csv_rejects_malformed_rows_without_warning(tmp_path, case):
    grid = SphereGrid(8, 16)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, np.full(grid.shape, 2.0))
    if case == "not-utf8":
        path.write_bytes(b"theta,phi,rho\n\xff\xfe,1,2\n")
    else:
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(MALFORMED[case](lines)) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolutionFormatError):
            read_solution_csv(path)
    assert caught == []
    with pytest.raises(SolutionFormatError):
        reference_read(path)


def _edit_text(text, row, column, edit):
    lines = text.split("\n")
    return "\n".join(_edit_field(lines, row, column, edit))


def _pad_fields(text):
    header, body = text.split("\n", 1)
    return header + "\n" + body.replace(",", " , ")


# whole-file variants of a well-formed solution that must read back the
# same field: blank lines may only surround the header and the rows
ACCEPTED = {
    "blank-lines-before-header": lambda text: "\n \n\n" + text,
    "trailing-blank-lines": lambda text: text + "\n  \n\n",
    "no-final-newline": lambda text: text.rstrip("\n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "header-case-and-spaces": lambda text: text.replace("theta,phi,rho", " Theta,PHI,rho \t", 1),
    "padded-fields": _pad_fields,
    # longer than the reader's text width; cut to that width it reads as another value
    "long-theta-text": lambda text: _edit_text(text, 5, 0, lambda t: "0" * 10 + t),
    # whitespace numpy skips but cannot store as a bytes field
    "unicode-space-padding": lambda text: _edit_text(text, 5, 0, lambda t: "\u2003" + t),
    "repr-texts": lambda text: "\n".join(
        ",".join([*(repr(float(x)) for x in line.split(",")[:2]), line.split(",")[2]])
        for line in text.splitlines()[1:]
    ).join(["theta,phi,rho\n", "\n"]),
    "two-texts-for-one-theta": lambda text: _edit_text(text, 5, 0, lambda t: t + "0"),
    "two-texts-for-one-phi": lambda text: _edit_text(text, 40, 1, lambda t: t + "0"),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_csv_accepts_layout_variants(tmp_path, case):
    grid = SphereGrid(8, 16)
    rho = bumpy_field(grid)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, rho)
    path.write_bytes(ACCEPTED[case](path.read_text()).encode("utf-8"))
    grid2, rho2 = read_solution_csv(path)
    assert grid2.shape == grid.shape
    assert np.array_equal(rho2, rho)
    assert np.array_equal(reference_read(path)[1], rho)


@pytest.mark.parametrize("shape", [(8, 16), (6, 12), (4, 8)], ids=["8x16", "6x12", "4x8"])
def test_reader_converts_each_lattice_text_once(tmp_path, shape):
    # files from the writer, or printed one line per node with .17g, are
    # read by matching their theta and phi texts to the lattice's nodes
    grid = SphereGrid(*shape)
    rho = bumpy_field(grid)
    written = tmp_path / "written.csv"
    write_solution_csv(written, grid, rho)
    by_line = tmp_path / "by_line.csv"
    by_line.write_text(reference_csv(grid, rho))
    for path in (written, by_line):
        lattice, rho2 = export._lattice_rows(path)
        assert lattice.shape == grid.shape
        assert np.array_equal(lattice.theta, grid.theta)
        assert np.array_equal(lattice.phi, grid.phi)
        assert np.array_equal(rho2, rho)


def test_reader_leaves_other_lattice_texts_to_the_full_parse(tmp_path):
    # other texts of the same values are left to the parse of every value
    grid = SphereGrid(8, 16)
    rho = bumpy_field(grid)
    written = tmp_path / "written.csv"
    write_solution_csv(written, grid, rho)
    text = written.read_text()
    header, *rows = text.splitlines()
    other = {
        "repr-theta": "\n".join(
            [header] + [f"{float(t)!r},{rest}" for t, rest in (r.split(",", 1) for r in rows)]
        ) + "\n",
        "25-byte-theta": _edit_text(text, 5, 0, lambda t: t.zfill(25)),
    }
    assert len(other["25-byte-theta"].split("\n")[5].split(",")[0]) == 25
    for name, body in other.items():
        assert body != text
        path = tmp_path / f"{name}.csv"
        path.write_text(body)
        assert export._lattice_rows(path) is None
        lattice, rho2 = read_solution_csv(path)
        assert lattice.shape == grid.shape
        assert np.array_equal(rho2, rho)

    # two nodes of one ring swapped: every theta text still matches
    lines = text.splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path = tmp_path / "swapped.csv"
    path.write_text("\n".join(lines) + "\n")
    assert export._lattice_rows(path) is None
    with pytest.raises(SolutionFormatError, match="theta-major order"):
        read_solution_csv(path)


# Peak Python-heap bytes of one call, in units of one float64 grid field.
# Measured at 128x256: write_obj 3.5, write_solution_csv 0.3 and
# read_solution_csv 10.0; a writer that formats the whole grid at once
# takes 27-62, a reader that holds every line 23-27.
HEAP_BOUNDS = {"write_obj": 6, "write_solution_csv": 2, "read_solution_csv": 16}


@pytest.mark.parametrize("name", sorted(HEAP_BOUNDS))
def test_io_heap_peak_is_a_few_grid_fields(tmp_path, name):
    grid = SphereGrid(128, 256)
    rho = bumpy_field(grid)
    solution = tmp_path / "solution.csv"
    write_solution_csv(solution, grid, rho)
    calls = {
        "write_obj": lambda: write_obj(tmp_path / "surface.obj", grid, rho),
        "write_solution_csv": lambda: write_solution_csv(tmp_path / "copy.csv", grid, rho),
        "read_solution_csv": lambda: read_solution_csv(solution),
    }
    tracemalloc.start()
    try:
        calls[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= HEAP_BOUNDS[name] * grid.size * 8


def reference_csv(grid, rho):
    """The writer's layout, one formatted line per node."""
    lines = ["theta,phi,rho"]
    for i in range(grid.ntheta):
        for j in range(grid.nphi):
            lines.append(f"{grid.theta[i]:.17g},{grid.phi[j]:.17g},{rho[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def reference_obj(grid, rho):
    """The mesh layout, one formatted line per vertex and per face."""
    d1, d2, d3 = grid.directions()
    xyz = np.stack([rho * d1, rho * d2, rho * d3], axis=-1)
    nt, npj = grid.shape
    points = [xyz[i, j] for i in range(nt) for j in range(npj)]
    points += [xyz[0].mean(axis=0), xyz[-1].mean(axis=0)]
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in points]

    def vid(i, j):
        return i * npj + (j % npj) + 1

    north, south = nt * npj + 1, nt * npj + 2
    for j in range(npj):
        lines.append(f"f {north} {vid(0, j)} {vid(0, j + 1)}")
    for i in range(nt - 1):
        for j in range(npj):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    for j in range(npj):
        lines.append(f"f {south} {vid(nt - 1, j + 1)} {vid(nt - 1, j)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(8, 16), (6, 12)], ids=["8x16", "6x12"])
@pytest.mark.parametrize(
    "write, reference",
    [(write_solution_csv, reference_csv), (write_obj, reference_obj)],
    ids=["csv", "obj"],
)
def test_writers_match_line_by_line_reference(tmp_path, write, reference, shape):
    grid = SphereGrid(*shape)
    rho = bumpy_field(grid)
    path = tmp_path / "out"
    write(path, grid, rho)
    assert path.read_bytes() == reference(grid, rho).encode("utf-8")


def parse_obj(path):
    verts = []
    faces = []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) for x in line.split()[1:]])
    return np.array(verts), faces


def test_obj_counts_and_euler_characteristic(tmp_path):
    grid = SphereGrid(8, 16)
    rho = bumpy_field(grid)
    path = tmp_path / "surface.obj"
    write_obj(path, grid, rho)
    verts, faces = parse_obj(path)
    nt, npj = grid.shape
    assert verts.shape == (nt * npj + 2, 3)
    assert len(faces) == 2 * nt * npj
    assert all(len(f) == 3 for f in faces)
    edges = set()
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(a, b), max(a, b)))
    v, e, fcount = verts.shape[0], len(edges), len(faces)
    assert v - e + fcount == 2


def test_obj_is_a_closed_manifold(tmp_path):
    grid = SphereGrid(8, 16)
    path = tmp_path / "surface.obj"
    write_obj(path, grid, bumpy_field(grid))
    _, faces = parse_obj(path)
    # every undirected edge is used by exactly two triangles, and the
    # two uses traverse it in opposite directions (consistent orientation)
    directed = {}
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            directed[(a, b)] = directed.get((a, b), 0) + 1
    for (a, b), count in directed.items():
        assert count == 1
        assert directed.get((b, a), 0) == 1


def test_obj_faces_point_outward(tmp_path):
    # for a star-shaped surface every face normal has positive dot
    # product with the face centroid
    grid = SphereGrid(8, 16)
    path = tmp_path / "surface.obj"
    write_obj(path, grid, bumpy_field(grid))
    verts, faces = parse_obj(path)
    for f in faces:
        a, b, c = (verts[i - 1] for i in f)
        normal = np.cross(b - a, c - a)
        centroid = (a + b + c) / 3.0
        assert np.dot(normal, centroid) > 0.0


def test_obj_vertices_match_solution(tmp_path):
    grid = SphereGrid(8, 16)
    rho = bumpy_field(grid)
    path = tmp_path / "surface.obj"
    write_obj(path, grid, rho)
    verts, _ = parse_obj(path)
    radii = np.linalg.norm(verts[: grid.size], axis=1)
    assert np.allclose(radii, rho.ravel(), rtol=1e-15, atol=1e-14)


def small_benchmark():
    return ProblemSpec(
        r1=1.0, r2=4.0,
        alphas=("(0.6 - 0.05*rho)/rho^2", "0.25/rho"), phi="2.5/rho",
        grid=SphereGrid(8, 16),
    )


def test_report_files_are_valid_json(tmp_path):
    spec = small_benchmark()
    hyp = check_hypotheses(spec)
    hyp_path = tmp_path / "hypothesis_report.json"
    write_hypothesis_report(hyp_path, hyp)
    data = json.loads(hyp_path.read_text())
    assert data["passed"] is True

    rho, report = continue_to_one(spec)
    solve_path = tmp_path / "solve_report.json"
    write_solve_report(solve_path, report)
    data = json.loads(solve_path.read_text())
    assert data["reached_t1"] is True
    assert data["steps"][-1]["t"] == 1.0


class FixedReport:
    def __init__(self, data):
        self.data = data

    def as_dict(self):
        return self.data


def test_reports_name_non_finite_numbers_and_keep_finite_ones_as_dumped(tmp_path):
    def refuse(token):
        raise ValueError(f"{token} is not RFC 8259 JSON")

    finite = {"passed": True, "checks": {"a": {"margin": -1.5e-17, "location": {"rho": 4.0}}},
              "steps": [{"t": 1.0, "norms": [0.5, 1e-300]}]}
    path = tmp_path / "report.json"
    write_report(path, FixedReport(finite))
    assert path.read_text() == json.dumps(finite, indent=2) + "\n"

    odd = {"margin": -np.inf, "norms": [np.float64("inf"), float("nan"), 2.0],
           "pair": (1.0, -np.inf)}
    write_report(path, FixedReport(odd))
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "margin": "-inf", "norms": ["inf", "nan", 2.0], "pair": [1.0, "-inf"]}
