"""Tetgen-style .node/.ele files, VTK legacy export, and mesh import.

Import rebuilds everything the solver needs from the two text files:
boundary extraction, face assignment by nearest ellipsoid, and discovery of
the periodic partners.  A mesh whose boundary does not close up under the
face identifications is rejected, since it cannot support the identified
degree-of-freedom map.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .domain import FundamentalDomain
from .errors import ParseError, PeriodicityViolation
from .meshing import (TetMesh, _face_keys, _key_rows, orient_tets, periodic_pairs,
                      validate_mesh)


# rows formatted per %-operation: beyond its arrays, a writer holds one block
# of rows as Python scalars and text, a few hundred bytes per row, so at
# n = L = 8 a block takes less memory than the mesh's own arrays
_BLOCK_ROWS = 4096
_NODE_ROW = np.dtype([("id", np.int64), ("xyz", np.float64, (3,))])
_ELE_ROW = np.dtype([("id", np.int64), ("nodes", np.int64, (4,))])


def _write_rows(fh, row_format: str, *columns) -> None:
    """Write `row_format % row` for every row of the columns side by side.

    Each column is 1-D, or 2-D with one row per line.  A block of rows is
    formatted by one %-operation over its cells as Python scalars, which
    gives the same text as f-string formatting of each value.
    """
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    for start in range(0, len(cols[0]), _BLOCK_ROWS):
        cells = np.hstack([c[start:start + _BLOCK_ROWS].astype(object) for c in cols])
        fh.write((row_format * len(cells)) % tuple(cells.ravel().tolist()))


def _read_table(path, row_dtype, delimiter=None) -> tuple[list, np.ndarray | None]:
    """Header fields and data rows of a text table.

    The first line with anything besides a `#` comment is the header; every
    later non-blank line is a row, parsed by `np.loadtxt` into the structured
    `row_dtype` (or into `row_dtype(header)` if it is callable).  Only the
    leading columns the dtype holds are read, so rows may carry more; a
    shorter row, or a cell that does not parse as its field's type, raises
    ValueError.  A file with no header gives ([], None).
    """
    with open(path) as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if body:
                header = body.split(delimiter)
                break
        else:
            return [], None
        dtype = np.dtype(row_dtype(header) if callable(row_dtype) else row_dtype)
        width = sum(math.prod(dtype[name].shape) for name in dtype.names)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, dtype=dtype, delimiter=delimiter, comments="#",
                              usecols=range(width), ndmin=1)
    return header, rows


def write_node_file(path, vertices: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {len(vertices)} vertices, written by pdswave\n")
        fh.write(f"{len(vertices)} 3 0 0\n")
        _write_rows(fh, "%d %.17g %.17g %.17g\n",
                    np.arange(1, len(vertices) + 1), vertices)


def write_ele_file(path, tets: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {len(tets)} tetrahedra, written by pdswave\n")
        fh.write(f"{len(tets)} 4 0\n")
        _write_rows(fh, "%d %d %d %d %d\n", np.arange(1, len(tets) + 1), tets + 1)


def export_mesh(mesh: TetMesh, node_path, ele_path) -> None:
    write_node_file(node_path, mesh.vertices)
    write_ele_file(ele_path, mesh.tets)


def _read_mesh_table(path, row_dtype, what: str, per: int):
    """Rows of a .node (per = 3) or .ele (per = 4) file, checked against its header."""
    try:
        header, rows = _read_table(path, row_dtype)
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    except ValueError as exc:
        raise ParseError(f"{path}: malformed {what} line: {exc}") from exc
    if not header:
        raise ParseError(f"{path}: empty {what} file")
    try:
        count, width = int(header[0]), int(header[1])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed header {header}") from exc
    if width != per:
        raise ParseError(f"{path}: {width} values per {what}, expected {per}")
    if len(rows) != count:
        raise ParseError(f"{path}: header says {count} {what}s, file has {len(rows)}")
    if count == 0:
        raise ParseError(f"{path}: no {what}s")
    return rows


def read_node_file(path) -> np.ndarray:
    rows = _read_mesh_table(path, _NODE_ROW, "node", 3)
    idx = rows["id"]
    base = idx.min()
    if base not in (0, 1) or not np.array_equal(np.sort(idx), np.arange(base, base + len(idx))):
        raise ParseError(f"{path}: node indices are not consecutive from 0 or 1")
    return rows["xyz"][np.argsort(idx)]


def read_ele_file(path, node_count: int) -> np.ndarray:
    rows = _read_mesh_table(path, _ELE_ROW, "tet", 4)
    tets = rows["nodes"][np.argsort(rows["id"])]
    base = tets.min()
    if base not in (0, 1):
        raise ParseError(f"{path}: vertex indices start at {base}")
    tets = tets - base
    if tets.max() >= node_count:
        raise ParseError(f"{path}: vertex index {tets.max() + base} out of range")
    return tets


def import_mesh(domain: FundamentalDomain, node_path, ele_path,
                tol: float = 1e-6) -> tuple[TetMesh, dict]:
    """Read, orient, tag and periodicity-check a mesh; returns (mesh, report)."""
    vertices = read_node_file(node_path)
    tets = read_ele_file(ele_path, len(vertices))
    unused = np.setdiff1d(np.arange(len(vertices)), tets)
    if len(unused):
        raise ParseError(f"{node_path}: vertex {unused[0]} (0-based) is used by no tet")

    if np.einsum("ij,ij->i", vertices, vertices).max() >= 1.0:
        raise PeriodicityViolation("mesh has vertices outside the unit ball")
    if not domain.contains(vertices, tol=10 * tol).all():
        raise PeriodicityViolation("mesh has vertices outside the fundamental domain")

    tets, vols = orient_tets(vertices, tets)

    keys, counts, nv = _face_keys(tets)
    if counts.max() > 2:
        raise ParseError("mesh is not conforming: a triangle is shared by >2 tets")
    boundary_tris = _key_rows(keys[counts == 1], nv)
    del keys, counts

    # assign each boundary triangle to the face with the smallest lifted
    # hyperplane residual over its three vertices; each ellipsoid carries two
    # opposite faces, and the signed residual is zero only on the right one
    tri_res = np.abs(domain.face_residuals(vertices)[boundary_tris]).max(axis=1)
    boundary_faces = tri_res.argmin(axis=1) + 1
    if tri_res.min(axis=1).max() > 10 * tol:
        bad = int(tri_res.min(axis=1).argmax())
        raise PeriodicityViolation(
            f"boundary triangle {bad} lies on no face (residual {tri_res.min(axis=1)[bad]:.2e})")

    mesh = TetMesh(vertices=vertices, tets=tets, boundary_tris=boundary_tris,
                   periodic=periodic_pairs(domain, vertices, boundary_tris,
                                           boundary_faces, tol))
    report = validate_mesh(domain, mesh, tol=tol)
    report["reoriented_tets"] = int((vols < 0).sum())
    return mesh, report


def write_vtk_mesh(path, mesh: TetMesh, point_data: dict | None = None) -> None:
    """Legacy ASCII VTK UNSTRUCTURED_GRID with optional point scalars."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("pdswave mesh\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.vertices)} double\n")
        _write_rows(fh, "%.17g %.17g %.17g\n", mesh.vertices)
        fh.write(f"CELLS {len(mesh.tets)} {5 * len(mesh.tets)}\n")
        _write_rows(fh, "4 %d %d %d %d\n", mesh.tets)
        fh.write(f"CELL_TYPES {len(mesh.tets)}\n")
        fh.write("10\n" * len(mesh.tets))
        if point_data:
            fh.write(f"POINT_DATA {len(mesh.vertices)}\n")
            for name, values in point_data.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                _write_rows(fh, "%.17g\n", values)
