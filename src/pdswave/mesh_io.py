"""Tetgen-style .node/.ele files, VTK legacy export, and mesh import.

Import rebuilds everything the solver needs from the two text files:
boundary extraction, face assignment by nearest ellipsoid, and discovery of
the periodic partners.  A mesh whose boundary does not close up under the
face identifications is rejected, since it cannot support the identified
degree-of-freedom map.
"""

from __future__ import annotations

import numpy as np

from .domain import FundamentalDomain
from .errors import ParseError, PeriodicityViolation
from .meshing import TetMesh, face_counts, orient_tets, periodic_pairs, validate_mesh


def write_node_file(path, vertices: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {len(vertices)} vertices, written by pdswave\n")
        fh.write(f"{len(vertices)} 3 0 0\n")
        for i, (x, y, z) in enumerate(vertices, start=1):
            fh.write(f"{i} {x:.17g} {y:.17g} {z:.17g}\n")


def write_ele_file(path, tets: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {len(tets)} tetrahedra, written by pdswave\n")
        fh.write(f"{len(tets)} 4 0\n")
        for i, (a, b, c, d) in enumerate(tets + 1, start=1):
            fh.write(f"{i} {a} {b} {c} {d}\n")


def export_mesh(mesh: TetMesh, node_path, ele_path) -> None:
    write_node_file(node_path, mesh.vertices)
    write_ele_file(ele_path, mesh.tets)


def _data_lines(path):
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    out = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(body.split())
    return out


def read_node_file(path) -> np.ndarray:
    rows = _data_lines(path)
    if not rows:
        raise ParseError(f"{path}: empty node file")
    try:
        count, dim = int(rows[0][0]), int(rows[0][1])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed header {rows[0]}") from exc
    if dim != 3:
        raise ParseError(f"{path}: dimension {dim} != 3")
    if len(rows) - 1 != count:
        raise ParseError(f"{path}: header says {count} nodes, file has {len(rows) - 1}")
    try:
        idx = np.array([int(r[0]) for r in rows[1:]])
        pts = np.array([[float(r[1]), float(r[2]), float(r[3])] for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed node line") from exc
    base = idx.min()
    if base not in (0, 1) or not np.array_equal(np.sort(idx), np.arange(base, base + count)):
        raise ParseError(f"{path}: node indices are not consecutive from 0 or 1")
    return pts[np.argsort(idx)]


def read_ele_file(path, node_count: int) -> np.ndarray:
    rows = _data_lines(path)
    if not rows:
        raise ParseError(f"{path}: empty ele file")
    try:
        count, per = int(rows[0][0]), int(rows[0][1])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed header {rows[0]}") from exc
    if per != 4:
        raise ParseError(f"{path}: {per} nodes per tet, expected 4")
    if len(rows) - 1 != count:
        raise ParseError(f"{path}: header says {count} tets, file has {len(rows) - 1}")
    try:
        body = np.array([[int(v) for v in r[:5]] for r in rows[1:]])
    except ValueError as exc:
        raise ParseError(f"{path}: malformed element line") from exc
    tets = body[np.argsort(body[:, 0]), 1:]
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
    if not domain.contains_many(vertices, tol=10 * tol).all():
        raise PeriodicityViolation("mesh has vertices outside the fundamental domain")

    tets, vols = orient_tets(vertices, tets)

    uniq, counts = face_counts(tets)
    if counts.max() > 2:
        raise ParseError("mesh is not conforming: a triangle is shared by >2 tets")
    boundary_tris = uniq[counts == 1]

    # assign each boundary triangle to the face with the smallest lifted
    # hyperplane residual over its three vertices; each ellipsoid carries two
    # opposite faces, and the signed residual is zero only on the right one
    tri_res = np.abs(domain.face_residuals(vertices)[boundary_tris]).max(axis=1)
    boundary_faces = tri_res.argmin(axis=1) + 1
    if tri_res.min(axis=1).max() > 10 * tol:
        bad = int(tri_res.min(axis=1).argmax())
        raise PeriodicityViolation(
            f"boundary triangle {bad} lies on no face (residual {tri_res.min(axis=1)[bad]:.2e})")

    mesh = TetMesh(vertices=vertices, tets=tets,
                   boundary_tris=boundary_tris, boundary_faces=boundary_faces,
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
        for x, y, z in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        fh.write(f"CELLS {len(mesh.tets)} {5 * len(mesh.tets)}\n")
        for t in mesh.tets:
            fh.write(f"4 {t[0]} {t[1]} {t[2]} {t[3]}\n")
        fh.write(f"CELL_TYPES {len(mesh.tets)}\n")
        fh.write("\n".join(["10"] * len(mesh.tets)) + "\n")
        if point_data:
            fh.write(f"POINT_DATA {len(mesh.vertices)}\n")
            for name, values in point_data.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                fh.write("\n".join(f"{v:.17g}" for v in values) + "\n")
