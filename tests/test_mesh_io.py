import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdswave.assembly import build_dof_map
from pdswave.cli import main
from pdswave.errors import ParseError, PeriodicityViolation
from pdswave.mesh_io import (export_mesh, import_mesh, read_ele_file, read_node_file,
                             write_ele_file, write_node_file, write_vtk_mesh)
from pdswave.meshing import generate_mesh, validate_mesh


def test_round_trip_exact(the_domain, mesh22, tmp_path):
    export_mesh(mesh22, tmp_path / "m.node", tmp_path / "m.ele")
    back, _ = import_mesh(the_domain, tmp_path / "m.node", tmp_path / "m.ele")
    assert np.array_equal(back.vertices, mesh22.vertices)
    key = lambda t: np.sort(np.sort(t, axis=1), axis=0)
    assert np.array_equal(key(back.tets), key(mesh22.tets))


def test_import_reproduces_validation_metrics(the_domain, mesh22, tmp_path):
    export_mesh(mesh22, tmp_path / "m.node", tmp_path / "m.ele")
    _, rep = import_mesh(the_domain, tmp_path / "m.node", tmp_path / "m.ele")
    ref = validate_mesh(the_domain, mesh22)
    for k in ("volume_sum", "periodic_pairs", "tet_count",
              "boundary_edge_min", "boundary_edge_max"):
        assert rep[k] == ref[k]


def test_import_recovers_node_face_sets(the_domain, mesh22, tmp_path):
    export_mesh(mesh22, tmp_path / "m.node", tmp_path / "m.ele")
    back, _ = import_mesh(the_domain, tmp_path / "m.node", tmp_path / "m.ele")
    assert np.array_equal(back.periodic[:, :2], mesh22.periodic[:, :2])


def test_perturbed_vertex_rejected(the_domain, mesh22, tmp_path):
    v = mesh22.vertices.copy()
    node = mesh22.boundary_nodes[5]
    v[node] *= 1.0 - 1e-3 / np.linalg.norm(v[node])   # pull inward by 1e-3
    write_node_file(tmp_path / "b.node", v)
    write_ele_file(tmp_path / "b.ele", mesh22.tets)
    with pytest.raises(PeriodicityViolation):
        import_mesh(the_domain, tmp_path / "b.node", tmp_path / "b.ele", tol=1e-6)


def test_unused_vertex_rejected(the_domain, mesh22, tmp_path):
    extra = len(mesh22.vertices)
    write_node_file(tmp_path / "u.node", np.vstack([mesh22.vertices, [[0.01, 0.02, 0.03]]]))
    write_ele_file(tmp_path / "u.ele", mesh22.tets)
    with pytest.raises(ParseError, match=f"vertex {extra} .*used by no tet"):
        import_mesh(the_domain, tmp_path / "u.node", tmp_path / "u.ele")
    assert main(["validate", "--import-node", str(tmp_path / "u.node"),
                 "--import-ele", str(tmp_path / "u.ele")]) == 2


@lru_cache(maxsize=None)
def _generated(domain, n, layers):
    mesh = generate_mesh(domain, n, layers)
    return mesh, build_dof_map(mesh)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3), layers=st.integers(1, 3), base=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_import_under_renumbering(the_domain, n, layers, base, seed):
    mesh, dof_map = _generated(the_domain, n, layers)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(mesh.vertices))           # old vertex id -> new id
    tets = perm[mesh.tets[rng.permutation(len(mesh.tets))]]
    tets = np.take_along_axis(tets, rng.permuted(np.tile(np.arange(4), (len(tets), 1)),
                                                 axis=1), axis=1)
    with tempfile.TemporaryDirectory() as d:
        node_path, ele_path = Path(d) / "p.node", Path(d) / "p.ele"
        with open(node_path, "w") as fh:
            fh.write(f"{len(perm)} 3 0 0\n")
            for new, (x, y, z) in zip(perm + base, mesh.vertices):
                fh.write(f"{new} {x:.17g} {y:.17g} {z:.17g}\n")
        with open(ele_path, "w") as fh:
            fh.write(f"{len(tets)} 4 0\n")
            for k, t in enumerate(tets + base):
                fh.write(f"{k + base} {t[0]} {t[1]} {t[2]} {t[3]}\n")
        back, _ = import_mesh(the_domain, node_path, ele_path)
    rows = mesh.periodic.copy()
    rows[:, [0, 2]] = perm[rows[:, [0, 2]]]
    assert np.array_equal(back.periodic, rows[np.lexsort((rows[:, 1], rows[:, 0]))])
    dm = build_dof_map(back)
    assert dm.n_dofs == dof_map.n_dofs
    assert sorted(map(len, dm.classes)) == sorted(map(len, dof_map.classes))


def test_non_conforming_ele_rejected(the_domain, mesh22, triple_face_tets, tmp_path):
    write_node_file(tmp_path / "t.node", mesh22.vertices)
    write_ele_file(tmp_path / "t.ele", triple_face_tets)
    with pytest.raises(ParseError, match="not conforming"):
        import_mesh(the_domain, tmp_path / "t.node", tmp_path / "t.ele")


def test_zero_based_files_accepted(the_domain, mesh22, tmp_path):
    with open(tmp_path / "z.node", "w") as fh:
        fh.write(f"{len(mesh22.vertices)} 3 0 0\n")
        for i, p in enumerate(mesh22.vertices):
            fh.write(f"{i} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
    with open(tmp_path / "z.ele", "w") as fh:
        fh.write(f"{len(mesh22.tets)} 4 0\n")
        for i, t in enumerate(mesh22.tets):
            fh.write(f"{i} {t[0]} {t[1]} {t[2]} {t[3]}\n")
    back, _ = import_mesh(the_domain, tmp_path / "z.node", tmp_path / "z.ele")
    assert np.array_equal(back.vertices, mesh22.vertices)


@pytest.mark.parametrize("content", [
    "",                                  # empty
    "abc 3 0 0\n",                       # non-numeric header
    "2 3 0 0\n1 0 0 0\n",                # count mismatch
    "1 2 0 0\n1 0 0\n",                  # wrong dimension
    "2 3 0 0\n1 0 0 0\n5 0.1 0 0\n",     # non-consecutive indices
])
def test_node_parse_errors(tmp_path, content):
    path = tmp_path / "bad.node"
    path.write_text(content)
    with pytest.raises(ParseError):
        read_node_file(path)


def test_ele_parse_errors(tmp_path):
    (tmp_path / "bad.ele").write_text("1 4 0\n1 1 2 3 9\n")
    with pytest.raises(ParseError):
        read_ele_file(tmp_path / "bad.ele", node_count=4)


def test_comments_ignored(tmp_path):
    (tmp_path / "c.node").write_text(
        "# header comment\n4 3 0 0\n1 0 0 0  # origin\n2 0.1 0 0\n3 0 0.1 0\n4 0 0 0.1\n")
    pts = read_node_file(tmp_path / "c.node")
    assert pts.shape == (4, 3)


def test_vtk_writer_structure(mesh22, tmp_path):
    path = tmp_path / "m.vtk"
    write_vtk_mesh(path, mesh22, {"u": np.arange(len(mesh22.vertices), dtype=float)})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines[2]
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {len(mesh22.vertices)} double"
    idx = lines.index(f"CELLS {len(mesh22.tets)} {5 * len(mesh22.tets)}")
    assert lines[idx + 1].startswith("4 ")
    assert f"POINT_DATA {len(mesh22.vertices)}" in lines
    assert "SCALARS u double 1" in lines
