import io
import tempfile
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pdswave.assembly import build_dof_map
from pdswave.cli import main
from pdswave.errors import ParseError, PeriodicityViolation
from pdswave.mesh_io import (_write_rows, export_mesh, import_mesh, read_ele_file,
                             read_node_file, write_ele_file, write_node_file,
                             write_vtk_mesh)
from pdswave.meshing import TetMesh, generate_mesh, validate_mesh


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


@pytest.mark.parametrize("n, swapped", [(1, False), (2, False), (3, False), (1, True)],
                         ids=["n1", "n2", "n3", "n1-swapped"])
def test_import_report_is_validate_mesh_of_the_imported_mesh(the_domain, tmp_path, n,
                                                            swapped):
    # the report built from the import's own determinants and triangle counts
    # is validate_mesh's on the mesh it returns, every float to the last bit,
    # but for the two fields that describe the tets as read; swapped is the
    # file of test_validate_reports_the_tets_as_read, every tet mirrored
    mesh = generate_mesh(the_domain, n, n)
    write_node_file(tmp_path / "m.node", mesh.vertices)
    write_ele_file(tmp_path / "m.ele", mesh.tets[:, [0, 1, 3, 2]] if swapped else mesh.tets)
    back, rep = import_mesh(the_domain, tmp_path / "m.node", tmp_path / "m.ele", tol=1e-6)
    ref = validate_mesh(the_domain, back, tol=1e-6)
    as_read = {"all_volumes_positive", "reoriented_tets"}
    assert set(rep) == set(ref) | as_read
    assert ({k: repr(v) for k, v in rep.items() if k not in as_read}
            == {k: repr(v) for k, v in ref.items() if k not in as_read})
    assert rep["reoriented_tets"] == (len(mesh.tets) if swapped else 0)
    assert rep["all_volumes_positive"] is not swapped
    _, none = import_mesh(the_domain, tmp_path / "m.node", tmp_path / "m.ele",
                          validate=False)
    assert none is None


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
    # the same partition of the vertices: old and new dofs pair up one to one
    pairs = np.unique(np.column_stack([dof_map.node_to_dof, dm.node_to_dof[perm]]), axis=0)
    assert len(pairs) == dof_map.n_dofs


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


# -- bulk writers against per-value f-string references -----------------------------

EXTREMES = [-0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1, -2.5, 1 / 3, 123456789.0]


def _ref_node(vertices):
    out = f"# {len(vertices)} vertices, written by pdswave\n{len(vertices)} 3 0 0\n"
    for i, (x, y, z) in enumerate(vertices, start=1):
        out += f"{i} {x:.17g} {y:.17g} {z:.17g}\n"
    return out


def _ref_ele(tets):
    out = f"# {len(tets)} tetrahedra, written by pdswave\n{len(tets)} 4 0\n"
    for i, (a, b, c, d) in enumerate(tets + 1, start=1):
        out += f"{i} {a} {b} {c} {d}\n"
    return out


def _ref_vtk(vertices, tets, values):
    out = ("# vtk DataFile Version 2.0\npdswave mesh\nASCII\n"
           f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(vertices)} double\n")
    for x, y, z in vertices:
        out += f"{x:.17g} {y:.17g} {z:.17g}\n"
    out += f"CELLS {len(tets)} {5 * len(tets)}\n"
    for t in tets:
        out += f"4 {t[0]} {t[1]} {t[2]} {t[3]}\n"
    out += f"CELL_TYPES {len(tets)}\n" + "\n".join(["10"] * len(tets)) + "\n"
    out += f"POINT_DATA {len(vertices)}\nSCALARS u double 1\nLOOKUP_TABLE default\n"
    return out + "\n".join(f"{v:.17g}" for v in values) + "\n"


@pytest.fixture
def odd_values(mesh22):
    rng = np.random.default_rng(0)
    v = mesh22.vertices * rng.uniform(0.5, 1.5, mesh22.vertices.shape)
    v.flat[:len(EXTREMES)] = EXTREMES
    u = rng.standard_normal(len(v)) * 10.0 ** rng.integers(-300, 300, len(v))
    u[:len(EXTREMES)] = EXTREMES
    return v, u


def test_node_and_ele_writers_match_reference(mesh22, odd_values, tmp_path):
    vertices, _ = odd_values
    write_node_file(tmp_path / "m.node", vertices)
    write_ele_file(tmp_path / "m.ele", mesh22.tets)
    assert (tmp_path / "m.node").read_text() == _ref_node(vertices)
    assert (tmp_path / "m.ele").read_text() == _ref_ele(mesh22.tets)
    assert (tmp_path / "m.ele").read_text().splitlines()[2].startswith("1 ")


def test_vtk_writer_matches_reference(mesh22, odd_values, tmp_path):
    vertices, u = odd_values
    mesh = TetMesh(vertices=vertices, tets=mesh22.tets,
                   boundary_tris=mesh22.boundary_tris, periodic=mesh22.periodic)
    write_vtk_mesh(tmp_path / "m.vtk", mesh, {"u": u})
    assert (tmp_path / "m.vtk").read_text() == _ref_vtk(vertices, mesh22.tets, u)


def test_rows_written_in_blocks(monkeypatch):
    import pdswave.mesh_io as mesh_io
    monkeypatch.setattr(mesh_io, "_BLOCK_ROWS", 3)
    ids, vals = np.arange(10), np.linspace(-1.0, 1.0, 20).reshape(10, 2)
    fh = io.StringIO()
    _write_rows(fh, "%d:%.17g,%.17g\n", ids, vals)
    assert fh.getvalue() == "".join(f"{i}:{a:.17g},{b:.17g}\n" for i, (a, b) in zip(ids, vals))


@pytest.mark.parametrize("name,bound", [pytest.param("export_mesh", 70, id="export_mesh"),
                                        pytest.param("write_vtk_mesh", 20, id="write_vtk_mesh")])
def test_writer_peak_memory_per_tet(mesh88, tmp_path, name, bound):
    # 84,480 tets are over twenty blocks of rows: a writer holds one block of
    # Python scalars and its text, plus the ids and 1-based tets of the .ele
    # file; the bounds are about 1.15 times the peaks traced at n = L = 8
    # (61 and 17 B/tet)
    import pdswave.mesh_io as mesh_io
    assert len(mesh88.tets) > 20 * mesh_io._BLOCK_ROWS
    u = np.linspace(-1.0, 1.0, len(mesh88.vertices))
    run = {"export_mesh": lambda: export_mesh(mesh88, tmp_path / "m.node", tmp_path / "m.ele"),
           "write_vtk_mesh": lambda: write_vtk_mesh(tmp_path / "m.vtk", mesh88, {"u": u})}[name]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(mesh88.tets)


# -- readers ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(vertices=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                           elements=st.floats(allow_nan=False)),
       data=st.data())
def test_write_read_round_trip(vertices, data):
    n = len(vertices)
    tets = data.draw(hnp.arrays(np.int64, st.tuples(st.integers(1, 30), st.just(4)),
                                elements=st.integers(0, n - 1)))
    tets[0, 0] = 0                     # the base is read off the smallest index
    with tempfile.TemporaryDirectory() as d:
        write_node_file(Path(d) / "r.node", vertices)
        write_ele_file(Path(d) / "r.ele", tets)
        back_v = read_node_file(Path(d) / "r.node")
        back_t = read_ele_file(Path(d) / "r.ele", n)
    assert back_v.dtype == np.float64 and back_v.tobytes() == vertices.tobytes()
    assert back_t.dtype == np.int64 and np.array_equal(back_t, tets)


@pytest.mark.parametrize("row", [
    "2 0.1 0",                           # short row
    "2.0 0.1 0 0",                       # non-integer id
    "x 0.1 0 0",
    "2 0.1 zero 0",                      # non-numeric coordinate
])
def test_malformed_node_row_rejected(tmp_path, row):
    path = tmp_path / "bad.node"
    path.write_text(f"2 3 0 0\n1 0 0 0\n{row}\n")
    with pytest.raises(ParseError, match="malformed node line"):
        read_node_file(path)


@pytest.mark.parametrize("row", [
    "2 1 2 3",                           # short row
    "2.5 1 2 3 4",                       # non-integer id
    "2 1 2 3 four",                      # non-integer vertex
    "2 1 2 3 4.0",
])
def test_malformed_ele_row_rejected(tmp_path, row):
    path = tmp_path / "bad.ele"
    path.write_text(f"2 4 0\n1 1 2 3 4\n{row}\n")
    with pytest.raises(ParseError, match="malformed tet line"):
        read_ele_file(path, node_count=4)


def test_extra_attribute_columns_accepted(tmp_path):
    (tmp_path / "a.node").write_text("2 3 1 1\n1 0 0 0 7.5 1\n2 0.1 0.2 0.3 -1 0 # c\n")
    (tmp_path / "a.ele").write_text("1 4 1\n1 1 2 2 1 42\n")
    assert np.array_equal(read_node_file(tmp_path / "a.node"), [[0, 0, 0], [0.1, 0.2, 0.3]])
    assert np.array_equal(read_ele_file(tmp_path / "a.ele", 2), [[0, 1, 1, 0]])


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        read_node_file(tmp_path / "none.node")
