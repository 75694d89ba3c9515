import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from pdswave.assembly import (DofMap, SparseSymMatrix, _canonical_order, assemble,
                              build_dof_map, element_matrices, estimate_spectral_bound)
import pdswave.meshing as meshing
from pdswave.errors import ClassSizeError, NoConvergence
from pdswave.meshing import (EXACT_DOMAIN_VOLUME, generate_mesh, orient_tets,
                             signed_tet_volumes, validate_mesh, weighted_volume)
from pdswave.quadrature import QUADRATURE


@pytest.fixture(scope="module")
def mesh11(the_domain):
    return generate_mesh(the_domain, 1, 1)


@pytest.fixture(scope="module")
def ops11(mesh11):
    dof_map = build_dof_map(mesh11)
    return dof_map, assemble(mesh11, dof_map)


@pytest.fixture(scope="module")
def mesh44(the_domain):
    return generate_mesh(the_domain, 4, 4)


@pytest.fixture(scope="module")
def ops44(mesh44):
    dof_map = build_dof_map(mesh44)
    return dof_map, assemble(mesh44, dof_map)


class TestDofMap:
    def test_formula_example(self):
        dm = DofMap(node_to_dof=np.zeros(1, dtype=int), dof_to_node=np.zeros(41, dtype=int),
                    n_interior=10, n_edge_nodes=60, n_face_nodes=12,
                    n_corner_classes=5)
        # 10 * 2 + 6 * 1 + 10 + 5
        assert dm.formula_count() == 41

    def test_twenty_corners_collapse_to_five(self, mesh11):
        dm = build_dof_map(mesh11)
        assert dm.n_corner_classes == 5
        assert dm.n_dofs == 12      # 1 interior + 6 face pairs + 5 corners

    def test_minimal_mesh_classes_all_size_four_or_two(self, mesh11):
        dm = build_dof_map(mesh11)
        assert boundary_class_sizes(mesh11, dm).tolist() == [2] * 6 + [4] * 5

    def test_members_of_class_share_dof(self, mesh44):
        dm = build_dof_map(mesh44)
        node, _, partner = mesh44.periodic.T
        assert np.array_equal(dm.node_to_dof[node], dm.node_to_dof[partner])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3), layers=st.integers(1, 3))
    @example(n=2, layers=1)
    @example(n=2, layers=2)
    @example(n=3, layers=2)
    def test_formula_holds_on_generated_meshes(self, the_domain, n, layers):
        mesh = generate_mesh(the_domain, n, layers)
        dm = build_dof_map(mesh)
        surface = len(mesh.boundary_nodes)
        assert dm.per_edge_count == n - 1
        assert dm.per_face_count == 1 + 5 * n * (n - 1) / 2
        assert dm.n_corner_classes == 5
        assert dm.n_interior == 1 + (layers - 1) * surface
        assert dm.n_dofs == dm.formula_count()

    def test_broken_partner_graph_detected(self, mesh11):
        # isolate one boundary node completely: its class shrinks to size 1
        victim = mesh11.periodic[0, 0]
        rows = mesh11.periodic
        broken = rows[(rows[:, 0] != victim) & (rows[:, 2] != victim)]
        import dataclasses
        bad = dataclasses.replace(mesh11, periodic=broken)
        with pytest.raises(ClassSizeError):
            build_dof_map(bad)


def boundary_class_sizes(mesh, dof_map):
    """Sorted member counts of the boundary classes, from `node_to_dof`."""
    counts = np.bincount(dof_map.node_to_dof[mesh.boundary_nodes])
    return np.sort(counts[counts > 0])


def dense_reference_assembly(mesh, dof_map):
    """Straightforwardly coded dense assembly used as an oracle."""
    n = dof_map.n_dofs
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    radial = np.zeros((n, n))
    for tet in mesh.tets:
        v = mesh.vertices[tet]
        e = (v[1:] - v[0]).T          # columns are the edge vectors
        det = abs(np.linalg.det(e))
        grads = np.zeros((4, 3))
        grads[1:] = np.linalg.inv(e)  # rows are the barycentric gradients
        grads[0] = -grads[1:].sum(axis=0)
        dofs = dof_map.node_to_dof[tet]
        for lam, wq in zip(QUADRATURE.points, QUADRATURE.weights):
            x = lam @ v
            w = 1.0 / math.sqrt(1.0 - x @ x)
            for a in range(4):
                for b in range(4):
                    ia, ib = dofs[a], dofs[b]
                    mass[ia, ib] += det * wq * w * lam[a] * lam[b]
                    stiff[ia, ib] += det * wq * w * (grads[a] @ grads[b])
                    radial[ia, ib] -= det * wq * w * (x @ grads[a]) * (x @ grads[b])
    return mass, stiff, radial


def lower_triplets(mesh, dof_map):
    """Rows, cols and the mass, stiffness and radial values of every element
    entry (t, a, b) on or below the diagonal, in (t, a, b) order over the
    tets sorted by their sorted vertex ids."""
    key = np.sort(mesh.tets, axis=1)
    tets = mesh.tets[np.lexsort(key.T[::-1])]
    dof = dof_map.node_to_dof[tets]
    lower = dof[:, :, None] >= dof[:, None, :]
    rows = np.broadcast_to(dof[:, :, None], lower.shape)[lower]
    cols = np.broadcast_to(dof[:, None, :], lower.shape)[lower]
    return rows, cols, [loc[lower] for loc in element_matrices(mesh.vertices[tets])]


class TestFromTriplets:
    def test_sums_duplicates_and_drops_upper_triangle(self):
        rows = [2, 0, 2, 1, 0, 2, 1]
        cols = [0, 0, 0, 2, 1, 2, 0]
        vals = [1.0, 4.0, 2.0, 9.0, 9.0, 5.0, 3.0]
        mat = SparseSymMatrix.from_triplets(3, rows, cols, vals)
        # (1, 2) and (0, 1) lie above the diagonal and are dropped
        expected = np.array([[4.0, 3.0, 3.0],
                             [3.0, 0.0, 0.0],
                             [3.0, 0.0, 5.0]])
        assert np.array_equal(mat.to_dense(), expected)
        assert mat.nnz_lower == 4
        assert mat.lower.has_sorted_indices
        for i in range(mat.n):
            row = mat.lower.indices[mat.lower.indptr[i]:mat.lower.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_duplicates_summed_from_zero_in_triplet_order(self):
        # magnitudes over 16 decades make the sum depend on its order
        rng = np.random.default_rng(5)
        m = 400
        rows = rng.integers(0, 4, m)
        cols = rng.integers(0, 4, m)
        vals = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
        mat = SparseSymMatrix.from_triplets(4, rows, cols, vals)
        want = np.zeros((4, 4))
        for r, c, v in zip(rows, cols, vals):
            if r >= c:
                want[r, c] += v
        assert np.array_equal(np.tril(mat.to_dense()), want)

    def test_k_rows_share_one_pattern(self):
        # (1, 0) is zero in the first row only and stays stored in both
        # matrices; (2, 1) is zero in both rows and is dropped
        rows, cols = [0, 1, 1, 2, 2], [0, 0, 1, 1, 2]
        vals = [[1.0, 0.0, 2.0, 0.0, 3.0],
                [1.0, 5.0, 2.0, 0.0, 0.0]]
        first, second = SparseSymMatrix.from_triplets(3, rows, cols, vals)
        for part in ("indptr", "indices"):
            a, b = getattr(first._full, part), getattr(second._full, part)
            assert np.shares_memory(a, b) and not a.flags.writeable
        assert first.nnz_lower == second.nnz_lower == 4
        assert first._full.indices.tolist() == [0, 1, 0, 1, 2]
        assert first._full.data.tolist() == [1.0, 0.0, 0.0, 2.0, 3.0]
        assert second._full.data.tolist() == [1.0, 5.0, 5.0, 2.0, 0.0]

    @pytest.mark.parametrize("rows,cols,vals", [
        pytest.param([0, 1, 1, 2, 2], [0, 0, 1, 1, 2],
                     [[1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 1.5]],
                     id="sorted-distinct"),
        pytest.param([2, 0, 2, 1, 2, 1], [0, 0, 0, 1, 0, 0],
                     [[1e16, 4.0, 1.0, 2.0, -1e16, 3.0], [0.5, 0.0, 0.25, 1.0, 2.0, -3.0]],
                     id="unsorted-duplicates"),
        pytest.param([0, 1, 2, 2], [0, 0, 1, 2],
                     [[1.0, 0.0, 7.0, 2.0], [3.0, 0.0, 0.0, 4.0], [5.0, 0.0, 6.0, 0.0]],
                     id="zero-in-every-row")])
    def test_list_of_rows_gives_the_arrays_of_the_stacked_rows(self, rows, cols, vals):
        # the rows are not stacked, and each is taken off the list once its
        # matrix is built; the CSR arrays are those of the (k, m) array
        stacked = SparseSymMatrix.from_triplets(3, rows, cols, np.array(vals))
        given = [np.array(val) for val in vals]
        listed = SparseSymMatrix.from_triplets(3, rows, cols, given)
        assert given == []
        for mat, want in zip(listed, stacked, strict=True):
            for part in ("indptr", "indices", "data"):
                got, ref = getattr(mat._full, part), getattr(want._full, part)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for part in ("indptr", "indices"):
            assert all(np.shares_memory(getattr(mat._full, part), getattr(listed[0]._full, part))
                       for mat in listed)

    def test_list_rows_must_match_the_triplets(self):
        with pytest.raises(ValueError):
            SparseSymMatrix.from_triplets(3, [0, 1], [0, 0], [np.ones(2), np.ones(3)])

    def test_one_row_of_values_gives_one_matrix(self):
        mats = SparseSymMatrix.from_triplets(2, [1], [0], [[3.0]])
        assert len(mats) == 1
        mat = SparseSymMatrix.from_triplets(2, [1], [0], [3.0])
        assert np.array_equal(mat.to_dense(), mats[0].to_dense())
        assert np.array_equal(mat.to_dense(), [[0.0, 3.0], [3.0, 0.0]])

    @pytest.mark.parametrize("rows,cols,vals", [
        pytest.param([3], [0], [1.0], id="row-past-n"),
        pytest.param([1], [-1], [1.0], id="negative-col"),
        pytest.param([1], [0], [[[1.0]]], id="three-dim-vals"),
        pytest.param([1.5], [0], [1.0], id="float-row")])
    def test_bad_triplets_rejected(self, rows, cols, vals):
        with pytest.raises(ValueError):
            SparseSymMatrix.from_triplets(3, rows, cols, vals)

    def test_empty_triplets_give_the_zero_matrix(self):
        # empty Python lists become float64 arrays, which are not index arrays
        mat = SparseSymMatrix.from_triplets(3, [], [], [])
        assert np.array_equal(mat.to_dense(), np.zeros((3, 3)))
        assert mat.nnz_lower == 0

    def test_constructor_keeps_the_lower_triangle(self):
        mat = SparseSymMatrix(sp.csr_matrix([[1.0, 9.0], [2.0, 3.0]]))
        assert np.array_equal(mat.to_dense(), [[1.0, 2.0], [2.0, 3.0]])


class TestSingleStorage:
    """One CSR per matrix; the lower triangle and its counts derive from it."""

    def check(self, mat):
        assert sum(sp.issparse(value) for value in vars(mat).values()) == 1
        assert np.array_equal(mat.lower.toarray(), np.tril(mat.to_dense()))
        coo = mat._full.tocoo()
        assert mat.nnz_lower == np.count_nonzero(coo.col <= coo.row)

    def test_from_triplets(self):
        # the two (1, 1) triplets cancel exactly and leave no stored entry
        mat = SparseSymMatrix.from_triplets(3, [2, 0, 1, 1, 2], [0, 0, 1, 1, 2],
                                            [1.0, 4.0, 2.0, -2.0, 5.0])
        self.check(mat)
        assert mat.nnz_lower == 3

    @pytest.mark.parametrize("name", ["mass", "stiffness", "radial", "wave"])
    def test_assembled(self, ops44, name):
        _, ops = ops44
        self.check(getattr(ops, name))


class TestMatvec:
    @pytest.mark.parametrize("n", [2, 3])
    def test_byte_equal_to_the_csr_product(self, the_domain, n):
        # out starts as NaN: the kernel adds into it, so matvec must zero it
        mesh = generate_mesh(the_domain, n, n)
        rng = np.random.default_rng(n)
        for mat in assemble(mesh, build_dof_map(mesh)):
            x = rng.standard_normal(mat.n)
            out = np.full(mat.n, np.nan)
            assert mat.matvec(x, out) is out
            assert out.tobytes() == (mat._full @ x).tobytes()
            assert (mat @ x).tobytes() == out.tobytes()

    def test_shapes_are_checked(self, ops11):
        # the kernel itself checks no length: a short vector would be read,
        # or written, past its end
        _, ops = ops11
        n = ops.mass.n
        for x, out in [(np.ones(n + 1), np.empty(n)), (np.ones(n), np.empty(n - 1)),
                       (np.ones(n), np.empty(2 * n)[::2])]:
            with pytest.raises(ValueError):
                ops.mass.matvec(x, out)


class TestAssembly:
    def test_matches_dense_oracle(self, mesh11, mesh22):
        # mesh22's tets come in more shapes, so a transposed local matrix
        # does not cancel out as easily as on the minimal mesh; the oracle
        # forms X . grad lam at every point, the assembly uses -B M B^T
        for mesh in (mesh11, mesh22):
            dof_map = build_dof_map(mesh)
            ops = assemble(mesh, dof_map)
            ref_m, ref_k, ref_d = dense_reference_assembly(mesh, dof_map)
            scale = np.abs(ref_m).max()
            assert np.abs(ops.mass.to_dense() - ref_m).max() < 1e-14 * max(1, scale)
            assert np.abs(ops.stiffness.to_dense() - ref_k).max() < 1e-14 * np.abs(ref_k).max()
            assert np.abs(ops.radial.to_dense() - ref_d).max() < 1e-14 * np.abs(ref_d).max()

    def test_sums_each_entry_in_tet_order(self, mesh22):
        # every stored value is the sum from 0.0 of its element entries in
        # (t, a, b) order, bit for bit
        dof_map = build_dof_map(mesh22)
        ops = assemble(mesh22, dof_map)
        rows, cols, vals = lower_triplets(mesh22, dof_map)
        for mat, val in zip(ops[:3], vals, strict=True):
            ref = np.zeros((dof_map.n_dofs, dof_map.n_dofs))
            np.add.at(ref, (rows, cols), val)
            lower = mat.lower.tocoo()
            assert lower.nnz == np.count_nonzero(ref)
            assert np.array_equal(lower.data, ref[lower.row, lower.col])

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_triplet_path(self, the_domain, n):
        # from_triplets sums duplicates in triplet order, so all (t, a, b)
        # triplets summed by it give the assembled CSR arrays bit for bit
        mesh = generate_mesh(the_domain, n, n)
        dof_map = build_dof_map(mesh)
        rows, cols, vals = lower_triplets(mesh, dof_map)
        ref = SparseSymMatrix.from_triplets(dof_map.n_dofs, rows, cols, np.array(vals))
        ref.append(SparseSymMatrix((ref[1].lower + ref[2].lower).tocsr()))
        for mat, want in zip(assemble(mesh, dof_map), ref, strict=True):
            for part in ("indptr", "indices", "data"):
                got, ref_part = getattr(mat._full, part), getattr(want._full, part)
                assert got.dtype == ref_part.dtype
                assert np.array_equal(got, ref_part)

    def test_wave_is_built_once(self, ops44):
        _, ops = ops44
        assert ops.wave is ops.wave
        total = (ops.stiffness.lower + ops.radial.lower).toarray()
        assert np.array_equal(ops.wave.lower.toarray(), total)

    def test_mass_positive_definite(self, ops11):
        _, ops = ops11
        assert np.linalg.eigvalsh(ops.mass.to_dense()).min() > 0

    def test_wave_kernel_is_constants(self, ops11):
        _, ops = ops11
        w = ops.wave.to_dense()
        one = np.ones(len(w))
        assert np.abs(w @ one).max() <= 1e-12 * ops.stiffness.max_abs()
        # second-smallest generalized eigenvalue is positive
        import scipy.linalg
        vals = scipy.linalg.eigh(w, ops.mass.to_dense(), eigvals_only=True)
        assert abs(vals[0]) < 1e-10
        assert vals[1] > 1.0

    def test_wave_quad_form_nonnegative(self, ops44):
        dof_map, ops = ops44
        wave = ops.wave
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = rng.standard_normal(dof_map.n_dofs)
            assert float(u @ (wave @ u)) >= -1e-12 * (u @ u)

    def test_mass_sum_approximates_volume(self, ops44):
        _, ops = ops44
        rel = abs(ops.mass.total_sum() - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME
        assert rel < 2e-3

    def test_symmetry_of_storage(self, ops44):
        _, ops = ops44
        for mat in ops:
            coo = mat.lower.tocoo()
            assert np.all(coo.col <= coo.row)
            dense = mat.to_dense()
            assert np.abs(dense - dense.T).max() == 0.0

    def test_assembly_invariant_under_tet_permutation(self, mesh44, ops44):
        import dataclasses
        dof_map, ops = ops44
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(mesh44.tets))
        shuffled = dataclasses.replace(mesh44, tets=mesh44.tets[perm])
        ops2 = assemble(shuffled, dof_map)
        for a, b in zip(ops, ops2):
            assert np.array_equal(a.lower.toarray(), b.lower.toarray())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_two_key_order_is_the_four_column_lexsort(self, the_domain, n):
        # as read, with rows and the ids within each row shuffled, and with
        # repeated rows, whose ties both sorts leave in row order
        tets = generate_mesh(the_domain, n, n).tets
        rng = np.random.default_rng(n)
        shuffled = rng.permuted(tets[rng.permutation(len(tets))], axis=1)
        repeated = np.vstack([shuffled, shuffled[::3]])
        repeated = repeated[rng.permutation(len(repeated))]
        for t in (tets, shuffled, repeated):
            want = np.lexsort(np.sort(t, axis=1).T[::-1])
            assert np.array_equal(_canonical_order(t, int(t.max()) + 1), want)

    def test_peak_memory_is_a_few_element_matrices(self, mesh44, ops44):
        # no (tet, point, coordinate) or (tet, point, basis) array: the
        # traced peak stays within ten (T, 4, 4) float arrays
        dof_map, _ = ops44
        assert traced_peak(lambda: assemble(mesh44, dof_map)) <= 10 * len(mesh44.tets) * 128

    @pytest.mark.parametrize("name,bound", [pytest.param("assemble", 142, id="assemble"),
                                            pytest.param("validate_mesh", 112, id="validate_mesh"),
                                            pytest.param("face_counts", 112, id="face_counts")])
    def test_peak_memory_per_tet_above_one_block(self, the_domain, mesh88, name, bound):
        # 84,480 tets are over twenty blocks: the traced peak grows with the
        # matrix pattern and int64 face keys, not with a (T, 4, 4) array per
        # pass, a (4T, 3) array of triangle rows or a copy of the face keys;
        # the bounds are about 1.15 times the peaks traced at n = L = 8 (124,
        # 98 and 97 B/tet)
        dof_map = build_dof_map(mesh88)
        assert len(mesh88.tets) > 20 * meshing.TET_BLOCK
        run = {"assemble": lambda: assemble(mesh88, dof_map),
               "validate_mesh": lambda: validate_mesh(the_domain, mesh88),
               "face_counts": lambda: meshing.face_counts(mesh88.tets)}[name]
        assert traced_peak(run) <= bound * len(mesh88.tets)

    def test_assemble_holds_no_triplet_arrays(self, mesh88):
        # the lower triplets, about ten per tet as int32 rows and cols and
        # three float values, would take 320 B/tet on top of the rest; the
        # pattern-first assembly holds the tet order, the pattern with its
        # slot numbers and the lower values, then the four operators on one
        # pattern, each lower row dropped once its operator is gathered
        dof_map = build_dof_map(mesh88)
        assert traced_peak(lambda: assemble(mesh88, dof_map)) <= 142 * len(mesh88.tets)

    def test_each_operator_is_one_from_triplets_call(self, mesh11, monkeypatch):
        # the benchmark times assembly through this class attribute: one call
        # of it makes all four operators, in Operators order, on one pattern
        made = []
        original = SparseSymMatrix.from_triplets.__func__

        def counting(cls, *args):
            made.append(original(cls, *args))
            return made[-1]

        monkeypatch.setattr(SparseSymMatrix, "from_triplets", classmethod(counting))
        ops = assemble(mesh11, build_dof_map(mesh11))
        assert len(made) == 1
        assert all(a is b for a, b in zip(made[0], ops, strict=True))
        first = ops.mass._full
        for mat in ops:
            for part in ("indptr", "indices"):
                arr = getattr(mat._full, part)
                assert np.shares_memory(arr, getattr(first, part))
                assert not arr.flags.writeable
        for a, b in itertools.combinations(ops, 2):
            assert not np.shares_memory(a._full.data, b._full.data)
        with pytest.raises(ValueError):
            first.indices[0] = 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_csr_is_scipys_mirror_of_the_lower_triangle(self, the_domain, n):
        # the full pattern built from the lower one equals scipy's
        # L + tril(L, -1)^T, byte for byte with dtypes, for every operator
        mesh = generate_mesh(the_domain, n, n)
        for mat in assemble(mesh, build_dof_map(mesh)):
            lower = sp.tril(mat._full, format="csr")
            want = (lower + sp.tril(lower, -1).T).tocsr()
            for part in ("indptr", "indices", "data"):
                got, ref = getattr(mat._full, part), getattr(want, part)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_matrix_market_round_trip(self, ops11, tmp_path):
        _, ops = ops11
        ops.mass.save_matrix_market(tmp_path / "mass.mtx")
        back = scipy.io.mmread(tmp_path / "mass.mtx").toarray()
        assert np.abs(back - ops.mass.to_dense()).max() < 1e-15


def traced_peak(run):
    """Peak traced allocation in bytes while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_pass_outputs(domain, mesh):
    """Every output of a per-tet block pass on `mesh`, as arrays, and the
    validate_mesh report as JSON."""
    dof_map = build_dof_map(mesh)
    arrays = [getattr(mat._full, part) for mat in assemble(mesh, dof_map)
              for part in ("indptr", "indices", "data")]
    flipped = mesh.tets[:, [0, 1, 3, 2]]
    arrays += [signed_tet_volumes(mesh.vertices, flipped),
               *orient_tets(mesh.vertices, flipped), np.array(weighted_volume(mesh))]
    return arrays, json.dumps(validate_mesh(domain, mesh), sort_keys=True)


@pytest.mark.parametrize("n", [2, 4])
def test_block_boundaries_change_nothing(the_domain, n, monkeypatch):
    # one block over all tets is the unblocked pass; blocks of 1 and 7 tets
    # split it everywhere, and 7 leaves a one-tet last block at n = 2
    mesh = generate_mesh(the_domain, n, n)
    default = meshing.TET_BLOCK
    monkeypatch.setattr(meshing, "TET_BLOCK", len(mesh.tets))
    ref_arrays, ref_report = block_pass_outputs(the_domain, mesh)
    for block in (1, 7, default):
        monkeypatch.setattr(meshing, "TET_BLOCK", block)
        arrays, report = block_pass_outputs(the_domain, mesh)
        assert report == ref_report
        for a, ref in zip(arrays, ref_arrays, strict=True):
            assert a.dtype == ref.dtype and a.shape == ref.shape
            assert a.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def dense_top(the_domain):
    """n -> (the operators at n = L, the largest eigenvalue of (wave, mass) by
    dense `scipy.linalg.eigh`), each made once."""
    import scipy.linalg
    made = {}

    def get(n: int):
        if n not in made:
            mesh = generate_mesh(the_domain, n, n)
            ops = assemble(mesh, build_dof_map(mesh))
            vals = scipy.linalg.eigh(ops.wave.to_dense(), ops.mass.to_dense(),
                                     eigvals_only=True)
            made[n] = ops, float(vals[-1])
        return made[n]
    return get


class TestSpectralBound:
    def test_lambda_scales_like_inverse_h_squared(self, the_domain):
        lams = []
        for n in (4, 8):
            mesh = generate_mesh(the_domain, n, 2)
            dm = build_dof_map(mesh)
            ops = assemble(mesh, dm)
            lam, _ = estimate_spectral_bound(ops.mass, ops.wave)
            lams.append(lam)
        assert 3.0 <= lams[1] / lams[0] <= 5.0

    def test_inner_solves_run_to_a_hundredth_of_tol(self, ops11, monkeypatch):
        # the id is kept for its callers; the bound makes no mass solve, and
        # one wave and one mass product per iteration, after one of each for
        # the start
        import pdswave.evolve as evolve
        from test_evolve import CountingMatrix
        solves = []
        monkeypatch.setattr(evolve, "pcg_solve", lambda *a, **kw: solves.append(a))
        _, ops = ops11
        mass, wave = CountingMatrix(ops.mass), CountingMatrix(ops.wave)
        info = {}
        estimate_spectral_bound(mass, wave, tol=1e-3, info=info)
        assert not solves and "pcg_iterations" not in info
        assert info["iterations"] >= 2
        assert wave.products == mass.products == info["iterations"] + 1

    @pytest.mark.parametrize("n", [2, 4])
    def test_inexact_solves_keep_the_estimate(self, dense_top, n):
        # the id is kept for its callers: the estimate is that of the dense top
        ops, top = dense_top(n)
        lam, _ = estimate_spectral_bound(ops.mass, ops.wave)
        assert lam == pytest.approx(top, rel=5e-4)

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_inner_solve_iterates(self, the_domain, n):
        # the id is kept for its callers; a tighter tol runs the same
        # iteration further, so neither lambda nor the iterations go down
        mesh = generate_mesh(the_domain, n, n)
        ops = assemble(mesh, build_dof_map(mesh))
        runs = []
        for tol in (1e-2, 1e-3, 1e-4, 1e-5):
            info = {}
            lam, _ = estimate_spectral_bound(ops.mass, ops.wave, tol=tol, info=info)
            assert info["relative_change"] <= tol
            runs.append((lam, info["iterations"]))
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(runs, runs[1:]))
        assert runs[0][1] < runs[-1][1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_estimate_is_a_close_lower_bound(self, dense_top, n):
        ops, top = dense_top(n)
        lam, _ = estimate_spectral_bound(ops.mass, ops.wave)
        assert -1e-12 <= (top - lam) / top <= 5e-4

    def test_eigenvector_start_returns_exactly(self, ops11):
        # wave = 2 mass: the start is an eigenvector and its residual is zero
        _, ops = ops11
        mass = SparseSymMatrix(ops.mass.lower)
        wave = SparseSymMatrix(2 * ops.mass.lower)
        info = {}
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            lam, dt_max = estimate_spectral_bound(mass, wave, info=info)
        assert lam == 2.0 and dt_max == 2.0 / math.sqrt(2.0)
        assert info == {"iterations": 0, "relative_change": 0.0}

    def test_negative_pencil_raises(self, ops11):
        _, ops = ops11
        with pytest.raises(NoConvergence, match="not positive"):
            estimate_spectral_bound(ops.mass, SparseSymMatrix(-ops.mass.lower))

    def test_singular_gram_drops_the_last_step(self, dense_top, monkeypatch):
        # every 3 x 3 Rayleigh-Ritz step fails as if its mass Gram matrix were
        # singular: each iteration then falls back to span{x, w}
        import pdswave.assembly as assembly
        ops, top = dense_top(2)
        raw, failed = assembly._top_ritz_vector, []

        def no_three(basis):
            if len(basis) == 3:
                failed.append(basis)
                raise np.linalg.LinAlgError("not positive definite")
            return raw(basis)
        monkeypatch.setattr(assembly, "_top_ritz_vector", no_three)
        info = {}
        lam, _ = estimate_spectral_bound(ops.mass, ops.wave, info=info)
        assert len(failed) == info["iterations"] - 1 >= 1
        assert -1e-12 <= (top - lam) / top <= 1e-2

    @pytest.mark.parametrize("m", [2, 3])
    def test_ritz_vector_is_the_top_of_the_gram_pencil(self, m):
        import scipy.linalg
        from pdswave.assembly import _top_ritz_vector
        rng = np.random.default_rng(m)
        for scale in (1e-3, 1.0, 1e8):
            vecs = rng.standard_normal((m, 9))
            b = rng.standard_normal((9, 9))
            mass = b @ b.T + 9 * np.eye(9)
            wave = scale * (b + b.T)
            coef = _top_ritz_vector(np.stack([vecs, vecs @ wave, vecs @ mass], axis=1))
            vals, vectors = scipy.linalg.eigh(vecs @ wave @ vecs.T, vecs @ mass @ vecs.T)
            x = coef @ vecs
            assert x @ mass @ x == pytest.approx(1.0, rel=1e-12)
            assert x @ wave @ x == pytest.approx(vals[-1], rel=1e-12, abs=1e-12 * scale)
            assert abs(coef @ vecs @ mass @ vecs.T @ vectors[:, -1]) == pytest.approx(1.0)

    def test_ritz_vector_needs_a_positive_definite_mass_gram(self):
        from pdswave.assembly import _top_ritz_vector
        vecs = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])    # dependent
        with pytest.raises(np.linalg.LinAlgError):
            _top_ritz_vector(np.stack([vecs, vecs, vecs], axis=1))

    def test_diagonal_pencil_gives_its_largest_ratio(self):
        mass = SparseSymMatrix(sp.diags([1.0, 2.0, 4.0]))
        wave = SparseSymMatrix(sp.diags([3.0, 10.0, 2.0]))
        lam, _ = estimate_spectral_bound(mass, wave)
        assert lam == pytest.approx(5.0, rel=1e-12)

    def test_dt_max_relation(self, ops11):
        _, ops = ops11
        lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
        assert dt_max == pytest.approx(2.0 / math.sqrt(lam))
        # dense oracle: the estimate reaches the true extreme
        import scipy.linalg
        vals = scipy.linalg.eigh(ops.wave.to_dense(), ops.mass.to_dense(),
                                 eigvals_only=True)
        assert lam == pytest.approx(vals[-1], rel=1e-3)
