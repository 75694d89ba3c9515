import math
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from pdswave.assembly import (DofMap, SparseSymMatrix, assemble, build_dof_map,
                              estimate_spectral_bound)
from pdswave.errors import ClassSizeError
from pdswave.meshing import EXACT_DOMAIN_VOLUME, generate_mesh
from pdswave.quadrature import quadrature_rule


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
                    n_corner_classes=5, classes=[])
        # 10 * 2 + 6 * 1 + 10 + 5
        assert dm.formula_count() == 41

    def test_twenty_corners_collapse_to_five(self, mesh11):
        dm = build_dof_map(mesh11)
        assert dm.n_corner_classes == 5
        assert dm.n_dofs == 12      # 1 interior + 6 face pairs + 5 corners

    def test_minimal_mesh_classes_all_size_four_or_two(self, mesh11):
        dm = build_dof_map(mesh11)
        sizes = sorted(len(c) for c in dm.classes)
        assert sizes == [2] * 6 + [4] * 5

    def test_members_of_class_share_dof(self, mesh44):
        dm = build_dof_map(mesh44)
        for cls in dm.classes:
            dofs = {dm.node_to_dof[v] for v in cls}
            assert len(dofs) == 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3), layers=st.integers(1, 3),
           grading=st.floats(0.5, 2.0))
    @example(n=2, layers=1, grading=1.0)
    @example(n=2, layers=2, grading=1.0)
    @example(n=3, layers=2, grading=1.0)
    def test_formula_holds_on_generated_meshes(self, the_domain, n, layers, grading):
        mesh = generate_mesh(the_domain, n, layers, grading)
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


def dense_reference_assembly(mesh, dof_map, rule):
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
        for lam, wq in zip(rule.points, rule.weights):
            x = lam @ v
            w = 1.0 / math.sqrt(1.0 - x @ x)
            for a in range(4):
                for b in range(4):
                    ia, ib = dofs[a], dofs[b]
                    mass[ia, ib] += det * wq * w * lam[a] * lam[b]
                    stiff[ia, ib] += det * wq * w * (grads[a] @ grads[b])
                    radial[ia, ib] -= det * wq * w * (x @ grads[a]) * (x @ grads[b])
    return mass, stiff, radial


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


class TestAssembly:
    @pytest.mark.parametrize("degree", [2, 4])
    def test_matches_dense_oracle(self, mesh11, mesh22, degree):
        # mesh22's tets come in more shapes, so a transposed local matrix
        # does not cancel out as easily as on the minimal mesh; the oracle
        # forms X . grad lam at every point, the assembly uses -B M B^T
        rule = quadrature_rule(degree)
        for mesh in (mesh11, mesh22):
            dof_map = build_dof_map(mesh)
            ops = assemble(mesh, dof_map, rule)
            ref_m, ref_k, ref_d = dense_reference_assembly(mesh, dof_map, rule)
            scale = np.abs(ref_m).max()
            assert np.abs(ops.mass.to_dense() - ref_m).max() < 1e-14 * max(1, scale)
            assert np.abs(ops.stiffness.to_dense() - ref_k).max() < 1e-14 * np.abs(ref_k).max()
            assert np.abs(ops.radial.to_dense() - ref_d).max() < 1e-14 * np.abs(ref_d).max()

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
            assert wave.quad_form(u) >= -1e-12 * (u @ u)

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

    def test_peak_memory_is_a_few_element_matrices(self, mesh44, ops44):
        # no (tet, point, coordinate) or (tet, point, basis) array: the
        # traced peak stays within ten (T, 4, 4) float arrays
        dof_map, _ = ops44
        tracemalloc.start()
        try:
            assemble(mesh44, dof_map)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * len(mesh44.tets) * 128

    def test_matrix_market_round_trip(self, ops11, tmp_path):
        _, ops = ops11
        ops.mass.save_matrix_market(tmp_path / "mass.mtx")
        back = scipy.io.mmread(tmp_path / "mass.mtx").toarray()
        assert np.abs(back - ops.mass.to_dense()).max() < 1e-15


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
        import pdswave.evolve as evolve
        _, ops = ops11
        raw, tols = evolve.pcg_solve, []

        def recording(mass, b, *args, tol, **kwargs):
            tols.append(tol)
            return raw(mass, b, *args, tol=tol, **kwargs)
        monkeypatch.setattr(evolve, "pcg_solve", recording)
        info = {}
        estimate_spectral_bound(ops.mass, ops.wave, tol=1e-3, info=info)
        assert len(tols) == info["iterations"] - 1 and set(tols) == {1e-5}

    def test_dt_max_relation(self, ops11):
        _, ops = ops11
        lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
        assert dt_max == pytest.approx(2.0 / math.sqrt(lam))
        # dense oracle: power-iteration estimate reaches the true extreme
        import scipy.linalg
        vals = scipy.linalg.eigh(ops.wave.to_dense(), ops.mass.to_dense(),
                                 eigvals_only=True)
        assert lam == pytest.approx(vals[-1], rel=1e-3)
