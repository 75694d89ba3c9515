import math

import numpy as np
import pytest
import scipy.sparse as sp

from pdswave.assembly import SparseSymMatrix, assemble, build_dof_map, estimate_spectral_bound
from pdswave.errors import EnergyBlowup, NoConvergence, NotInDomain, UnstableTimeStep
from pdswave.evolve import (DOMAIN_DIAMETER, ProbeSet, bump_profile, discrete_energy,
                            initial_bump, initial_random, leapfrog_run,
                            make_preconditioner, pcg_solve, snap_probes)
from pdswave.meshing import generate_mesh


@pytest.fixture(scope="module")
def small_system(the_domain):
    mesh = generate_mesh(the_domain, 2, 2)
    dof_map = build_dof_map(mesh)
    ops = assemble(mesh, dof_map)
    lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
    return mesh, dof_map, ops, dt_max


class TestInitialData:
    def test_bump_center_value(self, the_domain):
        v = bump_profile(the_domain, np.zeros((1, 3)), (0, 0, 0), 0.3, 100.0)
        assert v[0] == pytest.approx(100.0, abs=0)

    def test_bump_half_radius(self, the_domain):
        # spherical distance from the origin is arcsin(|X|)
        d = 0.15
        x = math.sin(d)
        v = bump_profile(the_domain, np.array([[x, 0, 0]]), (0, 0, 0), 0.3, 100.0)
        assert v[0] == pytest.approx(100.0 / math.e, rel=1e-12)

    def test_bump_vanishes_outside_and_is_continuous(self, the_domain):
        xs = [math.sin(0.3), math.sin(0.31), math.sin(0.299)]
        pts = np.array([[x, 0, 0] for x in xs])
        v = bump_profile(the_domain, pts, (0, 0, 0), 0.3, 100.0)
        assert v[0] == 0.0 and v[1] == 0.0
        assert 0 < v[2] < 1e-100        # just inside the support, essentially zero

    def test_bump_center_must_be_inside(self, the_domain):
        with pytest.raises(NotInDomain):
            bump_profile(the_domain, np.zeros((1, 3)), (0.9, 0, 0), 0.3, 1.0)

    def test_random_reproducible(self):
        a = initial_random(42, 1.0, 1000)
        b = initial_random(42, 1.0, 1000)
        assert np.array_equal(a, b)

    def test_random_seeds_differ(self):
        a = initial_random(1, 1.0, 1000)
        b = initial_random(2, 1.0, 1000)
        assert np.mean(a != b) >= 0.99

    def test_random_zero_amplitude(self):
        assert not initial_random(3, 0.0, 100).any()

    def test_random_bounded(self):
        a = initial_random(7, 0.5, 10000)
        assert np.abs(a).max() <= 0.5


class TestPreconditioners:
    def test_application_is_spd(self, small_system):
        _, dof_map, ops, _ = small_system
        rng = np.random.default_rng(1)
        p = make_preconditioner(ops.mass)
        for _ in range(10):
            u = rng.standard_normal(dof_map.n_dofs)
            assert u @ p.apply(u) > 0

    def test_ic0_is_deprecated_alias_of_jacobi(self, small_system):
        _, dof_map, ops, _ = small_system
        r = np.random.default_rng(2).standard_normal(dof_map.n_dofs)
        with pytest.warns(DeprecationWarning):
            p = make_preconditioner(ops.mass, "ic0")
        assert p.kind == "jacobi"
        assert np.array_equal(p.apply(r), make_preconditioner(ops.mass).apply(r))
        with pytest.raises(ValueError):
            make_preconditioner(ops.mass, "ilu")


class TestPcg:
    def test_consistency(self, small_system):
        _, dof_map, ops, _ = small_system
        rng = np.random.default_rng(3)
        y = rng.standard_normal(dof_map.n_dofs)
        x = pcg_solve(ops.mass, ops.mass @ y, make_preconditioner(ops.mass))
        assert np.linalg.norm(x - y) / np.linalg.norm(y) < 1e-10

    def test_zero_rhs(self, small_system):
        _, dof_map, ops, _ = small_system
        assert not pcg_solve(ops.mass, np.zeros(dof_map.n_dofs)).any()

    def test_no_convergence_raises(self, small_system):
        _, dof_map, ops, _ = small_system
        rng = np.random.default_rng(4)
        b = rng.standard_normal(dof_map.n_dofs)
        with pytest.raises(NoConvergence):
            pcg_solve(ops.mass, b, make_preconditioner(ops.mass, "jacobi"),
                      tol=1e-14, max_iter=2)

    def test_indefinite_matrix_breaks_down(self):
        # p.Ap = 0 on diag(1, -1): a breakdown, not a division by zero
        mass = SparseSymMatrix(sp.csr_matrix(np.diag([1.0, -1.0])))
        with pytest.raises(NoConvergence, match="breakdown"):
            pcg_solve(mass, np.array([1.0, 1.0]))

    def test_non_finite_rhs_fails_fast(self, small_system):
        _, dof_map, ops, _ = small_system
        b = np.ones(dof_map.n_dofs)
        b[3] = np.nan
        with pytest.raises(NoConvergence, match="right-hand side"):
            pcg_solve(ops.mass, b)


    def test_mass_x_is_the_product_of_the_solution(self, small_system):
        _, dof_map, ops, _ = small_system
        b = ops.mass @ np.random.default_rng(5).standard_normal(dof_map.n_dofs)
        info = {}
        x = pcg_solve(ops.mass, b, info=info)
        assert info["iterations"] > 0
        assert info["mass_x"].tobytes() == (ops.mass @ x).tobytes()

    def test_mass_x_on_immediate_return(self, small_system):
        _, dof_map, ops, _ = small_system
        x0 = np.random.default_rng(6).standard_normal(dof_map.n_dofs)
        info = {}
        x = pcg_solve(ops.mass, ops.mass @ x0, x0=x0, info=info)
        assert info["iterations"] == 0 and np.array_equal(x, x0)
        assert info["mass_x"].tobytes() == (ops.mass @ x).tobytes()
        # a product the caller holds is taken as given
        info = {}
        pcg_solve(ops.mass, ops.mass @ x0, x0=x0, info=info, mass_x0=ops.mass @ x0)
        assert info["iterations"] == 0
        assert info["mass_x"].tobytes() == (ops.mass @ x0).tobytes()

    def test_mass_x_of_zero_rhs(self, small_system):
        _, dof_map, ops, _ = small_system
        info = {}
        x = pcg_solve(ops.mass, np.zeros(dof_map.n_dofs), info=info)
        assert info["iterations"] == 0
        assert info["mass_x"].tobytes() == (ops.mass @ x).tobytes()

    def test_mass_x0_gives_the_same_solution(self, small_system):
        # the leapfrog's predictor 2a - c with its product formed from M a and M c
        _, dof_map, ops, _ = small_system
        rng = np.random.default_rng(7)
        a, c = rng.standard_normal((2, dof_map.n_dofs))
        b = ops.mass @ (a + 1e-3 * rng.standard_normal(dof_map.n_dofs))
        x0 = 2.0 * a - c
        plain = pcg_solve(ops.mass, b, x0=x0, tol=1e-13)
        given = pcg_solve(ops.mass, b, x0=x0, tol=1e-13,
                          mass_x0=2.0 * (ops.mass @ a) - ops.mass @ c)
        assert np.linalg.norm(given - plain) <= 1e-14 * np.linalg.norm(plain)
        assert np.array_equal(x0, 2.0 * a - c)        # x0 is not overwritten


class TestLeapfrog:
    def test_zero_data_stays_zero(self, small_system):
        _, dof_map, ops, dt_max = small_system
        res = leapfrog_run(ops.mass, ops.wave, np.zeros(dof_map.n_dofs),
                           dt=0.9 * dt_max * 0.95, steps=20, dt_max=dt_max)
        assert not res.state.u_cur.any()
        assert not res.energy.any()

    def test_constant_data_is_stationary(self, small_system):
        _, dof_map, ops, dt_max = small_system
        c = 3.7
        u0 = np.full(dof_map.n_dofs, c)
        res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.5 * dt_max, steps=50,
                           dt_max=dt_max, solve_tol=1e-14)
        assert np.abs(res.state.u_cur - c).max() < 1e-9
        assert np.abs(res.energy).max() < 1e-9

    def test_energy_of_kernel_plus_velocity(self, small_system):
        _, dof_map, ops, _ = small_system
        one = np.ones(dof_map.n_dofs)
        dt = 1e-2
        e = discrete_energy(ops.mass, ops.wave, (1 + dt) * one, one, dt)
        assert e == pytest.approx(one @ (ops.mass @ one), rel=1e-12)

    def test_zero_state_energy(self, small_system):
        _, dof_map, ops, _ = small_system
        z = np.zeros(dof_map.n_dofs)
        assert discrete_energy(ops.mass, ops.wave, z, z, 0.1) == 0.0

    def test_conservation(self, small_system):
        mesh, dof_map, ops, dt_max = small_system
        u0 = initial_bump(mesh, dof_map, the_domain_of(mesh))
        res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.95 * dt_max, steps=2000,
                           dt_max=dt_max, solve_tol=1e-13)
        drift = abs(res.energy[-1] - res.energy[1]) / abs(res.energy[1])
        assert drift < 1e-10
        # E(0) computed from the level pair equals the conserved value
        assert abs(res.energy[0] - res.energy[1]) / abs(res.energy[1]) < 1e-10

    def test_reversibility(self, small_system):
        mesh, dof_map, ops, dt_max = small_system
        u0 = initial_bump(mesh, dof_map, the_domain_of(mesh))
        dt = 0.9 * dt_max * 0.95
        fwd = leapfrog_run(ops.mass, ops.wave, u0, dt=dt, steps=100,
                           dt_max=dt_max, solve_tol=1e-14)
        # swap the last two levels and march the same number of inner steps
        back = leapfrog_run(ops.mass, ops.wave, fwd.state.u_prev, dt=dt, steps=99,
                            u_prev=fwd.state.u_cur, dt_max=dt_max, solve_tol=1e-14)
        err = np.linalg.norm(back.state.u_cur - u0) / np.linalg.norm(u0)
        assert err < 1e-8

    def test_unstable_step_blows_up(self, small_system):
        mesh, dof_map, ops, dt_max = small_system
        u0 = initial_bump(mesh, dof_map, the_domain_of(mesh))
        with pytest.raises(EnergyBlowup):
            leapfrog_run(ops.mass, ops.wave, u0, dt=1.05 * dt_max, steps=1000,
                         dt_max=dt_max, force=True)

    def test_non_finite_energy_blows_up(self, small_system):
        # without a ratio guard the energy overflows; it must not reach the solver
        mesh, dof_map, ops, dt_max = small_system
        u0 = initial_bump(mesh, dof_map, the_domain_of(mesh))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(EnergyBlowup, match="energy (inf|nan)"):
            leapfrog_run(ops.mass, ops.wave, u0, dt=1.05 * dt_max, steps=100_000,
                         dt_max=dt_max, force=True, energy_guard=math.inf)

    def test_oversized_dt_rejected_without_force(self, small_system):
        mesh, dof_map, ops, dt_max = small_system
        u0 = np.zeros(dof_map.n_dofs)
        with pytest.raises(ValueError):
            leapfrog_run(ops.mass, ops.wave, u0, dt=1.05 * dt_max, steps=10,
                         dt_max=dt_max)

    def test_oversized_dt_raises_typed_error(self, small_system):
        _, dof_map, ops, dt_max = small_system
        with pytest.raises(UnstableTimeStep):
            leapfrog_run(ops.mass, ops.wave, np.zeros(dof_map.n_dofs),
                         dt=1.05 * dt_max, steps=10, dt_max=dt_max)

    def test_determinism(self, small_system):
        mesh, dof_map, ops, dt_max = small_system
        u0 = initial_random(11, 1.0, dof_map.n_dofs)
        probes = ProbeSet(nodes=np.array([0]), dofs=np.array([0]), window=(0, 50))
        runs = [leapfrog_run(ops.mass, ops.wave, u0, dt=0.5 * dt_max, steps=50,
                             probes=probes, dt_max=dt_max)
                for _ in range(2)]
        assert np.array_equal(runs[0].probe_signals, runs[1].probe_signals)
        assert np.array_equal(runs[0].energy, runs[1].energy)

    def test_snapshots(self, small_system):
        _, dof_map, ops, dt_max = small_system
        u0 = initial_random(5, 1.0, dof_map.n_dofs)
        res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.5 * dt_max, steps=40,
                           snapshot_every=20, dt_max=dt_max)
        assert [s for s, _ in res.snapshots] == [0, 20, 40]


class TestProbes:
    def test_snap_to_representative(self, small_system):
        mesh, dof_map, ops, _ = small_system
        target = mesh.vertices[dof_map.dof_to_node[7]]
        ps = snap_probes(mesh, dof_map, [target + 1e-6], (1000, 2000), dt=1e-3)
        assert ps.dofs[0] == 7
        assert ps.nodes[0] == dof_map.dof_to_node[7]

    def test_boundary_nodes_snap_to_their_own_dof(self, small_system):
        # a probe exactly on a boundary node that is not its class's
        # representative must read that class's dof, not a nearer representative
        mesh, dof_map, _, _ = small_system
        nodes = np.flatnonzero(dof_map.dof_to_node[dof_map.node_to_dof]
                               != np.arange(len(mesh.vertices)))
        assert len(nodes) == 71
        ps = snap_probes(mesh, dof_map, mesh.vertices[nodes], (1000, 2000), dt=1e-3)
        assert np.array_equal(ps.dofs, dof_map.node_to_dof[nodes])
        assert np.array_equal(ps.nodes, dof_map.dof_to_node[ps.dofs])

    def test_early_window_warns(self, small_system):
        mesh, dof_map, _, _ = small_system
        with pytest.warns(UserWarning):
            snap_probes(mesh, dof_map, [[0, 0, 0]], (0, 100), dt=1e-3)

    def test_forced_window_silent(self, small_system):
        import warnings
        mesh, dof_map, _, _ = small_system
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snap_probes(mesh, dof_map, [[0, 0, 0]], (0, 100), dt=1e-3,
                        force_window=True)

    def test_window_sampling_count(self, small_system):
        _, dof_map, ops, dt_max = small_system
        u0 = initial_random(9, 1.0, dof_map.n_dofs)
        probes = ProbeSet(nodes=np.array([0]), dofs=np.array([0]), window=(10, 30))
        res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.5 * dt_max, steps=40,
                           probes=probes, dt_max=dt_max)
        assert res.probe_signals.shape == (21, 1)


class TestSolveCounting:
    """Solves are made through `evolve.pcg_solve`, looked up at call time,
    and fill `info["iterations"]`: the benchmark counts them that way."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import pdswave.evolve as evolve
        counts = []
        raw = evolve.pcg_solve

        def counting(mass, b, *args, info=None, **kwargs):
            own = {} if info is None else info
            x = raw(mass, b, *args, info=own, **kwargs)
            counts.append(own["iterations"])
            return x
        monkeypatch.setattr(evolve, "pcg_solve", counting)
        return counts

    def test_leapfrog_makes_one_solve_per_step_plus_start(self, small_system, solves):
        _, dof_map, ops, dt_max = small_system
        u0 = initial_random(4, 1.0, dof_map.n_dofs)
        res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.5 * dt_max, steps=7,
                           dt_max=dt_max)
        assert len(solves) == 7 + 1
        assert res.solve_iterations.tolist() == solves and sum(solves) > 0

    def test_spectral_bound_solves_are_counted(self, small_system, solves):
        _, _, ops, _ = small_system
        info = {}
        estimate_spectral_bound(ops.mass, ops.wave, info=info)
        assert len(solves) == info["iterations"] >= 2
        assert 0 <= info["relative_change"] <= 1e-4


class CountingMatrix(SparseSymMatrix):
    """The same matrix, counting its products."""

    def __init__(self, matrix: SparseSymMatrix):
        super().__init__(matrix.lower)
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return super().__matmul__(x)


class TestProductCounts:
    """Per step: one wave product, and a mass product per PCG iteration plus
    the solver's final residual check, which also gives the next mass level."""

    def counted_run(self, ops, u0, dt, steps):
        mass, wave = CountingMatrix(ops.mass), CountingMatrix(ops.wave)
        res = leapfrog_run(mass, wave, u0, dt=dt, steps=steps, solve_tol=1e-10)
        return res, mass.products, wave.products

    def test_products_per_step(self, small_system):
        _, dof_map, ops, dt_max = small_system
        u0 = initial_random(12, 1.0, dof_map.n_dofs)
        _, mass0, wave0 = self.counted_run(ops, u0, 0.9 * dt_max, 0)
        k = 25
        res, mass_k, wave_k = self.counted_run(ops, u0, 0.9 * dt_max, k)
        step_iterations = res.solve_iterations[1:]
        assert len(step_iterations) == k and step_iterations.min() > 0
        assert wave_k - wave0 == k
        assert mass_k - mass0 == int((step_iterations + 1).sum())

    def test_next_mass_level_is_the_product_of_the_solution(self, small_system,
                                                             monkeypatch):
        import pdswave.evolve as evolve
        _, dof_map, ops, dt_max = small_system
        raw = evolve.pcg_solve
        checked = []

        def checking(mass, b, *args, info=None, **kwargs):
            x = raw(mass, b, *args, info=info, **kwargs)
            if info["iterations"]:
                checked.append(info["mass_x"].tobytes() == (mass @ x).tobytes())
            return x
        monkeypatch.setattr(evolve, "pcg_solve", checking)
        leapfrog_run(ops.mass, ops.wave, initial_random(13, 1.0, dof_map.n_dofs),
                     dt=0.9 * dt_max, steps=10)
        assert len(checked) == 11 and all(checked)


def the_domain_of(mesh):
    from pdswave.domain import build_domain
    return build_domain()


def test_domain_diameter_constant():
    assert DOMAIN_DIAMETER == pytest.approx(0.776279, abs=1e-6)
