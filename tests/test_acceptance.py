"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy criteria share
session fixtures (the n=8/L=8 mesh and its operators).
"""

import math
import time

import numpy as np
import pytest

from pdswave.assembly import assemble, build_dof_map, estimate_spectral_bound
from pdswave.errors import EnergyBlowup
from pdswave.evolve import (DOMAIN_DIAMETER, ProbeSet, initial_bump, leapfrog_run,
                            make_preconditioner, snap_probes)
from pdswave.icosian import generate_group, orbit_vertices
from pdswave.meshing import EXACT_DOMAIN_VOLUME, generate_mesh, weighted_volume
from pdswave.spectra import (analyze_probe_signals, dft_magnitude, exact_spectrum,
                             find_peaks)

CHI_SET = (0.0, math.pi / 5, math.pi / 3, 2 * math.pi / 5, math.pi / 2,
           3 * math.pi / 5, 2 * math.pi / 3, 4 * math.pi / 5, math.pi)


def announce(num, name, passed, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if passed else 'FAIL'}  {detail}")
    return passed


@pytest.fixture(scope="module")
def system8(the_domain):
    mesh = generate_mesh(the_domain, 8, 8)
    dof_map = build_dof_map(mesh)
    ops = assemble(mesh, dof_map)
    return mesh, dof_map, ops


@pytest.fixture(scope="module")
def system4(the_domain):
    mesh = generate_mesh(the_domain, 4, 4)
    dof_map = build_dof_map(mesh)
    ops = assemble(mesh, dof_map)
    lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
    return mesh, dof_map, ops, dt_max


@pytest.fixture(scope="module")
def system2(the_domain):
    mesh = generate_mesh(the_domain, 2, 2)
    dof_map = build_dof_map(mesh)
    ops = assemble(mesh, dof_map)
    lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
    return mesh, dof_map, ops, dt_max


def test_criterion_1_group_construction(the_domain):
    t0 = time.time()
    table = generate_group()
    ok = len(table) == 120
    worst_chi = max(min(abs(e.chi - c) for c in CHI_SET) for e in table.elements)
    ok &= worst_chi < 1e-12
    fifth = [e.quat.as_array() for e in table.elements
             if abs(e.chi - math.pi / 5) < 1e-12]
    ok &= len(fifth) == 12
    # every distance-pi/5 element coincides with one of the twelve listed maps
    listed = np.array([the_domain.face_map(i).quat.as_array() for i in range(1, 13)])
    worst_match = max(np.abs(listed - g).max(axis=1).min() for g in fifth)
    ok &= worst_match < 1e-12
    assert announce(1, "group construction", ok,
                    f"120 elements, chi defect {worst_chi:.1e}, "
                    f"g_i match {worst_match:.1e}, {time.time() - t0:.2f}s")


def test_criterion_2_cell_orbit(the_domain):
    t0 = time.time()
    pts, labels = orbit_vertices(generate_group(), the_domain.vertices4)
    counts = tuple(int(c) for c in np.bincount(labels))
    ok = len(pts) == 600 and counts == (24, 64, 64, 64, 96, 96, 192)
    assert announce(2, "120-cell orbit", ok,
                    f"600 vertices, families {counts}, {time.time() - t0:.2f}s")


def test_criterion_3_geometry_identities(the_domain):
    t0 = time.time()
    v4 = the_domain.vertices4
    defects = [np.abs(np.einsum("ij,ij->i", v4, v4) - 1).max(),
               np.abs(v4[:, 0] - v4[0, 0]).max()]
    for f in the_domain.faces:
        verts = v4[list(f.cycle)]
        defects.append(np.abs(verts[:, 1:] @ f.normal
                              - verts[:, 0] / ((1 + math.sqrt(5)) / 2) ** 2).max())
        vis = verts[:, 1:]
        defects.append(np.abs(np.einsum("ij,jk,ik->i", vis, f.ellipsoid, vis) - 1).max())
    rng = np.random.default_rng(2024)
    flip = 0.0
    for i in range(1, 13):
        cyc = v4[list(the_domain.face(i).cycle)]
        w = rng.dirichlet(np.ones(5), size=200)
        pts = w @ cyc
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        j = the_domain.face_map(i).inverse_index
        for X in pts[:, 1:]:
            lhs = the_domain.map_face_normal(i, X)
            rhs = -the_domain.outward_normal(j, the_domain.identify(X, i))
            flip = max(flip, float(np.abs(lhs - rhs).max()))
    ok = max(defects) < 1e-12 and flip < 1e-12
    assert announce(3, "geometry identities", ok,
                    f"vertex/face defect {max(defects):.1e}, "
                    f"normal flip {flip:.1e}, {time.time() - t0:.1f}s")


def test_criterion_4_mesh_volume(the_domain):
    t0 = time.time()
    errors = {}
    for n in (2, 4, 8):
        mesh = generate_mesh(the_domain, n, n)
        vol = weighted_volume(mesh)
        errors[n] = abs(vol - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME
    orders = [math.log2(errors[2] / errors[4]), math.log2(errors[4] / errors[8])]
    ok = errors[8] <= 1e-3 and all(1.6 <= p <= 2.4 for p in orders)
    assert announce(4, "mesh volume", ok,
                    f"errors {errors[2]:.2e}/{errors[4]:.2e}/{errors[8]:.2e}, "
                    f"orders {orders[0]:.2f}, {orders[1]:.2f}, {time.time() - t0:.1f}s")


def test_criterion_5_operator_properties(the_domain, system8):
    t0 = time.time()
    _, dof_map, ops = system8
    one = np.ones(dof_map.n_dofs)
    kernel = np.abs(ops.wave @ one).max()
    ok = kernel <= 1e-12 * ops.stiffness.max_abs()

    rng = np.random.default_rng(11)
    neg = 0.0
    for _ in range(100):
        u = rng.standard_normal(dof_map.n_dofs)
        neg = min(neg, ops.wave.quad_form(u) / (u @ u))
    ok &= neg >= -1e-12

    mass_rel = abs(ops.mass.total_sum() - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME
    ok &= mass_rel <= 2e-3

    import test_assembly
    from pdswave.quadrature import quadrature_rule
    mesh1 = generate_mesh(the_domain, 1, 1)
    dm1 = build_dof_map(mesh1)
    ops1 = assemble(mesh1, dm1)
    ref = test_assembly.dense_reference_assembly(mesh1, dm1, quadrature_rule(4))
    oracle_defect = max(
        np.abs(o.to_dense() - r).max() / max(np.abs(r).max(), 1e-300)
        for o, r in zip(ops1, ref))
    ok &= oracle_defect < 1e-14
    assert announce(5, "operator properties", ok,
                    f"kernel {kernel:.1e}, min quad form {neg:.1e}, "
                    f"mass sum rel {mass_rel:.1e}, oracle defect {oracle_defect:.1e}, "
                    f"{time.time() - t0:.1f}s")


def test_criterion_6_conservation(the_domain, system4):
    t0 = time.time()
    mesh, dof_map, ops, dt_max = system4
    u0 = initial_bump(mesh, dof_map, the_domain, (0.0, 0.0, 0.0), 0.3, 100.0)
    res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.95 * dt_max, steps=10_000,
                       dt_max=dt_max, solve_tol=1e-13)
    drift = abs(res.energy[-1] - res.energy[1]) / abs(res.energy[1])
    ok = drift <= 1e-9
    assert announce(6, "energy conservation", ok,
                    f"E(dt) = {res.energy[1]:.12e}, E(T) = {res.energy[-1]:.12e}, "
                    f"drift {drift:.2e}, {time.time() - t0:.0f}s")


@pytest.mark.slow
def test_criterion_7_eigenvalues(the_domain, system8):
    t0 = time.time()
    mesh, dof_map, ops = system8
    lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
    dt = 0.95 * dt_max
    first = math.ceil(DOMAIN_DIAMETER / dt)
    samples = math.ceil(50.0 / dt) + 1
    steps = first + samples - 1
    probes = snap_probes(mesh, dof_map,
                         [[0.10, 0.06, 0.12], [0.0, 0.0, 0.0],
                          [-0.15, 0.1, 0.05], [0.05, -0.18, 0.1]],
                         (first, steps), dt)
    u0 = initial_bump(mesh, dof_map, the_domain, (0.10, 0.06, 0.12), 0.25, 100.0)
    res = leapfrog_run(ops.mass, ops.wave, u0, dt=dt, steps=steps,
                       probes=probes, dt_max=dt_max, solve_tol=1e-10)
    report = analyze_probe_signals(res.probe_signals, dt, count=7,
                                   min_prominence=1e-3, tol=0.10)
    peaks_q = np.array([p.q for p in report.peaks])
    detail = []
    ok = True
    for _, q2 in exact_spectrum(7):
        if q2 <= 0:
            continue
        q = math.sqrt(q2)
        best = peaks_q[np.abs(peaks_q - q).argmin()] if len(peaks_q) else math.nan
        err = abs(best * best - q2) / q2
        detail.append(f"{q2:.0f}->{best * best:.1f} ({100 * err:.2f}%)")
        ok &= err <= 0.03

    # pipeline check: synthetic tones at exact eigenvalues through the same analysis
    tgrid = np.arange(samples) * dt
    synth = sum(np.cos(math.sqrt(q2) * tgrid)
                for _, q2 in exact_spectrum(7) if q2 > 0)
    spec = dft_magnitude(synth, dt)
    sp = find_peaks(spec, min_prominence=0.05)
    sq = np.array([p.q for p in sp])
    synth_ok = all(np.abs(sq - math.sqrt(q2)).min() < spec.resolution
                   for _, q2 in exact_spectrum(7) if q2 > 0)

    passed = ok and synth_ok
    announce(7, "eigenvalue recovery", passed,
             f"window T = {samples * dt:.1f}, dq = {report.resolution:.3f}; "
             + "; ".join(detail)
             + f"; synthetic within one bin: {synth_ok}; {time.time() - t0:.0f}s")
    assert synth_ok, "synthetic-tone pipeline check failed"
    assert ok, ("detected peaks sit at the discrete operator eigenvalues, "
                "which at this resolution lie above the exact values by more "
                "than the required 3% for the upper modes; see printed detail")


def test_pcg_iteration_regression(system8):
    """Not a numbered criterion: cold-start solve cost baseline on the n=8 mesh."""
    _, dof_map, ops = system8
    from pdswave.evolve import make_preconditioner, pcg_solve
    rng = np.random.default_rng(0)
    b = ops.mass @ rng.standard_normal(dof_map.n_dofs)
    info = {}
    pcg_solve(ops.mass, b, make_preconditioner(ops.mass), tol=1e-12, info=info)
    print(f"\n[regression] pcg on n=8 mass: {info['iterations']} iterations at tol 1e-12")
    assert info["iterations"] <= 200


def test_criterion_8_reversibility(the_domain, system2):
    t0 = time.time()
    mesh, dof_map, ops, dt_max = system2
    u0 = initial_bump(mesh, dof_map, the_domain, (0.0, 0.0, 0.0), 0.3, 100.0)
    dt = 0.95 * dt_max
    fwd = leapfrog_run(ops.mass, ops.wave, u0, dt=dt, steps=100,
                       dt_max=dt_max, solve_tol=1e-14)
    back = leapfrog_run(ops.mass, ops.wave, fwd.state.u_prev, dt=dt, steps=99,
                        u_prev=fwd.state.u_cur, dt_max=dt_max, solve_tol=1e-14)
    err = np.linalg.norm(back.state.u_cur - u0) / np.linalg.norm(u0)
    ok = err <= 1e-8
    assert announce(8, "reversibility", ok,
                    f"return error {err:.2e}, {time.time() - t0:.1f}s")


def test_criterion_9_stability_boundary(the_domain, system2):
    t0 = time.time()
    mesh, dof_map, ops, dt_max = system2
    u0 = initial_bump(mesh, dof_map, the_domain, (0.0, 0.0, 0.0), 0.3, 100.0)
    blew_up = False
    blow_step = None
    try:
        leapfrog_run(ops.mass, ops.wave, u0, dt=1.05 * dt_max, steps=1000,
                     dt_max=dt_max, force=True)
    except EnergyBlowup as exc:
        blew_up = True
        blow_step = str(exc).rsplit("step", 1)[-1].strip()
    stable = True
    try:
        res = leapfrog_run(ops.mass, ops.wave, u0, dt=0.95 * dt_max, steps=1000,
                           dt_max=dt_max)
        drift = abs(res.energy[-1] - res.energy[1]) / abs(res.energy[1])
    except EnergyBlowup:
        stable = False
        drift = math.inf
    ok = blew_up and stable
    assert announce(9, "stability boundary", ok,
                    f"1.05 dt_max diverged at step {blow_step}; "
                    f"0.95 dt_max drift {drift:.2e}, {time.time() - t0:.1f}s")
