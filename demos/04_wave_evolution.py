"""Leapfrog evolution of a bump: stability bound, conservation, reversibility.

The discrete energy of the two-level scheme is conserved to solver
precision over thousands of steps, and the scheme runs backwards to the
initial state after swapping the last two levels.
"""

import numpy as np

from pdswave.assembly import assemble, build_dof_map, estimate_spectral_bound
from pdswave.domain import build_domain
from pdswave.evolve import initial_bump, leapfrog_run, make_preconditioner
from pdswave.meshing import generate_mesh

dom = build_domain()
mesh = generate_mesh(dom, 4, 4)
dof_map = build_dof_map(mesh)
ops = assemble(mesh, dof_map)
print(f"mesh: {len(mesh.tets)} tets, {dof_map.n_dofs} identified dofs")

lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave)
print(f"largest generalized eigenvalue {lam:.4e} -> dt_max = {dt_max:.6e}")

precond = make_preconditioner(ops.mass)
u0 = initial_bump(mesh, dof_map, dom, (0, 0, 0), 0.3, 100.0)
dt = 0.95 * dt_max
steps = 4000
res = leapfrog_run(ops.mass, ops.wave, u0, dt=dt, steps=steps,
                   dt_max=dt_max, precond=precond, solve_tol=1e-13)
print(f"\n{steps} steps at dt = {dt:.6e} (T = {steps * dt:.2f})")
print(f"  E(dt) = {res.energy[1]:.14e}")
print(f"  E(T)  = {res.energy[-1]:.14e}")
print(f"  drift = {abs(res.energy[-1] - res.energy[1]) / res.energy[1]:.2e}")

fwd = leapfrog_run(ops.mass, ops.wave, u0, dt=dt, steps=100,
                   dt_max=dt_max, precond=precond, solve_tol=1e-14)
back = leapfrog_run(ops.mass, ops.wave, fwd.u_prev, dt=dt, steps=99,
                    u_prev=fwd.u_cur, dt_max=dt_max, precond=precond,
                    solve_tol=1e-14)
err = np.linalg.norm(back.u_cur - u0) / np.linalg.norm(u0)
print(f"\n100 steps forward + reversed restart: return error {err:.2e}")
