"""Conservative leapfrog evolution with preconditioned CG mass solves.

The two-level recurrence

    mass (U^{n+1} - 2 U^n + U^{n-1}) + dt^2 wave U^n = 0

conserves the discrete energy

    E(n dt) = < mass (U^n - U^{n-1})/dt, (U^n - U^{n-1})/dt >
              + < wave U^{n-1}, U^n >

exactly in exact arithmetic; the only drift comes from the inexact mass
solves, so the solver tolerance is kept tight and solves are warm-started
from a linear predictor.

Each step makes one product with `wave` and (iterations + 1) products with
`mass`: one per PCG iteration plus the solver's final true-residual check,
whose product `mass @ U^{n+1}` is the next step's mass level.  The
predictor's product `mass (2 U^n - U^{n-1})` is formed from the two mass
levels already held, not by a fresh product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .assembly import DofMap, SparseSymMatrix
from .domain import DOMAIN_DIAMETER, FundamentalDomain, lift
from .errors import EnergyBlowup, NoConvergence, NotInDomain, UnstableTimeStep
from .meshing import TetMesh


# -- initial data --------------------------------------------------------------

def bump_profile(domain: FundamentalDomain, points: np.ndarray,
                 center, radius: float, amplitude: float) -> np.ndarray:
    """Smooth compactly supported bump around `center` in spherical distance.

    amplitude * exp(d / (d - radius)) inside d < radius, zero outside;
    continuous at d = radius with all derivatives vanishing.
    """
    center = np.asarray(center, dtype=float)
    if not domain.contains(center, tol=1e-9):
        raise NotInDomain(f"bump center {center} is outside the domain")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"bump radius must be finite and positive, got {radius}")
    q0 = lift(center)
    q = lift(points)
    d = np.arccos(np.clip(q @ q0, -1.0, 1.0))
    out = np.zeros(len(d))
    inside = d < radius
    out[inside] = amplitude * np.exp(d[inside] / (d[inside] - radius))
    return out


def initial_bump(mesh: TetMesh, dof_map: DofMap, domain: FundamentalDomain,
                 center=(0.0, 0.0, 0.0), radius: float = 0.3,
                 amplitude: float = 100.0) -> np.ndarray:
    """Bump evaluated at the dof representative vertices."""
    pts = mesh.vertices[dof_map.dof_to_node]
    return bump_profile(domain, pts, center, radius, amplitude)


def initial_random(seed: int, amplitude: float, n_dofs: int) -> np.ndarray:
    """Reproducible uniform noise in [-amplitude, amplitude] (PCG64 stream)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.uniform(-amplitude, amplitude, n_dofs)


# -- preconditioners ------------------------------------------------------------

def make_preconditioner(mass: SparseSymMatrix, kind: str = "jacobi") -> np.ndarray:
    """Diagonal (Jacobi) preconditioner of the mass matrix: its inverse diagonal.

    The weighted P1 mass matrix is spectrally equivalent to its diagonal, so
    the diagonal is the only preconditioner.  The kind "ic0" is a deprecated
    alias for it.
    """
    if kind == "ic0":
        warnings.warn('preconditioner kind "ic0" is deprecated; using "jacobi"',
                      DeprecationWarning, stacklevel=2)
    elif kind != "jacobi":
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    return 1.0 / mass.diagonal()


# -- linear solver ---------------------------------------------------------------

def pcg_solve(mass: SparseSymMatrix, b: np.ndarray,
              precond: np.ndarray | None = None, tol: float = 1e-12,
              max_iter: int | None = None, x0: np.ndarray | None = None,
              info: dict | None = None,
              mass_x0: np.ndarray | None = None) -> np.ndarray:
    """Preconditioned conjugate gradients to relative residual tol.

    `precond` is the inverse mass diagonal of `make_preconditioner`, made
    here when not given.  `mass_x0` is `mass @ x0` when the caller already
    holds it; without it the start costs one product (none for a cold
    start, x0 = None).  If `info` is a dict it receives the iteration count
    under "iterations" and `mass @ x` under "mass_x", the product of the
    final residual check (`mass_x0` on an immediate return, zeros for
    b = 0).  A right-hand side that is not finite, or a search direction
    along which the operator is not positive (breakdown), raises
    NoConvergence at once.
    """
    n = len(b)
    if max_iter is None:
        max_iter = max(200, int(10 * math.sqrt(n)))
    if precond is None:
        precond = make_preconditioner(mass)
    b_norm = float(np.linalg.norm(b))
    if not math.isfinite(b_norm):
        raise NoConvergence(f"pcg: right-hand side norm is {b_norm}")

    def done(x, mass_x, iterations):
        if info is not None:
            info["iterations"] = iterations
            info["mass_x"] = mass_x
        return x

    if b_norm == 0.0:
        return done(np.zeros(n), np.zeros(n), 0)
    if x0 is None:
        x, mass_x = np.zeros(n), np.zeros(n)
    else:
        x = np.array(x0, dtype=float)
        mass_x = mass @ x if mass_x0 is None else mass_x0
    r = b - mass_x
    target = tol * b_norm
    if np.linalg.norm(r) <= target:
        return done(x, mass_x, 0)
    z = precond * r
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    for it in range(max_iter):
        ap = mass @ p
        pap = float(p @ ap)
        if not 0.0 < pap < math.inf:
            raise NoConvergence(f"pcg: breakdown, p.Ap = {pap:.3e} at iteration {it + 1}")
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        if np.linalg.norm(r) <= target:
            mass_x = mass @ x
            np.subtract(b, mass_x, out=r)
            if np.linalg.norm(r) <= 2 * target:
                return done(x, mass_x, it + 1)
            # drift safeguard: restart from the true residual
            np.multiply(precond, r, out=z)
            p[:] = z
            rz = float(r @ z)
            continue
        np.multiply(precond, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NoConvergence(
        f"pcg: residual {np.linalg.norm(b - (mass @ x)) / b_norm:.3e} "
        f"after {max_iter} iterations (target {tol:.1e})")


# -- states, probes, energy ------------------------------------------------------

@dataclass
class ProbeSet:
    nodes: np.ndarray        # representative mesh vertex of each probe's dof
    dofs: np.ndarray
    window: tuple            # (first, last) recorded step, inclusive


def snap_probes(mesh: TetMesh, dof_map: DofMap, points, window: tuple,
                dt: float, force_window: bool = False) -> ProbeSet:
    """Snap each probe point to the dof of its nearest mesh vertex.

    The nearest vertex may be a boundary node that is not its class's
    representative; its dof is still the one it carries.
    """
    _, nodes = cKDTree(mesh.vertices).query(np.atleast_2d(np.asarray(points, dtype=float)))
    dofs = dof_map.node_to_dof[np.atleast_1d(nodes)].astype(np.int64)
    first, last = window
    if first * dt < DOMAIN_DIAMETER and not force_window:
        warnings.warn(
            f"recording window starts at t = {first * dt:.3f} before one domain "
            f"crossing ({DOMAIN_DIAMETER:.6f}); transients will pollute the spectrum")
    return ProbeSet(nodes=dof_map.dof_to_node[dofs], dofs=dofs, window=(first, last))


def discrete_energy(mass: SparseSymMatrix, wave: SparseSymMatrix,
                    u_cur: np.ndarray, u_prev: np.ndarray, dt: float) -> float:
    """Conserved quadratic form of the leapfrog recurrence."""
    v = (u_cur - u_prev) / dt
    return float(v @ (mass @ v)) + float(u_cur @ (wave @ u_prev))


@dataclass
class LeapfrogResult:
    u_cur: np.ndarray                    # level at the last step
    u_prev: np.ndarray                   # level one step before it
    energy: np.ndarray                   # energy at steps 0..n (0 = initial pair)
    probe_signals: np.ndarray | None     # (samples, n_probes)
    # PCG iterations of each solve: the start solve first (none when the run
    # restarts from a level pair), then one solve per step
    solve_iterations: np.ndarray
    snapshots: list = field(repr=False, default_factory=list)


def leapfrog_run(mass: SparseSymMatrix, wave: SparseSymMatrix,
                 u0: np.ndarray, dt: float, steps: int,
                 u_prev: np.ndarray | None = None,
                 probes: ProbeSet | None = None,
                 snapshot_every: int = 0,
                 dt_max: float | None = None, force: bool = False,
                 solve_tol: float = 1e-13,
                 precond: np.ndarray | None = None,
                 energy_guard: float = 10.0) -> LeapfrogResult:
    """Run the explicit scheme for `steps` steps.

    The previous level is built from u0 at rest by a second-order Taylor
    start; passing `u_prev` instead restarts from an explicit level pair,
    e.g. for time reversal.  Solves warm-start from a linear predictor.  A
    non-finite energy, or one beyond `energy_guard` times E(dt), raises
    EnergyBlowup.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt_max is not None and not force and dt > 0.95 * dt_max * (1 + 1e-12):
        raise UnstableTimeStep(f"dt {dt} exceeds 0.95 * dt_max = {0.95 * dt_max}; "
                               "pass force=True to override")
    if precond is None:
        precond = make_preconditioner(mass)
    info: dict = {}
    iterations = []

    u_cur = np.asarray(u0, dtype=float).copy()
    if u_prev is not None:
        u_prev = np.asarray(u_prev, dtype=float).copy()
    else:
        a0 = wave @ u_cur
        z = pcg_solve(mass, a0, precond, tol=solve_tol, info=info)
        iterations.append(info["iterations"])
        u_prev = u_cur - 0.5 * dt * dt * z

    m_cur = mass @ u_cur
    m_prev = mass @ u_prev
    energy = np.empty(steps + 1)
    energy[0] = (float((m_cur - m_prev) @ (u_cur - u_prev)) / (dt * dt)
                 + float((wave @ u_prev) @ u_cur))
    if not math.isfinite(energy[0]):
        raise EnergyBlowup(f"energy {energy[0]} at step 0")
    e_ref = None

    signals = None
    sample_count = 0
    if probes is not None:
        first, last = probes.window
        signals = np.empty((max(0, last - first + 1), len(probes.dofs)))
        if first == 0:
            signals[0] = u_cur[probes.dofs]
            sample_count = 1
    snapshots = []
    if snapshot_every:
        snapshots.append((0, u_cur.copy()))

    dt2 = dt * dt
    for n in range(1, steps + 1):
        a_cur = wave @ u_cur
        m_pred = 2.0 * m_cur - m_prev              # mass @ the predictor x0
        rhs = m_pred - dt2 * a_cur
        x0 = 2.0 * u_cur - u_prev
        u_new = pcg_solve(mass, rhs, precond, tol=solve_tol, x0=x0, info=info,
                          mass_x0=m_pred)
        iterations.append(info["iterations"])
        m_new = info["mass_x"]
        e = float((m_new - m_cur) @ (u_new - u_cur)) / dt2 + float(a_cur @ u_new)
        energy[n] = e
        if not math.isfinite(e):
            raise EnergyBlowup(f"energy {e} at step {n}")
        if e_ref is None:
            e_ref = e
        elif abs(e) > energy_guard * max(abs(e_ref), 1e-300):
            raise EnergyBlowup(
                f"energy {e:.6e} exceeded {energy_guard} x E(dt) = "
                f"{energy_guard * e_ref:.6e} at step {n}")
        u_prev, u_cur = u_cur, u_new
        m_prev, m_cur = m_cur, m_new
        if probes is not None and probes.window[0] <= n <= probes.window[1]:
            signals[sample_count] = u_cur[probes.dofs]
            sample_count += 1
        if snapshot_every and n % snapshot_every == 0:
            snapshots.append((n, u_cur.copy()))

    if signals is not None:
        signals = signals[:sample_count]
    return LeapfrogResult(u_cur=u_cur, u_prev=u_prev, energy=energy,
                          probe_signals=signals, snapshots=snapshots,
                          solve_iterations=np.array(iterations, dtype=np.int64))
