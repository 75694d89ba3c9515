"""Conservative leapfrog evolution with preconditioned CG mass solves.

The two-level recurrence

    mass (U^{n+1} - 2 U^n + U^{n-1}) + dt^2 wave U^n = 0

conserves the discrete energy

    E(n dt) = < mass (U^n - U^{n-1})/dt, (U^n - U^{n-1})/dt >
              + < wave U^{n-1}, U^n >

exactly in exact arithmetic; the only drift comes from the inexact mass
solves, so the solver tolerance is kept tight and solves are warm-started
from the levels already held.

Each step makes one product with `wave` and (iterations + 1) products with
`mass`: one per PCG iteration plus the solver's final true-residual check,
whose product `mass @ U^{n+1}` is the next step's mass level.  The loop
holds the last four levels and their mass products.  A solve starts from
the cubic extrapolation x0 = 4 U^n - 6 U^{n-1} + 4 U^{n-2} - U^{n-3}
(Fischer 1998, CMAME 163), or from the linear 2 U^n - U^{n-1} while fewer
levels are held: the first two steps after the Taylor start or after a
restart from a level pair.  `mass @ x0`, like the right-hand side's
`mass (2 U^n - U^{n-1})`, is that combination of the held mass levels, not
a fresh product.  Every product is written by `SparseSymMatrix.matvec`
into a given array: the wave product into a work vector reused from step
to step, the mass products into one buffer per solve, whose last product
is the next mass level.  So the loop allocates no vector per step beyond
the solve's, and PCG none per iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy

from .assembly import DofMap, SparseSymMatrix
from .domain import DOMAIN_DIAMETER, FundamentalDomain, lift
from .errors import EnergyBlowup, NoConvergence, NotInDomain, UnstableTimeStep
from .icosian import nearest
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
    target_sq = (tol * b_norm) ** 2
    if r @ r <= target_sq:
        return done(x, mass_x, 0)
    z = precond * r
    p = z.copy()
    ap = np.empty(n)
    rz = float(r @ z)
    for it in range(max_iter):
        mass.matvec(p, ap)
        pap = float(p @ ap)
        if not 0.0 < pap < math.inf:
            raise NoConvergence(f"pcg: breakdown, p.Ap = {pap:.3e} at iteration {it + 1}")
        alpha = rz / pap
        # in place for contiguous float64 x and r; otherwise daxpy returns a copy
        x = daxpy(p, x, a=alpha)
        r = daxpy(ap, r, a=-alpha)
        if r @ r <= target_sq:
            # the check's product goes into ap: it is returned as mass_x, or
            # overwritten by the next iteration after a restart
            mass_x = mass.matvec(x, ap)
            np.subtract(b, mass_x, out=r)
            if r @ r <= 4 * target_sq:
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

    A point equidistant from several vertices snaps to the lowest vertex id.
    The nearest vertex may be a boundary node that is not its class's
    representative; its dof is still the one it carries.
    """
    _, nodes = nearest(mesh.vertices, points)
    dofs = dof_map.node_to_dof[nodes].astype(np.int64)
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


def _extrapolate(levels: list, out: np.ndarray) -> np.ndarray:
    """The predictor of the next level from the held levels, newest first,
    written into `out`: cubic, 4 v_0 - 6 v_1 + 4 v_2 - v_3, once four are
    held, and linear, 2 v_0 - v_1, before."""
    coefs = (4.0, -6.0, 4.0, -1.0) if len(levels) == 4 else (2.0, -1.0)
    np.multiply(levels[0], coefs[0], out=out)
    for coef, level in zip(coefs[1:], levels[1:]):
        daxpy(level, out, a=coef)
    return out


def leapfrog_run(mass: SparseSymMatrix, wave: SparseSymMatrix,
                 u0: np.ndarray, dt: float, steps: int,
                 u_prev: np.ndarray | None = None,
                 probes: ProbeSet | None = None,
                 snapshot_every: int = 0,
                 dt_max: float | None = None, force: bool = False,
                 solve_tol: float = 1e-13,
                 precond: np.ndarray | None = None,
                 energy_guard: float = 10.0) -> LeapfrogResult:
    """Run the explicit scheme for `steps` >= 0 steps, keeping a snapshot
    every `snapshot_every` >= 0 steps (0 keeps none).

    The previous level is built from u0 at rest by a second-order Taylor
    start; passing `u_prev` instead restarts from an explicit level pair,
    e.g. for time reversal.  Each solve starts from the cubic extrapolation
    of the last four levels, or from the linear one of the last two while
    fewer are held (see the module docstring).  A non-finite energy, or one
    beyond `energy_guard` times E(dt), raises EnergyBlowup.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0 (0 for none), got {snapshot_every}")
    if dt_max is not None and not force and dt > 0.95 * dt_max * (1 + 1e-12):
        raise UnstableTimeStep(f"dt {dt} exceeds 0.95 * dt_max = {0.95 * dt_max}; "
                               "pass force=True to override")
    if precond is None:
        precond = make_preconditioner(mass)
    info: dict = {}
    iterations = []
    dt2 = dt * dt

    u_cur = np.array(u0, dtype=float)
    n_dofs = len(u_cur)
    # work vectors reused by every step: the wave product W U^n, the
    # right-hand side, the predictor x0 and its mass product; x0 holds
    # dt^2 W U^n while the right-hand side is formed, and after each solve
    # rhs and x0 hold the energy's level differences
    wave_u, rhs, x0, mass_x0 = np.empty((4, n_dofs))
    if u_prev is not None:
        u_prev = np.array(u_prev, dtype=float)
    else:
        z = pcg_solve(mass, wave.matvec(u_cur, wave_u), precond, tol=solve_tol,
                      info=info)
        iterations.append(info["iterations"])
        u_prev = u_cur - 0.5 * dt2 * z

    def energy_of(u_new, u_old, mass_new, mass_old, wave_old):
        np.subtract(mass_new, mass_old, out=rhs)
        np.subtract(u_new, u_old, out=x0)
        return float(rhs @ x0) / dt2 + float(wave_old @ u_new)

    # the held levels U^n, U^{n-1}, ... (at most four) and their mass products
    levels = [u_cur, u_prev]
    mass_levels = [mass @ u for u in levels]
    energy = np.empty(steps + 1)
    energy[0] = energy_of(u_cur, u_prev, *mass_levels, wave.matvec(u_prev, wave_u))
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

    for n in range(1, steps + 1):
        u_cur = levels[0]
        mass_cur, mass_prev = mass_levels[:2]
        wave.matvec(u_cur, wave_u)
        np.multiply(wave_u, dt2, out=x0)
        np.multiply(mass_cur, 2.0, out=rhs)
        rhs -= mass_prev
        rhs -= x0                                  # M (2 U^n - U^{n-1}) - dt^2 W U^n
        _extrapolate(levels, x0)
        _extrapolate(mass_levels, mass_x0)
        u_new = pcg_solve(mass, rhs, precond, tol=solve_tol, x0=x0, info=info,
                          mass_x0=mass_x0)
        iterations.append(info["iterations"])
        mass_new = info["mass_x"]
        if mass_new is mass_x0:
            # an immediate return hands back the predictor's product as the
            # new mass level, so the next predictor needs another buffer
            mass_x0 = np.empty(n_dofs)
        e = energy_of(u_new, u_cur, mass_new, mass_cur, wave_u)
        energy[n] = e
        if not math.isfinite(e):
            raise EnergyBlowup(f"energy {e} at step {n}")
        if e_ref is None:
            e_ref = e
        elif abs(e) > energy_guard * max(abs(e_ref), 1e-300):
            raise EnergyBlowup(
                f"energy {e:.6e} exceeded {energy_guard} x E(dt) = "
                f"{energy_guard * e_ref:.6e} at step {n}")
        levels = [u_new] + levels[:3]
        mass_levels = [mass_new] + mass_levels[:3]
        if probes is not None and probes.window[0] <= n <= probes.window[1]:
            signals[sample_count] = u_new[probes.dofs]
            sample_count += 1
        if snapshot_every and n % snapshot_every == 0:
            snapshots.append((n, u_new.copy()))

    if signals is not None:
        signals = signals[:sample_count]
    return LeapfrogResult(u_cur=levels[0], u_prev=levels[1], energy=energy,
                          probe_signals=signals, snapshots=snapshots,
                          solve_iterations=np.array(iterations, dtype=np.int64))
