"""The benchmark's workloads: one function per workload, one call per iteration.

Each function drives pdswave through its public functions (looked up on the
module at call time, so the wrappers of `tracing` see the calls), counts
every stage call and every correctness check in an `Outcome`, and leaves
what it measured in the `Outcome` as well.  Inputs depend only on the
parameters and the seed, so every iteration of one run repeats the same
computation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pdswave.assembly as assembly
import pdswave.charts as charts
import pdswave.cli as cli
import pdswave.domain as domain
import pdswave.evolve as evolve
import pdswave.icosian as icosian
import pdswave.meshing as meshing
import pdswave.spectra as spectra

# the lru-cached constructors, saved before any wrapper replaces them
_CACHED = (domain.build_domain, icosian.generate_group)

# probe points and bump of acceptance criterion 7
CRITERION7_PROBES = ((0.10, 0.06, 0.12), (0.0, 0.0, 0.0),
                     (-0.15, 0.1, 0.05), (0.05, -0.18, 0.1))
CRITERION7_BUMP = (0.10, 0.06, 0.12)
VOLUME_TOL = 1e-3        # criterion 4 at n = L = 8


def clear_caches() -> None:
    """Forget the cached domain and group, as a fresh process would."""
    for fn in _CACHED:
        fn.cache_clear()


class StageFailed(Exception):
    """A stage raised; the iteration cannot go on."""


@dataclass
class Outcome:
    """Operations attempted and failed in one iteration, and what it measured.

    An operation is one stage call or one correctness check.
    """

    attempted: int = 0
    aborted: bool = False                          # a stage raised
    failures: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)   # check name -> passed
    fingerprint: dict = field(default_factory=dict)  # must repeat exactly
    extra: dict = field(default_factory=dict)     # workload-specific metrics

    def stage(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.aborted = True
            self.failures.append(f"{getattr(fn, '__name__', fn)}: "
                                 f"{type(exc).__name__}: {exc}")
            raise StageFailed from exc

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        self.checks[name] = ok
        if not ok:
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok


# -- shared setup ----------------------------------------------------------------

def build_system(p: dict, out: Outcome):
    """Domain, mesh, validation, dof map, operators, preconditioner, dt_max."""
    dom = out.stage(domain.build_domain)
    chart = out.stage(charts.triangulate_face_chart, dom, p["n"])
    surface = out.stage(meshing.build_boundary_mesh, dom, chart)
    mesh = out.stage(meshing.build_volume_mesh, dom, surface, p["layers"])
    report = out.stage(meshing.validate_mesh, dom, mesh)
    dof_map = out.stage(assembly.build_dof_map, mesh)
    ops = out.stage(assembly.assemble, mesh, dof_map)
    wave = ops.wave
    precond = out.stage(evolve.make_preconditioner, ops.mass, "ic0")
    _, dt_max = out.stage(assembly.estimate_spectral_bound, ops.mass, wave)

    out.check("dofs_match_formula",
              dof_map.n_dofs == round(dof_map.formula_count()),
              f"{dof_map.n_dofs} vs {dof_map.formula_count()}")
    vol_err = report["volume_relative_error"]
    out.check("volume_rel_err", vol_err <= VOLUME_TOL, f"{vol_err:.3e}")
    kernel = float(np.abs(wave @ np.ones(dof_map.n_dofs)).max())
    out.check("wave_kernel_constants", kernel <= 1e-12 * ops.stiffness.max_abs(),
              f"|wave @ 1| = {kernel:.3e}")
    out.check("dt_max_finite_positive", math.isfinite(dt_max) and dt_max > 0,
              f"{dt_max!r}")
    out.fingerprint["meshing.tets"] = int(len(mesh.tets))
    return dom, mesh, dof_map, ops.mass, wave, precond, dt_max


def _check_energy(out: Outcome, result) -> None:
    out.check("energy_finite", np.isfinite(result.energy).all())


# -- workloads ---------------------------------------------------------------------

def transient8(p: dict, seed: int, out: Outcome, rec, scratch: Path) -> None:
    """Criterion-7-shaped transient: bump, four jittered probes, DFT matching."""
    dom, mesh, dof_map, mass, wave, precond, dt_max = build_system(p, out)
    dt = 0.95 * dt_max
    first = math.ceil(evolve.DOMAIN_DIAMETER / dt)
    samples = math.ceil(p["window"] / dt) + 1
    steps = first + samples - 1
    rng = np.random.default_rng(seed)
    points = np.array(CRITERION7_PROBES) + rng.uniform(
        -p["probe_jitter"], p["probe_jitter"], (len(CRITERION7_PROBES), 3))
    probes = out.stage(evolve.snap_probes, mesh, dof_map, points,
                       (first, steps), dt)
    u0 = out.stage(evolve.initial_bump, mesh, dof_map, dom, CRITERION7_BUMP,
                   p["bump_radius"], 100.0)
    result = out.stage(evolve.leapfrog_run, mass, wave, u0, dt=dt, steps=steps,
                       probes=probes, dt_max=dt_max, solve_tol=p["solve_tol"],
                       precond=precond)
    _check_energy(out, result)
    report = out.stage(spectra.analyze_probe_signals, result.probe_signals, dt,
                       count=7, min_prominence=1e-3, tol=p["match_tol"])
    exact = [q2 for _, q2 in spectra.exact_spectrum(7) if q2 > 0]
    matched = {m.exact_q2: m.relative_error for m in report.matches}
    out.check("six_eigenvalues_matched", all(q2 in matched for q2 in exact),
              f"missing {[q2 for q2 in exact if q2 not in matched]}")
    if matched:
        out.extra["eig_max_rel_err"] = max(matched.values())
    out.extra["spectra.n_fft"] = report.meta["n_fft"]
    out.extra["spectra.peaks"] = len(report.peaks)


def setup12(p: dict, seed: int, out: Outcome, rec, scratch: Path) -> None:
    """Every setup stage at the largest size, then a short leapfrog."""
    _, _, dof_map, mass, wave, precond, dt_max = build_system(p, out)
    u0 = out.stage(evolve.initial_random, seed, 1.0, dof_map.n_dofs)
    result = out.stage(evolve.leapfrog_run, mass, wave, u0, dt=0.95 * dt_max,
                       steps=p["steps"], dt_max=dt_max, solve_tol=p["solve_tol"],
                       precond=precond)
    _check_energy(out, result)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def files8(p: dict, seed: int, out: Outcome, rec, scratch: Path) -> None:
    """The file pipeline through `cli.main`, in a temporary directory."""
    n, layers = str(p["n"]), str(p["layers"])
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        d = Path(tmp)
        commands = [
            ["report", "--dump-group", str(d / "group.json"),
             "--dump-cell", str(d / "cell.json"),
             "--dump-domain", str(d / "domain.json")],
            ["mesh", "--n", n, "--layers", layers, "--out", str(d / "mesh"), "--vtk"],
            ["validate", "--import-node", str(d / "mesh" / "mesh.node"),
             "--import-ele", str(d / "mesh" / "mesh.ele")],
            ["assemble", "--n", n, "--layers", layers, "--out", str(d / "ops"),
             "--export-matrices"],
            ["run", "--import-node", str(d / "mesh" / "mesh.node"),
             "--import-ele", str(d / "mesh" / "mesh.ele"),
             "--random", str(seed), "--steps", str(p["steps"]),
             "--window", str(p["steps"] // 2), str(p["steps"]), "--force-window",
             "--snapshot-every", str(p["steps"] // 2), "--out", str(d / "run")],
            ["spectrum", "--signals", str(d / "run" / "probes.csv"),
             "--out", str(d / "run"), "--force-window"],
            ["report", "--run-dir", str(d / "run")],
        ]
        for argv in commands:
            clear_caches()
            sink = io.StringIO()
            with rec.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = out.stage(cli.main, argv)
            if not out.check(f"cli_{argv[0]}_exit_0", code == 0,
                             f"exit {code}: {sink.getvalue()[-500:]}"):
                out.aborted = True
                return
        generated = json.loads((d / "ops" / "dof_report.json").read_text())
        manifest = json.loads((d / "run" / "manifest.json").read_text())
        mesh_report = json.loads((d / "mesh" / "mesh_report.json").read_text())
        spectrum = json.loads((d / "run" / "spectrum_report.json").read_text())
        out.check("imported_n_dofs_equal_generated",
                  manifest["n_dofs"] == generated["n_dofs"],
                  f"{manifest['n_dofs']} vs {generated['n_dofs']}")
        out.fingerprint["meshing.tets"] = mesh_report["tet_count"]
        out.fingerprint["probes.csv"] = _sha256(d / "run" / "probes.csv")
        out.fingerprint["energy.csv"] = _sha256(d / "run" / "energy.csv")
        out.extra["spectra.n_fft"] = spectrum["meta"]["n_fft"]
        out.extra["spectra.peaks"] = len(spectrum["peaks"])


# why each workload exists is recorded in BENCHMARK.json and README.md
@dataclass(frozen=True)
class Workload:
    fn: object
    params: dict
    smoke: dict            # tiny sizes for the benchmark's own tests
    min_iterations: int


WORKLOADS = {
    # a window of T = 5 resolves 2 pi / T = 1.26, below the 2.0 gap between
    # sqrt(960) and sqrt(1088); T = 4 lost the 1368 peak, and T = 10 (about
    # 70 s of leapfrog) does not fit a run
    "transient8": Workload(
        fn=transient8,
        params={"n": 8, "layers": 8, "window": 5.0, "solve_tol": 1e-10, "bump_radius": 0.25, "probe_jitter": 0.02,
                "match_tol": 0.10},
        smoke={"n": 2, "layers": 2, "window": 2.0},
        min_iterations=1),
    "setup12": Workload(
        fn=setup12,
        params={"n": 12, "layers": 12, "steps": 80, "solve_tol": 1e-10},
        smoke={"n": 2, "layers": 2, "steps": 5},
        min_iterations=2),
    "files8": Workload(
        fn=files8,
        params={"n": 8, "layers": 8, "steps": 240},
        smoke={"n": 2, "layers": 2, "steps": 40},
        min_iterations=2),
}
