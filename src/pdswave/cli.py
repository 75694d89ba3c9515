"""Command-line pipeline: mesh, assemble, run, spectrum, validate, report.

Each stage reads and writes plain files (Tetgen-style mesh, Matrix Market
operators, CSV signals, JSON reports), so stages can be re-run and composed
independently.  Exit codes: 0 ok, 1 usage, 2 mesh, 3 evolution, 4 analysis.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import assemble, build_dof_map, estimate_spectral_bound
from .domain import build_domain
from .errors import (ClassSizeError, DegenerateTet, EnergyBlowup, NoConvergence,
                     NotInDomain, OutsideUnitBall, ParseError, PeriodicityViolation,
                     SnapFailure, TooShort, UnstableTimeStep, WeightSingularity)
from .evolve import (DOMAIN_DIAMETER, initial_bump, initial_random, leapfrog_run,
                     make_preconditioner, snap_probes)
from .icosian import cell_to_json, generate_group, group_to_json, orbit_vertices
from .mesh_io import _read_table, _write_rows, export_mesh, import_mesh, write_vtk_mesh
from .meshing import generate_mesh, validate_mesh
from .quadrature import QUADRATURE
from .spectra import analyze_probe_signals

EXIT_OK, EXIT_USAGE, EXIT_MESH, EXIT_EVOLUTION, EXIT_ANALYSIS = 0, 1, 2, 3, 4

_MESH_ERRORS = (ParseError, PeriodicityViolation, SnapFailure, DegenerateTet,
                ClassSizeError, WeightSingularity, NotInDomain, OutsideUnitBall)
_EVOLUTION_ERRORS = (NoConvergence, EnergyBlowup, UnstableTimeStep)
_ANALYSIS_ERRORS = (TooShort,)
# the stages of `run` whose wall times manifest.json records, in run order
RUN_STAGES = ("mesh", "assemble", "spectral_bound", "leapfrog", "write")
# BLAS and OpenMP thread settings that manifest.json records: a long dot
# product split over threads can change results in their last bits
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _default_out() -> str:
    return os.environ.get("PDSWAVE_OUT", "out")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _tolerance(text: str) -> float:
    """The finite positive float of a `--tol` value, else a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


def _add_mesh_source(p):
    p.add_argument("--n", type=int, default=4, help="edge subdivisions per pentagon edge")
    p.add_argument("--layers", type=int, default=4, help="radial layers")
    p.add_argument("--import-node", help="read mesh vertices from a .node file")
    p.add_argument("--import-ele", help="read mesh tets from an .ele file")
    p.add_argument("--tol", type=_tolerance, default=1e-6,
                   help="geometric tolerance for imported meshes")


def _get_mesh(args, domain, validate: bool):
    """The generated or imported mesh and, with `validate`, its validation
    report (else None)."""
    if args.import_node or args.import_ele:
        if not (args.import_node and args.import_ele):
            raise ParseError("--import-node and --import-ele must be given together")
        return import_mesh(domain, args.import_node, args.import_ele, tol=args.tol,
                           validate=validate)
    mesh = generate_mesh(domain, args.n, args.layers)
    return mesh, validate_mesh(domain, mesh) if validate else None


def _write_json(path, data):
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))


def _checked_keys(where, data, /, **required) -> dict:
    """`data` if it is a JSON object holding every key of `required` as an
    instance of that key's tuple of types (a JSON true or false is none of
    them), else a ValueError naming `where` and the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    for key, kind in required.items():
        if key not in data:
            raise ValueError(f"{where}: no {key!r}")
        if isinstance(data[key], bool) or not isinstance(data[key], kind):
            raise ValueError(f"{where}: {key!r} is {data[key]!r}, "
                             f"expected {' or '.join(k.__name__ for k in kind)}")
    return data


def _read_run_file(path: Path, **required) -> dict:
    """The JSON object of a run file (manifest.json, spectrum_report.json),
    checked to hold the `required` keys; malformed files raise ValueError."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    return _checked_keys(path, data, **required)


def _write_csv(path, header: str, row_format: str, *columns) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, row_format, *columns)


@contextmanager
def _timed(stage_s: dict, name: str):
    """Record the wall seconds of the block under stage_s[name]."""
    start = time.perf_counter()
    yield
    stage_s[name] = time.perf_counter() - start


def cmd_mesh(args) -> int:
    domain = build_domain()
    mesh, report = _get_mesh(args, domain, validate=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_mesh(mesh, out / "mesh.node", out / "mesh.ele")
    report["mesh_hash"] = mesh.content_hash()
    _write_json(out / "mesh_report.json", report)
    if args.vtk:
        write_vtk_mesh(out / "mesh.vtk", mesh)
    print(f"mesh: {report['tet_count']} tets, {report['node_count']} nodes")
    print(f"volume sum {report['volume_sum']:.10f} "
          f"(exact {report['volume_exact']:.10f}, "
          f"relative error {report['volume_relative_error']:.3e})")
    print(f"boundary edges in [{report['boundary_edge_min']:.6e}, "
          f"{report['boundary_edge_max']:.6e}], "
          f"{report['periodic_pairs']} periodic pairs")
    return EXIT_OK


def cmd_assemble(args) -> int:
    # nothing here prints or records a validation report, so none is built
    mesh, _ = _get_mesh(args, build_domain(), validate=False)
    dof_map = build_dof_map(mesh)
    ops = assemble(mesh, dof_map)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    info = {
        "mesh_hash": mesh.content_hash(),
        "n_dofs": dof_map.n_dofs,
        "n_interior": dof_map.n_interior,
        "per_edge_count": dof_map.per_edge_count,
        "per_face_count": dof_map.per_face_count,
        "corner_classes": dof_map.n_corner_classes,
        "quadrature_degree": QUADRATURE.degree,
        "mass_nnz_lower": ops.mass.nnz_lower,
        "mass_sum": ops.mass.total_sum(),
    }
    _write_json(out / "dof_report.json", info)
    if args.export_matrices:
        ops.mass.save_matrix_market(out / "mass.mtx")
        ops.stiffness.save_matrix_market(out / "stiffness.mtx")
        ops.radial.save_matrix_market(out / "radial.mtx")
    print(f"assembled {dof_map.n_dofs} dofs "
          f"({dof_map.n_interior} interior, {dof_map.n_corner_classes} corner classes)")
    print(f"sum of mass entries {ops.mass.total_sum():.10f}")
    return EXIT_OK


def _parse_points(text):
    """(k, 3) points from "x,y,z;x,y,z;..." with k >= 1, else ValueError."""
    try:
        pts = np.array([[float(v) for v in chunk.split(",")]
                        for chunk in text.split(";") if chunk.strip()])
    except ValueError:
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"--probes must be one or more x,y,z triples "
                         f"separated by ';', got {text!r}")
    return pts


def _parse_dt(text):
    """The finite positive float of a `run --dt` value other than "auto", else ValueError."""
    try:
        dt = float(text)
    except ValueError:
        dt = math.nan
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"--dt must be 'auto' or finite and positive, got {text!r}")
    return dt


def cmd_run(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.snapshot_every < 0:
        raise ValueError(f"--snapshot-every must be 0 (none) or positive, "
                         f"got {args.snapshot_every}")
    if args.window and not 0 <= args.window[0] <= args.window[1] <= args.steps:
        raise ValueError(f"--window NI NF needs 0 <= NI <= NF <= --steps = {args.steps}, "
                         f"got {args.window[0]} {args.window[1]}")
    if not (math.isfinite(args.solve_tol) and args.solve_tol > 0):
        raise ValueError(f"--solve-tol must be finite and positive, got {args.solve_tol}")
    if args.random is not None and args.random < 0:
        raise ValueError(f"--random SEED must be non-negative, got {args.random}")
    if not math.isfinite(args.amplitude):
        raise ValueError(f"--amplitude must be finite, got {args.amplitude}")
    if not (math.isfinite(args.bump[3]) and args.bump[3] > 0):
        raise ValueError(f"--bump radius must be finite and positive, got {args.bump[3]}")
    dt = None if args.dt == "auto" else _parse_dt(args.dt)
    points = _parse_points(args.probes)
    domain = build_domain()
    if (np.einsum("ij,ij->i", points, points) >= 1.0).any() \
            or not domain.contains(points, tol=1e-9).all():
        raise NotInDomain(f"probe points {args.probes!r} are not all in the domain")
    if not domain.contains(args.bump[:3], tol=1e-9):
        raise NotInDomain(f"--bump center {args.bump[:3]} is outside the domain")
    stage_s: dict = {}
    with _timed(stage_s, "mesh"):
        mesh, mesh_report = _get_mesh(args, domain, validate=True)
    with _timed(stage_s, "assemble"):
        dof_map = build_dof_map(mesh)
        ops = assemble(mesh, dof_map)
    precond = make_preconditioner(ops.mass)

    power: dict = {}
    with _timed(stage_s, "spectral_bound"):
        lam, dt_max = estimate_spectral_bound(ops.mass, ops.wave, info=power)
    if dt is None:
        dt = 0.95 * dt_max
    if args.random is not None:
        u0 = initial_random(args.random, args.amplitude, dof_map.n_dofs)
        initial = {"kind": "random", "seed": args.random, "amplitude": args.amplitude}
    else:
        x0, r0 = args.bump[:3], args.bump[3]
        u0 = initial_bump(mesh, dof_map, domain, x0, r0, args.amplitude)
        initial = {"kind": "bump", "center": list(x0), "radius": r0,
                   "amplitude": args.amplitude}

    first = args.window[0] if args.window else math.ceil(DOMAIN_DIAMETER / dt)
    if first > args.steps:
        raise ValueError(f"--steps {args.steps} ends before the first recorded step "
                         f"{first} (one domain crossing at dt = {dt:.6e}); raise "
                         "--steps or pass --window")
    last = args.window[1] if args.window else args.steps
    probes = snap_probes(mesh, dof_map, points, (first, last), dt,
                         force_window=args.force_window)

    with _timed(stage_s, "leapfrog"):
        result = leapfrog_run(ops.mass, ops.wave, u0, dt=dt, steps=args.steps,
                              probes=probes, snapshot_every=args.snapshot_every,
                              dt_max=dt_max, force=args.force,
                              solve_tol=args.solve_tol, precond=precond)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _timed(stage_s, "write"):
        energy_steps = np.arange(len(result.energy))
        _write_csv(out / "energy.csv", "step,time,energy", "%d,%.17g,%.17g\n",
                   energy_steps, energy_steps * dt, result.energy)
        n_probes = len(probes.dofs)
        probe_steps = np.arange(first, first + len(result.probe_signals))
        _write_csv(out / "probes.csv",
                   "step,time," + ",".join(f"probe_{k}" for k in range(n_probes)),
                   "%d,%.17g" + ",%.17g" * n_probes + "\n",
                   probe_steps, probe_steps * dt, result.probe_signals)
        for step, vec in result.snapshots:
            write_vtk_mesh(out / f"snapshot_{step:06d}.vtk", mesh,
                           {"u": vec[dof_map.node_to_dof]})
    e0, e1, eT = result.energy[0], result.energy[1], result.energy[-1]
    drift = abs(eT - e1) / abs(e1) if e1 != 0 else None
    per_step = result.solve_iterations[-args.steps:]
    manifest = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mesh_hash": mesh.content_hash(),
        "mesh": {k: mesh_report[k] for k in ("tet_count", "node_count",
                                             "volume_relative_error")},
        "n_dofs": dof_map.n_dofs,
        "dt": dt, "dt_max": dt_max, "lambda_max": lam,
        "steps": args.steps,
        "initial": initial,
        "solve_tol": args.solve_tol,
        "preconditioner": "jacobi",
        "pcg_iterations": int(result.solve_iterations.sum()),
        "pcg_per_step": {"min": int(per_step.min()), "mean": float(per_step.mean()),
                         "max": int(per_step.max())},
        "power_iterations": power["iterations"],
        "power_relative_change": power["relative_change"],
        "energy_drift": drift,
        "probe_nodes": [int(v) for v in probes.nodes],
        "window": [first, last],
        "stage_s": stage_s,
        # the process's largest resident set so far, in MB (ru_maxrss is KiB on Linux)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    _write_json(out / "manifest.json", manifest)
    print(f"dt = {dt:.6e} (dt_max {dt_max:.6e}, lambda_max {lam:.6e})")
    print(f"E_d(0) = {e0:.14e}")
    print(f"E_d(T) = {eT:.14e}")
    if drift is not None:
        print(f"relative energy drift {drift:.3e}")
    return EXIT_OK


def _signal_row(header):
    return [("step", np.int64), ("time", np.float64),
            ("values", np.float64, (len(header) - 2,))]


def _read_signals(path):
    header, rows = _read_table(path, _signal_row, delimiter=",")
    if rows is None:
        raise ValueError(f"{path}: no header line")
    return header[2:], rows["step"], rows["time"], rows["values"]


def cmd_spectrum(args) -> int:
    if not (math.isfinite(args.prominence) and args.prominence >= 0):
        raise ValueError(f"--prominence must be finite and >= 0, got {args.prominence}")
    if not (math.isfinite(args.match_tol) and args.match_tol > 0):
        raise ValueError(f"--match-tol must be finite and positive, got {args.match_tol}")
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.window and not 0 <= args.window[0] <= args.window[1]:
        raise ValueError(f"--window NI NF needs 0 <= NI <= NF, "
                         f"got {args.window[0]} {args.window[1]}")
    signals_path = Path(args.signals)
    if args.dt is None:
        mpath = signals_path.parent / "manifest.json"
        if not mpath.exists():
            raise TooShort("no --dt given and no manifest.json next to the signals")
        dt = float(_read_run_file(mpath, dt=_NUMBER)["dt"])
        source = f"dt in {mpath}"
    else:
        dt, source = args.dt, "--dt"
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"{source} must be finite and positive, got {dt}")
    names, steps, _, values = _read_signals(signals_path)
    if args.window:
        keep = (steps >= args.window[0]) & (steps <= args.window[1])
        steps, values = steps[keep], values[keep]
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"signals must be finite, got {values[i, j]} at sample {i} "
                         f"of probe {j} (step {steps[i]}, column {names[j]})")
    if len(steps) and steps[0] * dt < DOMAIN_DIAMETER and not args.force_window:
        print(f"window starts at t = {steps[0] * dt:.4f} < domain diameter "
              f"{DOMAIN_DIAMETER:.6f}; transients pollute the spectrum "
              "(pass --force-window to proceed)", file=sys.stderr)
        return EXIT_ANALYSIS

    report = analyze_probe_signals(values, dt, count=args.count,
                                   min_prominence=args.prominence,
                                   tol=args.match_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    avg = report.spectrum
    bins = np.arange(len(avg.magnitude))
    _write_csv(out / "spectrum.csv", "bin,q,magnitude", "%d,%.17g,%.17g\n",
               bins, avg.bin_to_q(bins), avg.magnitude)
    (out / "spectrum_report.json").write_text(report.to_json() + "\n")
    print(report.table())
    print(f"resolution dq = {report.resolution:.6f}, "
          f"{len(report.matches)} matched, {len(report.missing)} missing")
    return EXIT_OK


def cmd_validate(args) -> int:
    domain = build_domain()
    _, report = import_mesh(domain, args.import_node, args.import_ele, tol=args.tol)
    print(json.dumps(report, indent=1, sort_keys=True))
    # import_mesh has oriented every tet and rejected flat ones, so the
    # volumes as read ("all_volumes_positive") do not decide the exit code
    ok = (report["vertices_inside"] and report["conforming"]
          and report["partner_involution"])
    return EXIT_OK if ok else EXIT_MESH


def cmd_report(args) -> int:
    wrote = False
    if args.dump_group or args.dump_cell:
        table = generate_group()
        if args.dump_group:
            Path(args.dump_group).write_text(group_to_json(table) + "\n")
            print(f"wrote {args.dump_group}")
            wrote = True
        if args.dump_cell:
            domain = build_domain()
            pts, labels = orbit_vertices(table, domain.vertices4)
            Path(args.dump_cell).write_text(cell_to_json(pts, labels) + "\n")
            print(f"wrote {args.dump_cell}")
            wrote = True
    if args.dump_domain:
        Path(args.dump_domain).write_text(build_domain().to_json() + "\n")
        print(f"wrote {args.dump_domain}")
        wrote = True
    if args.run_dir:
        run_dir = Path(args.run_dir)
        mpath = run_dir / "manifest.json"
        manifest = _read_run_file(mpath, steps=(int,), dt=_NUMBER, n_dofs=(int,),
                                  mesh_hash=(str,))
        print(f"run of {manifest['steps']} steps, dt = {manifest['dt']:.6e}, "
              f"{manifest['n_dofs']} dofs (mesh {manifest['mesh_hash'][:12]})")
        _checked_keys(mpath, manifest, **{
            key: kind for key, kind in (("energy_drift", _NUMBER_OR_NULL),
                                        ("peak_rss_mb", _NUMBER),
                                        ("power_pcg_iterations", _NUMBER))
            if key in manifest})
        drift = manifest.get("energy_drift")
        print("relative energy drift |E_T - E_1| / |E_1| = "
              + ("n/a" if drift is None else f"{drift:.3e}"))
        per_step = manifest.get("pcg_per_step")
        if per_step:
            _checked_keys(f"{mpath}: pcg_per_step", per_step,
                          min=_NUMBER, mean=_NUMBER, max=_NUMBER)
            _checked_keys(mpath, manifest, pcg_iterations=_NUMBER)
            print(f"PCG iterations per step: min {per_step['min']}, "
                  f"mean {per_step['mean']:.2f}, max {per_step['max']} "
                  f"({manifest['pcg_iterations']} in all)")
        if "power_iterations" in manifest:
            _checked_keys(mpath, manifest, power_iterations=_NUMBER,
                          power_relative_change=_NUMBER)
            # written only while the bound made inner mass solves
            pcg = manifest.get("power_pcg_iterations")
            method = "LOBPCG" if pcg is None else "power"
            print(f"spectral bound: {manifest['power_iterations']} {method} iterations, "
                  f"final relative change {manifest['power_relative_change']:.3e}"
                  + ("" if pcg is None else f", {pcg} PCG iterations in its mass solves"))
        stage_s = manifest.get("stage_s")
        if stage_s:
            _checked_keys(f"{mpath}: stage_s", stage_s,
                          **{name: _NUMBER for name in RUN_STAGES if name in stage_s})
            print("stage wall times: " + ", ".join(
                f"{name} {stage_s[name]:.3f} s" for name in RUN_STAGES if name in stage_s))
        if "peak_rss_mb" in manifest:
            print(f"peak RSS after the write stage: {manifest['peak_rss_mb']:.1f} MB")
        threads = manifest.get("threads")
        if threads:
            _checked_keys(f"{mpath}: threads", threads)
            print("threads: " + ", ".join(
                f"{var}={'unset' if threads[var] is None else threads[var]}"
                for var in THREAD_VARS if var in threads))
        rpath = run_dir / "spectrum_report.json"
        if rpath.exists():
            rep = _read_run_file(rpath, matches=(list,))
            for i, m in enumerate(rep["matches"]):
                _checked_keys(f"{rpath}: matches[{i}]", m, beta=_NUMBER, exact_q2=_NUMBER,
                              detected_q2=_NUMBER, relative_error=_NUMBER,
                              **({"detected_mu": _NUMBER} if "detected_mu" in m else {}))
            print(f"{'beta':>6} {'exact q^2':>12} {'numerical':>14} {'rel error':>13} "
                  f"{'leapfrog mu':>14}")
            for m in rep["matches"]:
                mu = m.get("detected_mu")      # absent from older reports
                print(f"{m['beta']:>6.0f} {m['exact_q2']:>12.0f} "
                      f"{m['detected_q2']:>14.4f} {m['relative_error']:>13.4e} "
                      + (f"{'-':>14}" if mu is None else f"{mu:>14.4f}"))
        wrote = True
    if not wrote:
        print("nothing to do; pass --run-dir or --dump-* options", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pdswave",
                     description="wave computation on the dodecahedral space")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate or import a periodic mesh")
    _add_mesh_source(p)
    p.add_argument("--out", default=_default_out(), help="output directory (default: $PDSWAVE_OUT or ./out)")
    p.add_argument("--vtk", action="store_true", help="also write mesh.vtk")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("assemble", help="build the identified-dof operators")
    _add_mesh_source(p)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--export-matrices", action="store_true",
                   help="write mass/stiffness/radial in Matrix Market format")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("run", help="evolve an initial condition")
    _add_mesh_source(p)
    p.add_argument("--out", default=_default_out())
    p.add_argument("--dt", default="auto", help="time step, or 'auto' for 0.95 dt_max")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--bump", type=float, nargs=4, metavar=("X", "Y", "Z", "R"),
                   default=[0.0, 0.0, 0.0, 0.3], help="bump center and radius")
    p.add_argument("--random", type=int, default=None, metavar="SEED",
                   help="random initial data instead of a bump")
    p.add_argument("--amplitude", type=float, default=100.0)
    p.add_argument("--probes", default="0,0,0;0.1,0.05,0.15;-0.12,0.2,0.02",
                   help="semicolon-separated probe points x,y,z")
    p.add_argument("--window", type=int, nargs=2, metavar=("NI", "NF"), default=None)
    p.add_argument("--snapshot-every", type=int, default=0)
    p.add_argument("--solve-tol", type=float, default=1e-13)
    p.add_argument("--force", action="store_true",
                   help="allow dt beyond the stability bound")
    p.add_argument("--force-window", action="store_true",
                   help="allow recording before one domain crossing")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("spectrum", help="extract eigenvalues from probe signals")
    p.add_argument("--signals", required=True, help="probes.csv from a run")
    p.add_argument("--out", default=_default_out())
    p.add_argument("--dt", type=float, default=None,
                   help="sample step (default: from manifest.json next to signals)")
    p.add_argument("--window", type=int, nargs=2, metavar=("NI", "NF"), default=None)
    p.add_argument("--count", type=int, default=10, help="exact eigenvalues to match")
    p.add_argument("--prominence", type=float, default=0.01)
    p.add_argument("--match-tol", type=float, default=0.05)
    p.add_argument("--force-window", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("validate", help="validate an imported mesh")
    p.add_argument("--import-node", required=True)
    p.add_argument("--import-ele", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="summarize a run; dump group/domain JSON")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--dump-group", default=None, metavar="FILE")
    p.add_argument("--dump-cell", default=None, metavar="FILE")
    p.add_argument("--dump-domain", default=None, metavar="FILE")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _MESH_ERRORS as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_MESH
    except _EVOLUTION_ERRORS as exc:
        print(f"evolution error: {exc}", file=sys.stderr)
        return EXIT_EVOLUTION
    except _ANALYSIS_ERRORS as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
