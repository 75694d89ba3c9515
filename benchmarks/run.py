"""Run one benchmark workload of pdswave and print its metrics.

    python3 benchmarks/run.py --workload transient8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, nothing needs installing.  One process runs whole iterations of the
workload, each on the same seed-derived inputs, for as long as --seconds
allows (at least the workload's minimum count).  Every iteration checks
its outputs and counts its stage calls and checks as operations.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced iterations: the traced ones give the per-layer metrics from
spans, the pairs give the tracing overhead, and all of them must agree on
their counts.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it show every
metric with its unit, the run metadata, and any failure.  The full result
(and, traced, every span) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 150.0     # start no iteration that would end past this

# units of printed metrics; other names ending in _s are seconds, the rest counts
UNITS = {
    "step_ms": "ms/step", "sim_time_per_s": "1/s", "peak_rss_mb": "MB",
    "eig_max_rel_err": "fraction", "fail_rate": "fraction",
    "evolve.energy_drift": "fraction", "trace.overhead_frac": "fraction",
    "evolve.matvec_bytes_per_step": "B", "mesh_io.bytes_written": "B",
}
# medians over untraced iterations; peak_rss_mb and fail_rate are per run
END_TO_END = ("setup_s", "wall_s", "step_ms", "sim_time_per_s", "eig_max_rel_err")
COUNTS = ("meshing.tets", "assembly.n_dofs", "assembly.nnz_lower",
          "assembly.power_iters", "evolve.pcg_calls", "evolve.pcg_iters_mean",
          "evolve.pcg_iters_max")


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, params: dict) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "params": params,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def matvec_bytes(mat) -> int:
    """Computed bytes one product with the full symmetric CSR matrix moves.

    Values and column indices of the full pattern (both triangles), the row
    pointer, one read of x and one write of y; cache reuse is ignored.
    """
    lower = mat.lower
    idx = lower.indices.itemsize
    nnz_full = 2 * lower.nnz - int((lower.diagonal() != 0).sum())
    return nnz_full * (lower.data.itemsize + idx) + (mat.n + 1) * idx + 16 * mat.n


def run_iteration(wl, params: dict, seed: int, traced: bool, scratch: Path):
    from tracing import Recorder, installed
    from workloads import Outcome, StageFailed, clear_caches

    clear_caches()
    gc.collect()
    rec = Recorder(trace=traced)
    out = Outcome()
    start = time.perf_counter()
    with installed(rec):
        try:
            wl.fn(params, seed, out, rec, scratch)
        except StageFailed:
            pass
        except Exception as exc:   # a defect of the benchmark itself
            traceback.print_exc(file=sys.stderr)
            out.aborted = True
            out.failures.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start

    m = {"wall_s": wall}
    if rec.leapfrog_calls:
        out.check("one_leapfrog_call", len(rec.leapfrog_calls) == 1)
        call = rec.leapfrog_calls[0]
        lf = call.exit - call.enter
        energy = call.result.energy
        m["setup_s"] = call.enter - start
        m["step_ms"] = 1e3 * lf / call.steps
        m["sim_time_per_s"] = call.dt * call.steps / lf
        m["evolve.energy_drift"] = float(abs(energy[-1] - energy[1]) / abs(energy[1]))
        solves = rec.leapfrog_solves
        out.fingerprint.update({
            "assembly.n_dofs": call.mass.n,
            "assembly.nnz_lower": call.mass.nnz_lower,
            "assembly.power_iters": len(rec.power_solves),
            "evolve.pcg_calls": len(solves),
            "evolve.pcg_iters_mean": statistics.fmean(solves),
            "evolve.pcg_iters_max": max(solves),
        })
        # per step: one wave product, a mass product for the new level, and
        # per solve the initial residual, one per iteration, the final check
        mass_products = statistics.fmean(solves) + 3
        m["evolve.matvec_bytes_per_step"] = (mass_products * matvec_bytes(call.mass)
                                             + matvec_bytes(call.wave))
    elif not out.aborted:
        out.check("one_leapfrog_call", False)
    m.update(out.extra)
    m.update((k, out.fingerprint[k]) for k in COUNTS if k in out.fingerprint)
    if traced:
        total, own = rec.totals()
        for name, t in total.items():
            m[name + "_s"] = t
        if "evolve.leapfrog" in own:
            m["evolve.leapfrog_self_s"] = own["evolve.leapfrog"]
            # only the solves that step the wave, not the power iteration's
            m["evolve.pcg_solve_s"] = rec.child_total("evolve.leapfrog",
                                                      "evolve.pcg_solve")
        if "mesh_io.export" in total or "mesh_io.vtk" in total:
            m["mesh_io.bytes_written"] = rec.bytes_written
    return {"wall": wall, "traced": traced, "metrics": m, "outcome": out,
            "spans": rec.to_json() if traced else None}


def run(args, wl, params: dict) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    need = max(wl.min_iterations, 2 if args.trace else 1)
    iterations = []
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        it = run_iteration(wl, params, args.seed, traced, OUT_DIR)
        iterations.append(it)
        if len(iterations) == 1:
            # what one fresh process doing the workload once holds at its peak;
            # later iterations add only allocator history
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if it["outcome"].aborted:
            break
        elapsed = time.perf_counter() - started
        longest = max(i["wall"] for i in iterations)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(iterations) >= need and elapsed + longest > args.seconds:
            break
    # every iteration repeats the same inputs, so its counts and hashes must too
    first = iterations[0]["outcome"].fingerprint
    for it in iterations[1:]:
        fp = it["outcome"].fingerprint
        it["outcome"].check("repeat_identical", fp == first,
                            f"{fp} vs {first}")
    return {"iterations": iterations, "peak_rss_mb": rss_mb}


def summarize(res: dict) -> tuple[dict, dict, int, int]:
    iters = res["iterations"]
    attempted = sum(i["outcome"].attempted for i in iters)
    failed = sum(len(i["outcome"].failures) for i in iters)

    def medians(group, names):
        out = {}
        for name in names:
            vals = [i["metrics"][name] for i in group if name in i["metrics"]]
            if vals:
                out[name] = statistics.median(vals)
        return out

    plain = [i for i in iters if not i["traced"]]
    traced = [i for i in iters if i["traced"]]
    e2e = medians(plain, END_TO_END)
    e2e["peak_rss_mb"] = res["peak_rss_mb"]
    e2e["fail_rate"] = failed / max(attempted, 1)
    layer = {}
    if traced:
        layer = medians(traced, sorted({k for i in traced for k in i["metrics"]}
                                       - set(END_TO_END)))
        layer["trace.overhead_frac"] = (statistics.median(i["wall"] for i in traced)
                                        / statistics.median(i["wall"] for i in plain)
                                        - 1.0)
    return e2e, layer, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdswave" / "__init__.py").is_file():
        print(f"error: no pdswave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # fixed before numpy loads, so BLAS and OpenMP use one thread on any host
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import pdswave
    if Path(pdswave.__file__).resolve().parent != ROOT / "src" / "pdswave":
        print(f"error: imported pdswave from {pdswave.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    params = {**wl.params, **(wl.smoke if args.smoke else {})}
    meta = metadata(args, params)

    res = run(args, wl, params)
    e2e, layer, attempted, failed = summarize(res)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = layer if args.trace else e2e
    metrics = {}
    missing = []
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in chosen:
            metrics[m["name"]] = {"value": chosen[m["name"]], "unit": m["unit"]}
        else:
            missing.append(f"metric {m['name']} was not measured")
    failed += len(missing)

    print("# " + json.dumps(meta, sort_keys=True))
    for i, it in enumerate(res["iterations"]):
        kind = "traced" if it["traced"] else "untraced"
        print(f"# iteration {i} ({kind}): {it['wall']:.3f} s, "
              f"{it['outcome'].attempted} operations")
        for failure in it["outcome"].failures:
            print(f"#   FAILED {failure}")
    for failure in missing:
        print(f"# FAILED {failure}")
    for name, value in {**e2e, **layer}.items():
        print(f"{name:32s} {value:>16.6g} {unit_of(name)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"meta": meta, "end_to_end": e2e, "per_layer": layer,
              "attempted": attempted, "failed": failed, "missing": missing,
              "iterations": [{"wall": it["wall"], "traced": it["traced"],
                              "metrics": it["metrics"],
                              "checks": it["outcome"].checks,
                              "fingerprint": it["outcome"].fingerprint,
                              "failures": it["outcome"].failures}
                             for it in res["iterations"]]}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        spans = [{"iteration": k, "spans": it["spans"]}
                 for k, it in enumerate(res["iterations"]) if it["traced"]]
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
