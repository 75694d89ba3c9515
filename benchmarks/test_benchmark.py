"""Smoke tests of the benchmark itself, on tiny sizes (n = L = 2).

    python -m pytest benchmarks -q

Each workload runs once untraced and once traced in its own process.  The
tests check that every metric BENCHMARK.json names is emitted with its
unit, that counts repeat exactly across iterations and between the two
runs, and that the command refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
COUNTS = ("meshing.tets", "assembly.n_dofs", "assembly.nnz_lower",
          "assembly.power_iters", "evolve.pcg_calls", "evolve.pcg_iters_mean",
          "evolve.pcg_iters_max")
# accuracy checks whose thresholds hold only at the real sizes
SIZE_DEPENDENT = {"volume_rel_err", "six_eigenvalues_matched"}


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, *DECLARED["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    out = {}
    for trace in (0, 1):
        proc = _run(ROOT, w, trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        full = json.loads((ROOT / ".bench_out" /
                           f"result-{w}-seed3-trace{trace}.json").read_text())
        out[trace] = (last, full)
    return out


def test_last_line_has_declared_metrics(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        last, _ = runs[trace]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in DECLARED[key]}
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in last["metrics"].values())


def test_only_size_dependent_checks_fail(runs):
    for trace in (0, 1):
        _, full = runs[trace]
        for it in full["iterations"]:
            failed = {name for name, ok in it["checks"].items() if not ok}
            assert failed <= SIZE_DEPENDENT, it["failures"]
            assert len(it["failures"]) == len(failed), it["failures"]


def test_counts_repeat_across_iterations_and_runs(runs):
    traced_run = runs[1][1]["iterations"]
    assert [it["traced"] for it in traced_run][:2] == [False, True]
    for it in traced_run[1:]:
        assert it["checks"]["repeat_identical"]
    plain = runs[0][1]["iterations"][0]["fingerprint"]
    for it in traced_run:
        for name in COUNTS:
            assert it["fingerprint"][name] == plain[name], name


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in DECLARED["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from tracing import Recorder, Span

    rec = Recorder(trace=True)
    rec.spans = [Span(0, "a", 0.0, 10.0, None), Span(1, "b", 1.0, 4.0, 0),
                 Span(2, "c", 2.0, 3.0, 1), Span(3, "b", 5.0, 6.0, 0)]
    assert rec.self_times() == [6.0, 2.0, 1.0, 1.0]
    total, own = rec.totals()
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert rec.child_total("a", "b") == 4.0
