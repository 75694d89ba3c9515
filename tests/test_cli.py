import json
import resource
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdswave.cli as cli
import pdswave.mesh_io as mesh_io
import pdswave.meshing as meshing
from pdswave.cli import RUN_STAGES, _read_signals, _write_csv, build_parser, main
from pdswave.mesh_io import write_ele_file, write_node_file
from pdswave.meshing import generate_mesh


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["run", "--n", "2", "--layers", "2", "--steps", "400",
                 "--out", str(out), "--snapshot-every", "200"])
    assert code == 0
    return out


def test_mesh_command(tmp_path):
    out = tmp_path / "m"
    assert main(["mesh", "--n", "2", "--layers", "2", "--out", str(out), "--vtk"]) == 0
    for name in ("mesh.node", "mesh.ele", "mesh.vtk", "mesh_report.json"):
        assert (out / name).exists()
    report = json.loads((out / "mesh_report.json").read_text())
    assert report["tet_count"] == 960
    assert report["conforming"]


def test_assemble_command(tmp_path):
    out = tmp_path / "a"
    assert main(["assemble", "--n", "1", "--layers", "1", "--out", str(out),
                 "--export-matrices"]) == 0
    info = json.loads((out / "dof_report.json").read_text())
    assert info["n_dofs"] == 12
    for name in ("mass.mtx", "stiffness.mtx", "radial.mtx"):
        assert (out / name).exists()


@pytest.fixture(scope="module")
def mesh11_files(tmp_path_factory):
    """Import flags of the generated n = L = 1 mesh's .node and .ele files."""
    out = tmp_path_factory.mktemp("mesh11")
    assert main(["mesh", "--n", "1", "--layers", "1", "--out", str(out)]) == 0
    return ["--import-node", str(out / "mesh.node"), "--import-ele", str(out / "mesh.ele")]


@pytest.mark.parametrize("command, imported, calls", [
    ("mesh", False, 1), ("mesh", True, 1), ("validate", True, 1),
    ("run", False, 1), ("run", True, 1), ("assemble", False, 0), ("assemble", True, 0),
], ids=["mesh", "mesh-import", "validate", "run", "run-import", "assemble",
        "assemble-import"])
def test_only_commands_that_report_validate(tmp_path, monkeypatch, mesh11_files,
                                            command, imported, calls):
    # a command validates its mesh once when it prints or records the report
    # (mesh_report.json, validate's JSON, the manifest), and not otherwise
    made = []
    original = meshing.validate_mesh

    def counting(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    for module in (meshing, mesh_io, cli):
        monkeypatch.setattr(module, "validate_mesh", counting)
    argv = [command] + (mesh11_files if imported else ["--n", "1", "--layers", "1"])
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    if command == "run":
        argv += ["--steps", "20", "--window", "0", "20", "--force-window"]
    assert main(argv) == 0
    assert len(made) == calls


def test_imported_mesh_exports_the_generated_matrices(tmp_path):
    # the .node/.ele round trip keeps every vertex and tet, so assembling the
    # imported mesh writes the generated mesh's Matrix Market files
    gen = ["--n", "2", "--layers", "2"]
    assert main(["mesh", *gen, "--out", str(tmp_path / "m")]) == 0
    assert main(["assemble", *gen, "--out", str(tmp_path / "g"), "--export-matrices"]) == 0
    assert main(["assemble", "--import-node", str(tmp_path / "m" / "mesh.node"),
                 "--import-ele", str(tmp_path / "m" / "mesh.ele"),
                 "--out", str(tmp_path / "i"), "--export-matrices"]) == 0
    for name in ("mass.mtx", "stiffness.mtx", "radial.mtx", "dof_report.json"):
        assert (tmp_path / "i" / name).read_bytes() == (tmp_path / "g" / name).read_bytes()


def test_run_outputs(run_dir):
    for name in ("energy.csv", "probes.csv", "manifest.json",
                 "snapshot_000000.vtk", "snapshot_000200.vtk", "snapshot_000400.vtk"):
        assert (run_dir / name).exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["steps"] == 400
    energy = (run_dir / "energy.csv").read_text().splitlines()
    assert energy[0] == "step,time,energy"
    assert len(energy) == 402                      # header + steps 0..400
    e = [float(line.split(",")[2]) for line in energy[1:]]
    assert abs(e[-1] - e[1]) / abs(e[1]) < 1e-9


def test_rerun_is_byte_identical(run_dir, tmp_path):
    out2 = tmp_path / "again"
    assert main(["run", "--n", "2", "--layers", "2", "--steps", "400",
                 "--out", str(out2), "--snapshot-every", "200"]) == 0
    for name in ("energy.csv", "probes.csv"):
        assert (run_dir / name).read_bytes() == (out2 / name).read_bytes()


def test_spectrum_command(run_dir, tmp_path):
    out = tmp_path / "s"
    code = main(["spectrum", "--signals", str(run_dir / "probes.csv"),
                 "--out", str(out), "--count", "3"])
    assert code == 0
    assert (out / "spectrum.csv").exists()
    rep = json.loads((out / "spectrum_report.json").read_text())
    assert "matches" in rep and "missing" in rep


def test_report_prints_leapfrog_mu(run_dir, tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes((run_dir / "manifest.json").read_bytes())
    assert main(["spectrum", "--signals", str(run_dir / "probes.csv"),
                 "--out", str(tmp_path)]) == 0
    matches = json.loads((tmp_path / "spectrum_report.json").read_text())["matches"]
    assert matches
    capsys.readouterr()
    assert main(["report", "--run-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for m in matches:
        assert (f"{m['detected_q2']:>14.4f} {m['relative_error']:>13.4e} "
                f"{m['detected_mu']:>14.4f}") in out


def test_spectrum_guards_early_window(tmp_path):
    out = tmp_path / "early"
    assert main(["run", "--n", "1", "--layers", "1", "--steps", "60",
                 "--out", str(out), "--window", "0", "60", "--force-window"]) == 0
    code = main(["spectrum", "--signals", str(out / "probes.csv"),
                 "--out", str(tmp_path)])
    assert code == 4
    # forcing the window proceeds
    assert main(["spectrum", "--signals", str(out / "probes.csv"),
                 "--out", str(tmp_path), "--force-window"]) == 0


def test_spectrum_without_probe_columns_is_usage_error(tmp_path, capsys):
    signals = tmp_path / "probes.csv"
    signals.write_text("step,time\n0,0.0\n1,0.01\n2,0.02\n")
    code = main(["spectrum", "--signals", str(signals), "--out", str(tmp_path / "s"),
                 "--dt", "0.01", "--force-window"])
    assert code == 1
    assert "probes >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--prominence", "nan"], "--prominence"),
    (["--prominence", "inf"], "--prominence"),
    (["--prominence", "-0.01"], "--prominence"),
    (["--match-tol", "nan"], "--match-tol"),
    (["--match-tol", "inf"], "--match-tol"),
    (["--match-tol", "-1"], "--match-tol"),
    (["--match-tol", "0"], "--match-tol"),
    (["--count", "0"], "--count"),
    (["--window", "30", "10"], "--window"),
    (["--window", "-5", "10"], "--window"),
])
def test_spectrum_flags_checked_before_reading(tmp_path, capsys, flags, named):
    # the signals file does not exist: a flag error must come first
    out = tmp_path / "s"
    code = main(["spectrum", "--signals", str(tmp_path / "missing.csv"),
                 "--out", str(out), "--dt", "0.01"] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "missing.csv" not in err
    assert not out.exists()


def _write_tone(signals):
    t = 0.01 * np.arange(64)
    _write_csv(signals, "step,time,p0", "%d,%.17g,%.17g\n", np.arange(64), t, np.sin(40 * t))


BAD_DTS = ["0", "-0.01", "nan", "inf"]


# dt is checked before the early-window guard, so the outcome does not
# depend on --force-window
@pytest.mark.parametrize("dt, force_window",
                         [pytest.param(dt, True, id=dt) for dt in BAD_DTS]
                         + [pytest.param(dt, False, id=f"{dt}-guarded") for dt in BAD_DTS])
def test_bad_spectrum_dt_is_usage_error(tmp_path, dt, force_window, capsys):
    signals = tmp_path / "probes.csv"
    _write_tone(signals)
    out = tmp_path / "s"
    argv = ["spectrum", "--signals", str(signals), "--out", str(out), "--dt", dt]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--force-window"] * force_window)
    assert code == 1
    assert "--dt must be finite and positive" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "spectrum.csv").exists()


def test_bad_manifest_dt_is_usage_error(tmp_path, capsys):
    signals = tmp_path / "probes.csv"
    _write_tone(signals)
    (tmp_path / "manifest.json").write_text('{"dt": 0.0}\n')
    out = tmp_path / "s"
    assert main(["spectrum", "--signals", str(signals), "--out", str(out)]) == 1
    assert "manifest.json must be finite and positive" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


def _without(key):
    return lambda manifest: {k: v for k, v in manifest.items() if k != key}


@pytest.mark.parametrize("command, name, content, named", [
    pytest.param("spectrum", "manifest.json", '{"steps": 10}', "'dt'", id="no-dt"),
    pytest.param("spectrum", "manifest.json", "[0.01]", "list", id="array"),
    pytest.param("spectrum", "manifest.json", '{"dt": "fast"}', "'dt'", id="dt-string"),
    pytest.param("spectrum", "manifest.json", "{dt: 0.01}", "not JSON", id="not-json"),
    pytest.param("report", "manifest.json", _without("steps"), "'steps'", id="report-no-steps"),
    pytest.param("report", "manifest.json", _without("power_relative_change"),
                 "'power_relative_change'", id="report-no-power-change"),
    pytest.param("report", "manifest.json",
                 lambda m: {**m, "pcg_per_step": {"min": 1}}, "pcg_per_step: no 'mean'",
                 id="report-bad-per-step"),
    pytest.param("report", "manifest.json", lambda m: {**m, "stage_s": [1.0]},
                 "stage_s: expected a JSON object", id="report-stage-list"),
    pytest.param("report", "spectrum_report.json", '{"matches": [{"beta": 12}]}',
                 "matches[0]: no 'exact_q2'", id="report-bad-match"),
    pytest.param("report", "manifest.json", lambda m: {**m, "energy_drift": "x"},
                 "'energy_drift' is 'x'", id="report-drift-string"),
    pytest.param("report", "manifest.json", lambda m: {**m, "peak_rss_mb": "big"},
                 "'peak_rss_mb' is 'big'", id="report-rss-string"),
    pytest.param("report", "manifest.json",
                 lambda m: {**m, "stage_s": {**m["stage_s"], "leapfrog": "slow"}},
                 "stage_s: 'leapfrog' is 'slow'", id="report-stage-string"),
    pytest.param("report", "manifest.json", lambda m: {**m, "power_pcg_iterations": [3]},
                 "'power_pcg_iterations' is [3]", id="report-power-pcg-list"),
])
def test_malformed_run_file_is_usage_error(run_dir, tmp_path, capsys, command, name,
                                           content, named):
    # content is the file's text, or an edit of the run's manifest
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if command == "report":
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / name).write_text(json.dumps(content(manifest)) if callable(content) else content)
    _write_tone(tmp_path / "probes.csv")
    argv = {"spectrum": ["spectrum", "--signals", str(tmp_path / "probes.csv"),
                         "--out", str(tmp_path / "s"), "--force-window"],
            "report": ["report", "--run-dir", str(tmp_path)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / name}: " in err and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_validate_command(tmp_path, the_domain):
    mesh = generate_mesh(the_domain, 1, 1)
    write_node_file(tmp_path / "v.node", mesh.vertices)
    write_ele_file(tmp_path / "v.ele", mesh.tets)
    assert main(["validate", "--import-node", str(tmp_path / "v.node"),
                 "--import-ele", str(tmp_path / "v.ele")]) == 0


def test_validate_reports_the_tets_as_read(tmp_path, capsys, the_domain):
    # every tet negatively oriented: import_mesh orients them all, so the mesh
    # validates, and the report describes the file's orientation
    mesh = generate_mesh(the_domain, 1, 1)
    write_node_file(tmp_path / "v.node", mesh.vertices)
    write_ele_file(tmp_path / "v.ele", mesh.tets[:, [0, 1, 3, 2]])
    assert main(["validate", "--import-node", str(tmp_path / "v.node"),
                 "--import-ele", str(tmp_path / "v.ele")]) == 0
    out = capsys.readouterr().out
    assert '"all_volumes_positive": false' in out
    report = json.loads(out)
    assert report["reoriented_tets"] == report["tet_count"] == len(mesh.tets)
    assert report["min_tet_volume"] > 0


def test_report_dumps(tmp_path):
    files = {k: tmp_path / f"{k}.json" for k in ("group", "cell", "domain")}
    assert main(["report", "--dump-group", str(files["group"]),
                 "--dump-cell", str(files["cell"]),
                 "--dump-domain", str(files["domain"])]) == 0
    group = json.loads(files["group"].read_text())
    assert len(group) == 120
    cell = json.loads(files["cell"].read_text())
    assert len(cell) == 600
    domain = json.loads(files["domain"].read_text())
    assert len(domain["vertices4"]) == 20


def test_report_run_dir(run_dir, capsys):
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "400 steps" in out
    manifest = json.loads((run_dir / "manifest.json").read_text())
    drift = manifest["energy_drift"]
    assert f"energy drift |E_T - E_1| / |E_1| = {drift:.3e}" in out
    stage_s = manifest["stage_s"]
    assert sorted(stage_s) == sorted(RUN_STAGES)
    assert all(t >= 0 for t in stage_s.values())
    assert "stage wall times: " + ", ".join(
        f"{name} {stage_s[name]:.3f} s" for name in RUN_STAGES) in out
    per_step = manifest["pcg_per_step"]
    assert (f"PCG iterations per step: min {per_step['min']}, mean "
            f"{per_step['mean']:.2f}, max {per_step['max']} "
            f"({manifest['pcg_iterations']} in all)") in out
    assert (f"spectral bound: {manifest['power_iterations']} LOBPCG iterations, final "
            f"relative change {manifest['power_relative_change']:.3e}") in out
    assert f"peak RSS after the write stage: {manifest['peak_rss_mb']:.1f} MB" in out


def test_report_prints_power_pcg_iterations(run_dir, tmp_path, capsys):
    # the bound makes no mass solve, so a new manifest has no PCG count for it
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert "power_pcg_iterations" not in manifest
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith("spectral bound: "))
    assert line.endswith(f"final relative change {manifest['power_relative_change']:.3e}")
    # a manifest written while the bound made mass solves still reports them
    manifest["power_pcg_iterations"] = 298
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", "--run-dir", str(tmp_path)]) == 0
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith("spectral bound: "))
    assert line.endswith(", 298 PCG iterations in its mass solves")


def test_report_of_manifest_without_peak_rss(run_dir, tmp_path, capsys):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    del manifest["peak_rss_mb"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", "--run-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stage wall times: " in out
    assert "peak RSS" not in out


def test_manifest_run_facts(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    per_step = manifest["pcg_per_step"]
    assert 0 < per_step["min"] <= per_step["mean"] <= per_step["max"]
    # the start solve plus 400 step solves
    assert manifest["pcg_iterations"] > 400 * per_step["min"]
    assert manifest["power_iterations"] > 1
    assert 0 <= manifest["power_relative_change"] <= 1e-4
    rows = (run_dir / "energy.csv").read_text().splitlines()[1:]
    e = [float(row.split(",")[2]) for row in rows]
    assert manifest["energy_drift"] == abs(e[-1] - e[1]) / abs(e[1]) < 1e-9
    # the run's peak RSS, read after its write stage, is a peak of this process
    peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < manifest["peak_rss_mb"] <= peak_now


def test_manifest_records_threads(tmp_path, monkeypatch, capsys):
    # each thread variable as the environment sets it, null when unset
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "t"
    assert main(["run", "--n", "1", "--layers", "1", "--steps", "80",
                 "--out", str(out)]) == 0
    threads = json.loads((out / "manifest.json").read_text())["threads"]
    assert list(threads) == sorted(cli.THREAD_VARS)
    assert threads["OPENBLAS_NUM_THREADS"] == "1"
    assert threads["OMP_NUM_THREADS"] == "2"
    assert threads["MKL_NUM_THREADS"] is None
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 0
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith("threads: "))
    assert "OMP_NUM_THREADS=2, OPENBLAS_NUM_THREADS=1, MKL_NUM_THREADS=unset" in line


def test_csv_writer_matches_reference(tmp_path):
    values = np.array([-0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1, 1 / 3, -7.0])
    signals = np.column_stack([values, values[::-1], -values])
    dt = 0.1
    _write_csv(tmp_path / "e.csv", "step,time,energy", "%d,%.17g,%.17g\n",
               np.arange(8), np.arange(8) * dt, values)
    ref = "step,time,energy\n" + "".join(
        f"{k},{k * dt:.17g},{e:.17g}\n" for k, e in enumerate(values))
    assert (tmp_path / "e.csv").read_text() == ref
    first = 120
    _write_csv(tmp_path / "p.csv", "step,time,probe_0,probe_1,probe_2",
               "%d,%.17g,%.17g,%.17g,%.17g\n",
               np.arange(first, first + 8), np.arange(first, first + 8) * dt, signals)
    ref = "step,time,probe_0,probe_1,probe_2\n" + "".join(
        f"{k},{k * dt:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n"
        for k, row in zip(range(first, first + 8), signals))
    assert (tmp_path / "p.csv").read_text() == ref
    names, steps, times, back = _read_signals(tmp_path / "p.csv")
    assert names == ["probe_0", "probe_1", "probe_2"]
    assert steps.dtype == np.int64 and np.array_equal(steps, np.arange(first, first + 8))
    assert times.tobytes() == (np.arange(first, first + 8) * dt).tobytes()
    assert back.tobytes() == signals.tobytes()


@pytest.mark.parametrize("flags, named", [
    (["--window", "60", "80"], "--window"),       # window past --steps
    (["--window", "30", "10"], "--window"),       # NI > NF
    (["--window", "-1", "10"], "--window"),
    (["--snapshot-every", "-5"], "--snapshot-every"),
    (["--probes", ""], "--probes"),
    (["--probes", "0,0"], "--probes"),
    (["--probes", "0,0,0;0.1,0"], "--probes"),
    (["--probes", "a,b,c"], "--probes"),
    (["--solve-tol", "0"], "--solve-tol"),
    (["--solve-tol=-1e-10"], "--solve-tol"),
    (["--solve-tol", "nan"], "--solve-tol"),
    (["--solve-tol", "inf"], "--solve-tol"),
    (["--amplitude", "nan"], "--amplitude"),
    (["--amplitude", "inf"], "--amplitude"),
    (["--dt", "abc"], "--dt"),
    (["--dt", "-1"], "--dt"),
    (["--dt", "nan"], "--dt"),
    (["--dt", "inf", "--force"], "--dt"),
    (["--bump", "0", "0", "0", "nan"], "--bump"),
    (["--bump", "0", "0", "0", "inf"], "--bump"),
    (["--bump", "0", "0", "0", "0"], "--bump"),
])
def test_run_flags_checked_before_setup(tmp_path, monkeypatch, capsys, flags, named):
    def no_setup(*args, **kwargs):
        raise AssertionError("setup ran before the flags were checked")
    monkeypatch.setattr(cli, "generate_mesh", no_setup)
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "50",
                 "--out", str(tmp_path / "r")] + flags)
    assert code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["mesh", "--no-such-flag"],
    # flags that no longer exist: one quadrature rule, no config files
    ["run", "--degree", "2"],
    ["assemble", "--degree", "4"],
    ["run", "--config", "f"],
    # uniform radial layers and an unwindowed DFT only
    ["mesh", "--grading", "2"],
    ["spectrum", "--signals", "s.csv", "--hann"],
], ids=["unknown-flag", "run-degree", "assemble-degree", "run-config", "mesh-grading",
        "spectrum-hann"])
def test_usage_error_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_readme_cli_block_parses():
    # every command of the README's CLI quick start parses; none is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (CLI)", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("pdswave ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]


def test_broken_import_exit_code(tmp_path, the_domain):
    mesh = generate_mesh(the_domain, 1, 1)
    v = mesh.vertices.copy()
    node = mesh.boundary_nodes[0]
    v[node] *= 1.0 - 1e-3
    write_node_file(tmp_path / "b.node", v)
    write_ele_file(tmp_path / "b.ele", mesh.tets)
    assert main(["mesh", "--import-node", str(tmp_path / "b.node"),
                 "--import-ele", str(tmp_path / "b.ele"),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.fixture
def flat_tet_import(tmp_path, mesh22):
    """Import flags of mesh22 with one interior vertex moved onto the plane of
    the opposite face of one of its tets, whose volume drops to ~1e-20."""
    v = mesh22.vertices.copy()
    node = np.setdiff1d(np.arange(len(v)), mesh22.boundary_nodes)[-1]
    tet = mesh22.tets[(mesh22.tets == node).any(axis=1)][0]
    a, b, c = v[tet[tet != node]]
    normal = np.cross(b - a, c - a)
    v[node] -= (v[node] - a) @ normal / (normal @ normal) * normal
    write_node_file(tmp_path / "f.node", v)
    write_ele_file(tmp_path / "f.ele", mesh22.tets)
    return ["--import-node", str(tmp_path / "f.node"), "--import-ele", str(tmp_path / "f.ele")]


@pytest.mark.parametrize("argv", [["validate"], ["run"], ["run", "--dt", "1e-3"]],
                         ids=["validate", "run", "run-dt"])
def test_flat_imported_tet_is_mesh_error(tmp_path, capsys, flat_tet_import, argv):
    # every other check passes this mesh: unless the volume floor rejects it,
    # run steps it at dt ~ 6e-10, and a forced dt fails as an evolution error
    if argv[0] == "run":
        argv = argv + ["--steps", "10", "--window", "0", "10", "--out", str(tmp_path / "r")]
    assert main(argv + flat_tet_import) == 2
    assert "has volume" in capsys.readouterr().err


@pytest.mark.parametrize("probes", ["5,5,5", "0.9,0,0", "0,0,0;0.6,0.3,0"])
def test_probe_outside_domain_exit_code(tmp_path, probes, capsys):
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "10",
                 "--probes", probes, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "not all in the domain" in capsys.readouterr().err


@pytest.mark.parametrize("center", [["0.9", "0", "0"], ["2", "0", "0"]],
                         ids=["outside-domain", "outside-unit-ball"])
def test_bump_center_checked_before_setup(tmp_path, monkeypatch, center):
    def no_setup(*args, **kwargs):
        raise AssertionError("setup ran before the bump center was checked")
    monkeypatch.setattr(cli, "generate_mesh", no_setup)
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "10",
                 "--bump", *center, "0.3", "--out", str(tmp_path / "r")])
    assert code == 2
    assert not (tmp_path / "r").exists()


def test_zero_subdivision_is_usage_error(tmp_path):
    assert main(["mesh", "--n", "0", "--out", str(tmp_path / "m")]) == 1


@pytest.mark.parametrize("grading", ["nan", "0", "-1"])
def test_bad_grading_is_usage_error(tmp_path, grading):
    # the layers are uniform: the parser rejects --grading before any setup
    out = tmp_path / "m"
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--n", "1", "--layers", "1", "--grading", grading,
              "--out", str(out)])
    assert exc.value.code == 1
    assert not (out / "mesh_report.json").exists()


@pytest.mark.parametrize("command", ["mesh", "assemble", "run", "validate"])
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_bad_tol_is_usage_error(tmp_path, capsys, command, tol):
    # the node file does not exist, so only a flag check made first names --tol
    argv = [command, "--import-node", str(tmp_path / "missing.node"),
            "--import-ele", str(tmp_path / "missing.ele"), "--tol", tol]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unstable_dt_exit_code(tmp_path):
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "10",
                 "--dt", "1.0", "--out", str(tmp_path / "r")])
    assert code == 3


def test_nonpositive_dt_is_usage_error(tmp_path):
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "10",
                 "--dt", "0", "--out", str(tmp_path / "r")])
    assert code == 1


def test_derived_window_past_steps_is_usage_error(tmp_path, capsys):
    # at n = L = 1 one domain crossing takes 14 steps of 0.95 dt_max
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "10",
                 "--out", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--steps 10" in err and "first recorded step 14" in err
    assert not (tmp_path / "r").exists()


def test_zero_steps_is_usage_error(tmp_path):
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "0",
                 "--out", str(tmp_path / "r")])
    assert code == 1


def test_forced_unstable_run_trips_guard(tmp_path):
    code = main(["run", "--n", "1", "--layers", "1", "--steps", "1000",
                 "--dt", "0.2", "--force", "--out", str(tmp_path / "r")])
    assert code == 3


def test_zero_amplitude_gives_zero_signals(tmp_path):
    out = tmp_path / "z"
    assert main(["run", "--n", "1", "--layers", "1", "--steps", "80",
                 "--amplitude", "0", "--out", str(out)]) == 0
    rows = (out / "probes.csv").read_text().splitlines()[1:]
    values = [float(v) for row in rows for v in row.split(",")[2:]]
    assert values and not any(values)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["energy_drift"] is None        # E_1 = 0: no relative drift


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PDSWAVE_OUT", str(tmp_path / "envout"))
    args = build_parser().parse_args(["mesh"])
    assert args.out == str(tmp_path / "envout")
