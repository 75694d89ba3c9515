"""Each demo script and the README's library quick start run to the end
(the demos write under out/, so they run in tmp_path)."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", [
    "01_icosian_group.py",
    "02_fundamental_domain.py",
    "03_mesh_convergence.py",
    "04_wave_evolution.py",
    pytest.param("05_eigenvalue_spectrum.py", marks=pytest.mark.slow),
])
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def test_readme_library_block_runs():
    # the README's library quick start, run verbatim; its comment promises
    # conservation, so the relative energy drift is checked
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start (library)", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), namespace)
    energy = namespace["result"].energy
    assert abs(energy[-1] - energy[1]) / abs(energy[1]) <= 1e-9
