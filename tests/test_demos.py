"""Each demo script runs to the end (they write under out/, so run in tmp_path)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
