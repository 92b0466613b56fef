"""Package metadata: pyproject.toml describes the package the code ships."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli

ROOT = Path(__file__).resolve().parents[1]


def test_setup_reports_name_and_version():
    pytest.importorskip("setuptools")
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["repro", repro.__version__]


def test_pyproject_layout_and_entry_point():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    # setup.py's editable-install fallback needs the table absent.
    assert "build-system" not in meta
    assert meta["project"]["name"] == "repro"
    assert meta["project"]["scripts"] == {"repro": "repro.cli:main"}
    assert callable(cli.main)
    assert meta["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert set(meta["project"]["optional-dependencies"]) == {"numpy", "scipy"}
