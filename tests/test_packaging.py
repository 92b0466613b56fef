"""Package metadata: pyproject.toml describes the package the code ships."""

import re
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


def test_readme_knob_table_lists_exactly_the_knobs_the_code_reads():
    knob = re.compile(r"REPRO_[A-Z0-9_]+")
    read = {
        name
        for folder in ("src", "examples")
        for path in (ROOT / folder).rglob("*.py")
        for name in knob.findall(path.read_text(encoding="utf-8"))
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Environment knobs", 1)[1].split("\n\n", 2)[1]
    listed = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", table, re.MULTILINE))
    assert listed == read
