"""Smoke tests: the shipped examples run end to end."""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, argv: list[str] | None = None):
    old = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old


def test_quickstart(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "triangles:" in out
    assert "GroupTC" in out


def test_clustering_coefficient(capsys):
    _run("clustering_coefficient.py")
    out = capsys.readouterr().out
    assert "transitivity=1.0000" in out  # the clique anchor
    assert "most clustered" in out


def test_ktruss_decomposition(capsys):
    _run("ktruss_decomposition.py")
    out = capsys.readouterr().out
    assert "max truss of K8: 8" in out
    assert "densest truss" in out


def test_custom_kernel(capsys):
    _run("custom_kernel.py")
    out = capsys.readouterr().out
    assert "naive / Polak slowdown" in out


def test_compare_algorithms_single_dataset(capsys):
    _run("compare_algorithms.py", ["As-Caida"])
    out = capsys.readouterr().out
    assert "per-dataset winners" in out
    assert "As-Caida" in out
