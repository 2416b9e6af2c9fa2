"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones are executed end to
end (marked slow are the multi-second training demos, still run in the
full suite).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    names = {p.name for p in ALL_EXAMPLES}
    # The three mandated examples plus the domain-specific ones.
    assert "quickstart.py" in names
    assert "paper_experiment.py" in names
    assert "csc_comparison.py" in names
    assert len(names) >= 8


@pytest.mark.parametrize(
    "path", ALL_EXAMPLES, ids=[p.stem for p in ALL_EXAMPLES]
)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "path", ALL_EXAMPLES, ids=[p.stem for p in ALL_EXAMPLES]
)
def test_example_has_docstring_and_main(path):
    source = path.read_text()
    assert source.lstrip().startswith(('"""', '#!')), path.name
    assert "def main()" in source, path.name
    assert '__name__ == "__main__"' in source, path.name


@pytest.mark.slow
def test_quickstart_executes():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "reconstruction accuracy" in result.stdout


@pytest.mark.slow
def test_paper_experiment_reduced_budget_executes():
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "paper_experiment.py"),
            "--iterations",
            "10",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Fig. 4a" in result.stdout


def _run_example(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
def test_transmission_pipeline_executes():
    out = _run_example("transmission_pipeline.py")
    assert "receiver-side accuracy" in out
    assert "streamed 5000 images through the chunked session" in out
    gap = float(out.split("max deviation ")[1].split()[0])
    assert gap < 1e-10


@pytest.mark.slow
def test_interferometer_export_executes():
    out = _run_example("interferometer_export.py")
    err = float(out.split("max|T_device - U_net| = ")[1].split()[0])
    assert err < 1e-12
    assert "imperfect chip: max|T_chip - U_net|" in out
    assert "NPZ save/load round trip identical: True" in out
