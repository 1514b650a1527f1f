"""`benchmarks/record.py` marks a side dirty only for files its runs execute."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root,
                   check=True, capture_output=True)


@pytest.fixture
def checkout(tmp_path):
    """A committed checkout with a document and one file under each run path."""
    files = ["README.md", "src/hicomp/cns.py", "benchmarks/bench_step.py",
             "perfbench/run.py", "BENCHMARK.json", "pyproject.toml", ".gitignore"]
    for name in files:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("__pycache__/\n" if name == ".gitignore" else "x\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "start")
    return tmp_path


def test_document_edit_leaves_the_side_clean(record, checkout):
    (checkout / "README.md").write_text("edited\n")
    (checkout / "NOTES.md").write_text("new\n")
    side = record.Side(checkout)
    assert side.dirty_paths == []
    assert record.dirty_paths(checkout) == []


def test_run_paths_that_differ_are_named(record, checkout):
    (checkout / "src" / "hicomp" / "cns.py").write_text("edited\n")
    (checkout / "BENCHMARK.json").write_text("{}\n")
    git(checkout, "add", "BENCHMARK.json")  # staged counts too
    (checkout / "perfbench" / "run.py").unlink()
    (checkout / "benchmarks" / "bench_new.py").write_text("new\n")
    cache = checkout / "src" / "hicomp" / "__pycache__"
    cache.mkdir()
    (cache / "cns.pyc").write_text("ignored\n")
    (checkout / "README.md").write_text("edited\n")
    assert record.dirty_paths(checkout) == [
        "BENCHMARK.json", "benchmarks/bench_new.py", "perfbench/run.py",
        "src/hicomp/cns.py"]
