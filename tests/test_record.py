"""`benchmarks/record.py` marks a side dirty only for files its runs execute,
removes the bytecode caches under those files, and a BENCH pair records each
side's spread next to its median, for the end-to-end metrics and for the
layer cases, a layer case's minima and slow rounds, and each side's source
lines."""

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


def test_bytecode_caches_under_run_paths_are_removed(record, checkout):
    caches = [checkout / "src" / "hicomp" / "__pycache__", checkout / "perfbench" / "__pycache__"]
    kept = checkout / "tests" / "__pycache__"
    for cache in (*caches, kept):
        cache.mkdir(parents=True)
        (cache / "cns.cpython-311.pyc").write_text("stale\n")
    assert record.clear_bytecode(checkout) == ["perfbench/__pycache__",
                                               "src/hicomp/__pycache__"]
    assert not any(cache.exists() for cache in caches)
    assert kept.exists()
    assert record.clear_bytecode(checkout) == []
    assert record.dirty_paths(checkout) == []


def synthetic_side(record, checkout, wall_s):
    """A Side of the checkout holding one end-to-end run per wall time, on
    every workload; the other metrics stay constant."""
    side = record.Side(checkout)
    for runs in side.end_to_end.values():
        runs.extend({"metrics": {"wall_s": w, "setup_s": 0.5, "peak_rss_mb": 40.0,
                                 "success_rate": 1.0}} for w in wall_s)
    return side


def test_src_lines_count_as_wc_does(record, checkout):
    hicomp = checkout / "src" / "hicomp"
    (hicomp / "grid.py").write_text("a\n\nb\nlast line without a newline")
    (hicomp / "notes.txt").write_text("not source\n")
    (hicomp / "sub").mkdir()
    (hicomp / "sub" / "deep.py").write_text("not counted\n")
    wc = subprocess.run("wc -l src/hicomp/*.py", shell=True, cwd=checkout, check=True,
                        capture_output=True, text=True).stdout
    assert wc.splitlines()[-1].split() == ["4", "total"]
    assert record.src_lines(checkout) == 4
    parent = synthetic_side(record, checkout, [3.0])
    (hicomp / "cns.py").write_text("x\ny\n")
    doc = record.pairs(parent, synthetic_side(record, checkout, [3.0]), 1)
    assert doc["src_lines"] == {"parent": 4, "change": 5}


def test_pair_records_each_sides_interquartile_range(record, checkout):
    parent = synthetic_side(record, checkout, [3.0, 3.4, 3.1, 3.2])
    change = synthetic_side(record, checkout, [2.9, 3.0, 3.5, 3.05])
    doc = record.pairs(parent, change, 4)
    for metrics in doc["workloads"].values():
        wall = metrics["wall_s"]
        # inclusive quartiles of (3.0, 3.1, 3.2, 3.4): 3.075 and 3.25
        assert wall["parent_iqr"] == pytest.approx(0.175)
        # of (2.9, 3.0, 3.05, 3.5): 2.975 and 3.1625
        assert wall["change_iqr"] == pytest.approx(0.1875)
        assert wall["parent_median"] == pytest.approx(3.15)
        assert wall["change_won"] == 3
        assert metrics["success_rate"]["parent_iqr"] == 0.0


def test_one_round_pair_records_no_spread(record, checkout):
    doc = record.pairs(synthetic_side(record, checkout, [3.0]),
                       synthetic_side(record, checkout, [2.9]), 1)
    assert set(doc["workloads"]["rate-sweep"]["wall_s"]) == {
        "parent_median", "change_median", "change_won"}


def test_pair_compares_each_layer_case_both_sides_ran(record, checkout):
    parent = synthetic_side(record, checkout, [3.0, 3.0, 3.0, 3.0])
    change = synthetic_side(record, checkout, [3.0, 3.0, 3.0, 3.0])
    name = "dual_certificate_backward_step"
    for side, per_step, extra in ((parent, [120.0, 110.0, 150.0, 100.0], "gone"),
                                  (change, [70.0, 115.0, 60.0, 80.0], "new")):
        side.layers[name] = [{"case": {"us_per_step_median": value, "us_per_step_min": 1.0},
                              extra: {"us_per_step_median": 1.0}} for value in per_step]
    layers = record.pairs(parent, change, 4)["layers"]
    # a case that only one side ran has nothing to pair with
    assert set(layers[name]) == {"case"}
    case = layers[name]["case"]
    assert case["parent_median"] == pytest.approx(115.0)
    assert case["change_median"] == pytest.approx(75.0)
    # inclusive quartiles of (100, 110, 120, 150): 107.5 and 127.5
    assert case["parent_iqr"] == pytest.approx(20.0)
    # of (60, 70, 80, 115): 67.5 and 88.75
    assert case["change_iqr"] == pytest.approx(21.25)
    # lower is better: the change lost only the second round
    assert case["change_won"] == 3
    # the other layer files ran no round on either side
    assert layers["steps_and_field"] == {}


def test_layer_pair_compares_minima_and_counts_slow_rounds(record, checkout):
    parent = synthetic_side(record, checkout, [3.0, 3.0, 3.0, 3.0])
    change = synthetic_side(record, checkout, [3.0, 3.0, 3.0, 3.0])
    name = "steps_and_field"
    # the rounds' medians split between two speeds while their minima hold
    for side, medians, minima in ((parent, [66.0, 120.0, 64.0, 96.0], [60.0, 61.0, 59.0, 62.0]),
                                  (change, [110.0, 130.0, 65.0, 107.0], [58.0, 59.0, 60.0, 57.0])):
        side.layers[name] = [{"case": {"us_per_step_median": median, "us_per_step_min": low}}
                             for median, low in zip(medians, minima)]
    case = record.pairs(parent, change, 4)["layers"][name]["case"]
    assert case["parent_median"] == pytest.approx(81.0)
    assert case["change_median"] == pytest.approx(108.5)
    assert case["change_won"] == 0
    minimum = case["minimum"]
    assert minimum["parent_median"] == pytest.approx(60.5)
    assert minimum["change_median"] == pytest.approx(58.5)
    # inclusive quartiles of (59, 60, 61, 62): 59.75 and 61.25; of (57, ..., 60) alike
    assert minimum["parent_iqr"] == pytest.approx(1.5)
    assert minimum["change_iqr"] == pytest.approx(1.5)
    assert minimum["change_won"] == 3
    # slow means over 1.5x the side's fastest round median: 96 is exactly 1.5 x 64
    assert case["slow_rounds"] == {"parent": 1, "change": 3}
