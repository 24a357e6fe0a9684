"""The benchmark's output checks accept real outputs and reject corrupted
ones; its tracer and its result format hold together."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bruhatspec  # noqa: E402
import bruhatspec.bruhat  # noqa: E402,F401
import bruhatspec.coxeter  # noqa: E402,F401
import bruhatspec.poset  # noqa: E402,F401
import bruhatspec.spectra  # noqa: E402,F401

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OPS = {
    "intervals": {"group": "A3", "word": (3, 2, 1, 2, 3)},
    "pipelines": {"name": "weyl3"},
    "sweep": {"group": "A3", "word": (2, 1, 3), "a": 2},
}


def output(workload):
    op = OPS[workload]
    fn, extract = child.PREPARE[workload](bruhatspec, op)
    return op, extract(fn())


@pytest.mark.parametrize("workload", sorted(OPS))
def test_real_output_passes(workload):
    op, out = output(workload)
    assert checks.CHECK[workload](op, out) is None


@pytest.mark.parametrize("workload", ["intervals", "pipelines"])
def test_dropped_hasse_edge_is_caught(workload):
    op, out = output(workload)
    out["hasse"].pop(len(out["hasse"]) // 2)
    assert "Hasse" in checks.CHECK[workload](op, out)


def test_changed_interval_size_is_caught():
    op, out = output("intervals")
    out["size"] += 1
    assert "size" in checks.check_interval(op, out)


def test_changed_pushout_size_is_caught():
    op, out = output("sweep")
    out["sizes"]["B"] -= 1
    assert "sizes" in checks.check_pushout(op, out)


def test_false_pushout_leg_is_caught():
    op, out = output("sweep")
    out["square_commutes"] = False
    assert "square_commutes" in checks.check_pushout(op, out)


def test_wrong_pipeline_word_or_nabla_is_caught():
    op, out = output("pipelines")
    bad = copy.deepcopy(out)
    bad["word"] = bad["word"][:-1]
    assert "word" in checks.check_pipeline(op, bad)
    bad = copy.deepcopy(out)
    nabla = bad["nabla"]
    nabla["e"], nabla["1"] = nabla["1"], nabla["e"]
    assert "rank" in checks.check_pipeline(op, bad)


def test_schedule_word():
    sched = [[2, "right"], [None, "right"], [1, "left"], [3, "right"]]
    assert checks.schedule_word(sched) == (1, 2, 3)


def test_tracer_counts_calls_and_restores_originals():
    original = bruhatspec.bruhat.interval
    m = bruhatspec.coxeter.matrix_by_name("A3")
    tracer = spans.Tracer()
    tracer.install()
    try:
        P = tracer.run_op(
            lambda: bruhatspec.bruhat.interval(m, (1, 2, 1)).to_poset())
    finally:
        tracer.uninstall()
    assert bruhatspec.bruhat.interval is original
    assert len(P) == 6
    s = tracer.summary()
    assert s["calls"]["bruhat.interval"] == 1
    assert s["calls"]["bruhat.BruhatInterval.to_poset"] == 1
    assert s["calls"]["coxeter.GroupElement"] > 8
    assert s["calls"]["op"] == 1
    assert 0.5 < s["op_cover"][0] <= 1.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.MAKE)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_same_seed_same_inputs():
    for name in workloads.MAKE:
        assert workloads.make_ops(name, 3) == workloads.make_ops(name, 3)
    assert workloads.make_ops("sweep", 3) != workloads.make_ops("sweep", 4)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
