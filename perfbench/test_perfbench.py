"""Tests of the benchmark harness: smoke runs of every workload, exact
repetition of the counters, span arithmetic, and agreement with
BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOAD_NAMES
from tracing import ID, NAME, layer_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# counters and outputs that must repeat exactly for a seed
EXACT = ["quadrature.nodes", "quadrature.regen_factor", "barrier.jets_rows",
         "util.det_count.k5", "util.det_count.k6",
         "homotopy.points_per_stream", "sections.section_calls",
         "cli.report_bytes"]
OUTPUTS = {"ladder_n5": "residual_max", "apply_n6m2": "obstruction_max",
           "decay_n6m2": "slope_min", "audits_n5": "report_bytes"}


def bench(workload, trace, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload, trace, seed=5):
    path = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness(spec):
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import run
    import workloads
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in layers.LAYERS]


def test_self_times_subtract_the_union_of_children():
    spans = [[0, "root", 0.0, 10.0, None, "r"],
             [1, "a", 1.0, 4.0, 0, "r"],
             [2, "a", 2.0, 3.0, 1, "r"],      # nested in a span of its name
             [3, "b", 3.5, 6.0, 0, "r"]]      # overlaps its sibling
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(2.0)
    inclusive, own = layer_times(spans)
    assert inclusive["a"] == pytest.approx(3.0)   # outermost span only
    assert own["a"] == pytest.approx(3.0)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload, spec):
    out = result(bench(workload, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counters_repeat_exactly(workload, spec):
    runs = []
    for _ in range(2):
        out = result(bench(workload, trace=1))
        assert out["correct"]
        assert list(out["metrics"]) == [m["name"] for m in spec["per_layer"]]
        runs.append((out["metrics"], result_file(workload, 1)))
    (first, file_a), (second, file_b) = runs
    for name in EXACT:
        assert first[name] == second[name], name
    assert file_a["outputs"][OUTPUTS[workload]] \
        == file_b["outputs"][OUTPUTS[workload]]
    # self times partition the traced pass
    assert first["trace.self_sum_s"]["value"] == pytest.approx(
        first["trace.wall_s"]["value"], rel=1e-9)
    for traced_pass in file_a["spans"]:
        spans = traced_pass["spans"]
        assert spans[0][NAME] == "bench.pass"
        assert [s[ID] for s in spans] == list(range(len(spans)))


def test_nonzero_exit_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("ladder_n5", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
