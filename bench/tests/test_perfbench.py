"""Tests of the benchmark itself: span arithmetic, metric coverage, checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The workloads' structure at toy sizes.
SMALL = {
    "fc_spectral": run.Workload(cube=run.Cube(10, 10, 12, 3, 3), variant="fc", epochs=1,
                                metrics_k="2:6:2", eval_k="3:6:3", eval_runs=1),
    "conv_patch": run.Workload(cube=run.Cube(9, 9, 8, 3, 3), variant="conv", epochs=1,
                               metrics_k="2:6:2", eval_k="3:6:3", eval_runs=1, window=5),
    "eval_paper_scale": run.Workload(cube=run.Cube(14, 14, 16, 4, 4), variant="fc", epochs=1,
                                     metrics_k="2:8:2", eval_k="6", eval_runs=1,
                                     train_cube=run.Cube(6, 6, 16, 4, 3)),
}


@pytest.fixture
def small_run(tmp_path):
    bench_run = run.Run(SMALL["conv_patch"], 3, tmp_path)
    assert bench_run.setup_inprocess()
    return bench_run


def traced(bench_run, targets):
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, targets)
    try:
        with tracer.span("setup", repeat="setup"):
            assert bench_run.setup_inprocess()
        with tracer.span("pipeline", repeat=0):
            assert bench_run.repeat(tracer=tracer) is not None
    finally:
        inst.uninstall()
    return tracer, inst


def test_self_times_sum_to_root_span(small_run):
    tracer, _ = traced(small_run, tracing.TARGETS + tracing.other_layer_targets())
    tree = tracing.SpanTree(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[tracing.PARENT] is None]
    assert [tracer.spans[i][tracing.NAME] for i in roots] == ["setup", "pipeline"]
    for root in roots:
        members = tree.subtree(root)
        assert len(members) > 1
        assert math.isclose(sum(tree.self_time[i] for i in members), tree.duration[root],
                            rel_tol=1e-9, abs_tol=1e-12)
        assert all(t >= -1e-9 for t in (tree.self_time[i] for i in members))


def test_uninstall_restores_every_wrapped_object(small_run):
    import bandsel.nn.optim
    import bandsel.training
    from bandsel.models import BandSelectorConv, BandSelectorFC

    original = bandsel.nn.optim.adam_step
    traced(small_run, tracing.TARGETS + tracing.other_layer_targets())
    assert bandsel.training.adam_step is original
    assert "backprop" not in BandSelectorFC.__dict__ and "backprop" not in BandSelectorConv.__dict__


def test_missing_target_is_reported_not_zero(small_run):
    renamed = [("optim.adam_step", "bandsel.nn.optim:adam_step_renamed", None),
               ("cube.extract", "bandsel.no_such_module:extract", None),
               ("layers.dense.forward", "bandsel.nn.layers:NoSuchLayer.forward", None)]
    kept = [t for t in tracing.TARGETS if t[0] not in {"optim.adam_step", "cube.extract", "layers.dense.forward"}]
    tracer, inst = traced(small_run, kept + renamed)
    assert inst.missing == {"optim.adam_step", "cube.extract", "layers.dense.forward"}
    roots = [i for i, s in enumerate(tracer.spans) if s[tracing.REPEAT] == 0 and s[tracing.PARENT] is None]
    setup = [i for i, s in enumerate(tracer.spans) if s[tracing.REPEAT] == "setup" and s[tracing.PARENT] is None]
    values, omitted = tracing.layer_metrics(tracer, inst.missing, roots, setup)
    for name in ("optim.adam_step.s", "optim.adam_share", "training.steps", "cube.extract.s",
                 "layers.dense.forward_s", "layers.dense.gflop"):
        assert name not in values and name in omitted
    assert values["layers.conv.forward_s"] > 0
    assert values["training.train.s"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(SMALL) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_on_every_workload(workload, trace, tmp_path):
    result, record = run.bench(SMALL[workload], 4, 0.2, trace, tmp_path)
    assert record["problems"] == []
    assert json.loads(json.dumps(result)) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fc_spectral", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_catch_bad_outputs(small_run):
    assert small_run.repeat(first=True) is not None
    assert small_run.failed == 0
    ranking = small_run.judged_ranking()
    msd_csv = small_run.m + "_msd.csv"
    values = small_run.load().values
    assert checks.check_msd_oracle(values, ranking, msd_csv) == []
    with open(small_run.net + ".json", encoding="utf-8") as fh:
        result = json.load(fh)
    result["ranking"][0] = result["ranking"][1]
    with open(small_run.net + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    assert checks.check_train(small_run.net, small_run.w.cube.bands)

    lines = Path(msd_csv).read_text().splitlines()
    k, value = lines[1].split(",")
    lines[1] = f"{k},{float(value) * (1 + 1e-8)!r}"
    Path(msd_csv).write_text("\n".join(lines) + "\n")
    assert checks.check_msd_oracle(values, ranking, msd_csv)


def test_knn_check_matches_oracle(small_run):
    assert checks.check_knn_oracle(small_run.load(), [0, 1, 2], seed=3) == []


def test_fast_decile_takes_the_fast_side():
    times = [float(v) for v in range(1, 11)]
    assert run.fast_decile(times) == pytest.approx(1.9)
    assert run.fast_decile(times, higher_is_faster=True) == pytest.approx(9.1)
    assert run.fast_decile([0.5]) == 0.5
