"""Self-tests of the benchmark: each output check fires, and self time adds up.

Run with ``python -m pytest perfbench``.
"""

import json
import os

import pytest

import checks
import reference
import run as bench
import tracing
import workloads
from twolevel import model, oracle, sim
import twolevel

SYM = workloads.SYM


@pytest.fixture
def probe():
    p = tracing.Probe()
    p.install(twolevel)
    try:
        yield p
    finally:
        p.uninstall()


def _one_job_pass(probe, tmp_path, run, check):
    job = workloads.Job("g", "job", run, check)
    return bench.run_pass([job], probe, traced=True, work_dir=str(tmp_path / "pass"),
                          kernel=reference.Interpreter())


def test_stationary_check_passes_exact_and_fires_on_perturbed_pi():
    g = oracle.build_generator(SYM, model.ScalingParams(4, 2))
    pi = oracle.stationary_distribution(g)
    assert checks.check_stationary(g, pi)["oracle.residual"] <= 1e-10
    perturbed = pi.copy()
    perturbed[0] += 1e-6
    perturbed /= perturbed.sum()
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_stationary(g, perturbed)


def test_truncated_run_counts_as_failure(probe, tmp_path):
    scaling = model.ScalingParams(20, 6)

    def run(ctx, max_events):
        return sim.simulate((0, 0, 0), SYM, scaling, 20.0, 1, max_events=max_events)

    ok = _one_job_pass(probe, tmp_path, lambda ctx: run(ctx, 10**6), lambda out, ctx: {})
    assert ok.failures == [] and ok.counts["sim.truncated_runs"] == 0
    bad = _one_job_pass(probe, tmp_path, lambda ctx: run(ctx, 10), lambda out, ctx: {})
    assert bad.attempted == 1 and len(bad.failures) == 1
    assert "truncated" in bad.failures[0]
    assert bad.counts["sim.truncated_runs"] == 1


def test_csv_missing_a_row_counts_as_failure(probe, tmp_path):
    traj = sim.simulate((0, 0, 0), SYM, model.ScalingParams(20, 6), 5.0, 3)

    def write(ctx, drop_row):
        path = os.path.join(ctx["out_dir"], "traj.csv")
        with open(path, "w") as fp:
            sim.write_trajectory_csv(traj, fp)
        if drop_row:
            with open(path) as fp:
                lines = fp.readlines()
            with open(path, "w") as fp:
                fp.writelines(lines[:-1])
        return path

    def check(path, ctx):
        return checks.check_csv(path, ctx["csv_rows"][path], 4)

    ok = _one_job_pass(probe, tmp_path, lambda ctx: write(ctx, False), check)
    assert ok.failures == []
    assert ok.counts["sim.write_trajectory_csv.bytes"] > 0
    bad = _one_job_pass(probe, tmp_path, lambda ctx: write(ctx, True), check)
    assert len(bad.failures) == 1 and "data rows" in bad.failures[0]


def test_raising_job_counts_as_failure(probe, tmp_path):
    def run(ctx):
        raise ValueError("boom")

    res = _one_job_pass(probe, tmp_path, run, lambda out, ctx: {})
    assert res.attempted == 1 and res.failures == ["job: ValueError: boom"]


def test_self_time_of_nested_spans():
    spans = [
        ["experiments.a", 0.0, 10.0, None],
        ["sim.simulate", 1.0, 4.0, 0],
        ["sim.rescale", 2.0, 3.0, 1],
        ["fluid.hybrid_fluid", 3.5, 6.0, 0],  # overlaps its sibling: counted once
        ["model.y_bar", 7.0, 7.5, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5, 0.5])
    calls, own, by_layer = tracing.summarize(spans)
    assert calls["sim.simulate"] == 1
    assert own["sim.simulate"] == pytest.approx(2.0)
    assert by_layer == pytest.approx({"experiments": 5.0, "sim": 3.0, "fluid": 2.5, "model": 0.5})
    assert tracing.under_layer(spans, "sim.simulate", "experiments") == 1


def test_probe_restores_the_toolkit(probe):
    assert sim.simulate.__wrapped__ is not None
    probe.uninstall()
    assert not hasattr(sim.simulate, "__wrapped__")
    assert not hasattr(twolevel.experiments.blocked_fraction_limit, "__wrapped__")


def test_benchmark_json_lists_every_metric_the_runner_prints():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        bench.per_layer_metrics()
    assert set(workloads.WORKLOADS) == set(bench.WORKLOAD_NAMES) == set(workloads.KERNELS)

