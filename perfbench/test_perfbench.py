"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import spans
import workloads


@pytest.fixture
def deft_modules():
    """A freshly imported deft from the checkout, as a benchmark run uses."""
    bench.fresh_import()
    return {n: m for n, m in sys.modules.items() if n == "deft" or n.startswith("deft.")}


def _bindings(modules):
    targets = [getattr(modules[mod], attr) for mod, attr, _, _ in spans.TARGETS]
    return {(name, b): v for name, m in modules.items() for b, v in vars(m).items()
            if any(v is t for t in targets)}


def _traced(job, out):
    tracer = spans.Tracer().install()
    try:
        result = workloads.run_job(job, out, lambda j: tracer.job_span(j.command))
    finally:
        tracer.restore()
    return result, tracer.spans


def test_tracer_wraps_every_binding_and_restores_it(deft_modules, tmp_path):
    before = _bindings(deft_modules)
    assert ("deft.train", "forward") in before
    assert ("deft.adapters", "decompose") in before
    assert ("deft.cli", "numerical_rank") in before
    assert ("deft.store", "as_matrix") in before

    tracer = spans.Tracer().install()
    try:
        for (name, binding), original in before.items():
            assert getattr(deft_modules[name], binding) is not original, (name, binding)
        job = workloads.make_jobs("finetune-1k", 1, str(tmp_path / "in"), dim=24, steps=3)[0]
        assert not workloads.run_job(job, str(tmp_path / "out")).failed
    finally:
        tracer.restore()
    for (name, binding), original in before.items():
        assert getattr(deft_modules[name], binding) is original, (name, binding)
    assert {s.name for s in tracer.spans} >= {"adapters.forward", "store.matrix_hash"}


@pytest.mark.parametrize("workload", ["finetune-1k", "finetune-32", "verify"])
def test_outputs_are_byte_identical_traced_and_untraced(deft_modules, tmp_path, workload):
    jobs = workloads.make_jobs(workload, 2, str(tmp_path / "in"), dim=32, steps=30, trials=1)
    for i, job in enumerate(jobs):
        suffix = ".csv" if job.command == "verify" else ""
        plain = workloads.run_job(job, str(tmp_path / f"plain{i}{suffix}"))
        traced, _ = _traced(job, str(tmp_path / f"traced{i}{suffix}"))
        assert (plain.code, plain.done, plain.problems) == (traced.code, traced.done, traced.problems)
        if job.command == "verify":
            names = [""]
        elif plain.code == 0:
            names = ["report.csv", "adapter.adpt"]
        else:
            continue
        for name in names:
            a, b = (tmp_path / f"{side}{i}{suffix}" / name for side in ("plain", "traced"))
            assert a.read_bytes() == b.read_bytes(), (job.name, name)


def test_counts_repeat_exactly(deft_modules, tmp_path):
    steps = 4
    job = workloads.make_jobs("finetune-1k", 5, str(tmp_path / "in"), dim=40, steps=steps)[0]
    counts = []
    for i in range(2):
        result, recorded = _traced(job, str(tmp_path / f"out{i}"))
        assert result.done == steps and not result.failed
        m = spans.layer_metrics(recorded, jobs=1, steps=result.done)
        assert m["adapters.forward.calls"] == steps + 1
        assert m["jacobi.jacobi_svd.calls"] == 0
        assert m["adapters.decompose.calls"] == steps + 1
        counts.append({k: v for k, v in m.items() if k.endswith((".calls", ".bytes"))})
    assert counts[0] == counts[1]


def test_finetune_32_keeps_the_lrmf_failure_visible(deft_modules, tmp_path):
    jobs = workloads.make_jobs("finetune-32", 0, str(tmp_path / "in"), steps=20)
    for i, job in enumerate(jobs):
        job = dataclasses.replace(job, max_final=None)  # c08's gate needs all 2000 steps
        result, recorded = _traced(job, str(tmp_path / f"out{i}"))
        forward = sum(1 for s in recorded if s.name == "adapters.forward")
        if job.name == "deft/lrmf":
            assert (result.code, result.done, result.problems) == (1, 12, [])
            assert forward == 13  # the loss at step 12 is computed, then found non-finite
        else:
            assert not result.failed, (job.name, result.problems)
            assert forward == 21


def test_benchmark_json_names_every_metric():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert bench.main(["--workload", "finetune-1k", "--seed", "0", "--seconds", "0.1",
                       "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(spans.PER_LAYER)
    assert result["metrics"]["adapters.forward.calls"]["value"] == 11
    assert result["metrics"]["jacobi.jacobi_svd.calls"]["value"] == 0


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(bench.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
