"""Tests of the performance benchmark itself, on inputs small enough for tier-1.

Each workload's output check must see a deliberately broken program: a
failed grid record, a wrong served answer, a failing lint run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench import run
from perfbench.grid import GridWorkload
from perfbench.hostspeed import REFERENCE_PROBE_S, HostSpeed
from perfbench.lint import LintWorkload
from perfbench.serve import ServeWorkload
from perfbench.tracer import Tracer, instrument

def tiny_grid(tmp_path):
    return GridWorkload(7, tmp_path, datasets_1d=("ADULT",), datasets_2d=("GOWALLA",),
                        algorithms_1d=["Identity", "H"], algorithms_2d=["Identity"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())


def test_tracer_self_times_partition_the_root():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("kernel", detail=True):
                pass
        with tracer.span("child"):
            pass
    root = tracer.select("root")[0]
    total = tracer.self_seconds("root") + tracer.self_seconds("child")
    assert total == pytest.approx(root.seconds)
    kernel = tracer.select("kernel")[0]
    assert kernel.self_s == kernel.seconds
    first_child = tracer.select("child")[0]           # a detail span is not subtracted
    assert first_child.self_s == first_child.seconds


def test_host_factor_interpolates_probe_samples():
    host = HostSpeed()
    host.samples = [(0.0, 2 * REFERENCE_PROBE_S), (10.0, 4 * REFERENCE_PROBE_S)]
    assert host.factors_at(np.array([5.0, 20.0])) == pytest.approx([3.0, 4.0])
    assert host.factor(-1.0, 11.0) == pytest.approx(3.0)
    assert host.factor(1.0, 2.0) == pytest.approx(2.0)     # nearest sample


def test_grid_passes_agree_and_trace(tmp_path):
    workload = tiny_grid(tmp_path)
    first = workload.run_pass()
    tracer = Tracer()
    with instrument(tracer):
        second = workload.run_pass(tracer)
    assert first.failed == second.failed == 0
    assert first.attempted == workload.n_jobs == len(first.latencies_s) == 9
    metrics = workload.layer_metrics(tracer, 1)
    assert metrics["grid.select_s"] > 0 and metrics["grid.alg_s.H.1d"] > 0
    assert set(metrics) <= set(dict(run.per_layer_metrics()))


def test_failed_grid_record_is_counted(tmp_path, monkeypatch):
    from repro.algorithms.hier import HierarchicalH

    def broken(*args, **kwargs):
        raise RuntimeError("deliberately broken")

    workload = tiny_grid(tmp_path)
    monkeypatch.setattr(HierarchicalH, "select", broken)
    result = workload.run_pass()
    assert result.failed == 3 and result.attempted == 9


def test_serve_answers_checked(tmp_path):
    workload = ServeWorkload(7, tmp_path, side=32, requests=100)
    result = workload.run_pass()
    assert (result.attempted, result.failed) == (100, 0)
    assert workload.service.version == 2


@pytest.mark.parametrize("method", ["answer", "answer_batch"])
def test_wrong_serve_answer_is_counted(tmp_path, monkeypatch, method):
    from repro.serve.store import Release

    original = getattr(Release, method)
    monkeypatch.setattr(Release, method,
                        lambda self, *args: np.nextafter(original(self, *args), np.inf))
    result = ServeWorkload(7, tmp_path, side=32, requests=100).run_pass()
    assert result.failed >= 1


def test_lint_exit_status_checked(tmp_path, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    clean = LintWorkload(7, tmp_path, runs=((("src/repro/serve",), "privlint-baseline.json"),))
    assert clean.run_pass().failed == 0
    dirty = LintWorkload(7, tmp_path, runs=((("tests/test_serve.py",), "privlint-baseline.json"),))
    assert dirty.run_pass().failed == 1
