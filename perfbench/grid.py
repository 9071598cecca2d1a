"""``grid``: the reduced paper study through ``DPBench.run``.

Thousands of small releases (1-D n=1024, 2-D 64x64) on a fixed subset of the
paper's datasets with every registered algorithm, as a DPBench user runs
them: serial executor, eps 0.1, a JSONL checkpoint.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from .common import EPSILON, PassResult, no_tick

#: The dataset subset: every registered algorithm runs on each.  One pass
#: (141 jobs, both dimensions) takes ~5 s on a 2-core host.
DATASETS_1D = ("ADULT", "SEARCH")
DATASETS_2D = ("GOWALLA",)
#: The suite's reduced defaults, pinned so ``DPBENCH_FULL`` cannot resize the
#: benchmark: 3 scales, one domain, 1 data vector x 3 trials per cell.
SCALES = {1: (10 ** 3, 10 ** 5, 10 ** 7), 2: (10 ** 4, 10 ** 6, 10 ** 8)}
DOMAINS = {1: (1024,), 2: (64, 64)}
N_DATA_SAMPLES, N_TRIALS = 1, 3
#: Span names whose self time is a ``grid.<layer>_s`` metric.
LAYERS = ("generate", "evaluate", "error", "select", "measure", "infer", "run")


class TimedExecutor:
    """A ``SerialExecutor`` that times each job and, when traced, spans it.

    ``tick`` runs between jobs; ``tick_seconds`` is the time it took.
    """

    def __init__(self, tracer=None, tick=no_tick):
        self.tracer = tracer
        self.tick = tick
        self.jobs = PassResult()
        self.tick_seconds = 0.0

    def execute(self, bench, jobs, root_entropy, on_error="record"):
        from repro import SerialExecutor

        jobs = list(jobs)
        inner = SerialExecutor().execute(bench, jobs, root_entropy, on_error)
        for job in jobs:                    # the serial executor yields once per job
            frame = self.tracer.open("job") if self.tracer else None
            start = time.perf_counter()
            item = next(inner)
            self.jobs.add_op(time.perf_counter() - start)
            if frame is not None:
                self.tracer.close(frame)
            self.tick_seconds += self.tick()
            yield item


class GridWorkload:
    name = "grid"
    imports = "import repro"
    unit = "jobs"

    def __init__(self, seed: int, out_dir: Path, datasets_1d=DATASETS_1D,
                 datasets_2d=DATASETS_2D, algorithms_1d=None, algorithms_2d=None):
        import repro

        repro.load_dataset.cache_clear()        # set-up pays the dataset build
        self.seed = seed
        self.benches = []
        for ndim, make, datasets, algorithms in (
                (1, repro.benchmark_1d, datasets_1d, algorithms_1d),
                (2, repro.benchmark_2d, datasets_2d, algorithms_2d)):
            self.benches.append(make(
                datasets=list(datasets), algorithms=algorithms,
                scales=SCALES[ndim], domain_shapes=[DOMAINS[ndim]],
                epsilons=(EPSILON,), n_data_samples=N_DATA_SAMPLES,
                n_trials=N_TRIALS, checkpoint=out_dir / f"grid_{ndim}d.jsonl"))
        self.n_jobs = sum(len(bench.jobs()) for bench in self.benches)
        self.reference: dict[tuple, bytes] | None = None
        self.digest = ""

    def run_pass(self, tracer=None, tick=no_tick) -> PassResult:
        result = PassResult(attempted=self.n_jobs)
        records = []
        for bench in self.benches:
            executor = TimedExecutor(tracer, tick)
            start = time.perf_counter()
            records.extend(bench.run(rng=self.seed, executor=executor,
                                     resume=False).records)
            result.seconds += time.perf_counter() - start - executor.tick_seconds
            result.latencies_s += executor.jobs.latencies_s
            result.op_ends += executor.jobs.op_ends
        result.work = len(records)
        self._check(records, result)
        return result

    def _check(self, records, result: PassResult) -> None:
        """Every job recorded, finite errors, bitwise-equal to the first pass."""
        if len(records) != self.n_jobs:
            result.failed += self.n_jobs - len(records)
            result.failures.append(f"{self.n_jobs - len(records)} jobs missing")
        logged = sum(Path(bench.checkpoint).read_text(encoding="utf8").count("\n")
                     for bench in self.benches)
        if logged != self.n_jobs:
            result.fail(f"checkpoint holds {logged} entries for {self.n_jobs} jobs")
        errors = {}
        digest = hashlib.sha256()
        for record in records:
            key = record.record_key()
            data = np.asarray(record.errors, dtype=float)
            errors[key] = data.tobytes()
            digest.update(repr(key).encode() + errors[key])
            if record.failed:
                result.fail(f"{key}: {record.failure_message}")
            elif data.shape != (N_DATA_SAMPLES * N_TRIALS,) \
                    or not np.isfinite(data).all():
                result.fail(f"{key}: errors {data!r}")
            elif self.reference is not None and self.reference.get(key) != errors[key]:
                result.fail(f"{key}: errors differ from the first pass")
        if self.reference is None:
            self.reference = errors
            self.digest = digest.hexdigest()

    def layer_metrics(self, tracer, passes: int) -> dict[str, float]:
        metrics = {f"grid.{layer}_s": tracer.self_seconds(layer) / passes
                   for layer in LAYERS}
        metrics["grid.harness_self_s"] = (tracer.self_seconds("grid.run")
                                          + tracer.self_seconds("job")) / passes
        for (algorithm, dim), seconds in tracer.seconds_by_tag("run").items():
            metrics[f"grid.alg_s.{metric_name(algorithm)}.{dim}"] = seconds / passes
        return metrics

    def report(self, tracer=None) -> list[str]:
        lines = [f"grid: {self.n_jobs} jobs per pass, errors digest "
                 f"sha256:{self.digest[:16]}"]
        if tracer is not None:
            walls = tracer.seconds_by_tag("grid.run")
            runs = tracer.seconds_by_tag("run")
            for algorithm, dim in (("SF", "1d"), ("AGrid", "2d")):
                share = runs.get((algorithm, dim), 0.0) / max(walls.get(dim, 0.0), 1e-12)
                lines.append(f"grid: {algorithm} takes {share:.1%} of the {dim} grid")
        return lines


def metric_name(algorithm: str) -> str:
    """Registry name as a metric-name part: ``MWEM*`` becomes ``MWEMstar``."""
    return algorithm.replace("*", "star")
