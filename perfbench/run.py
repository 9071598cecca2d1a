"""Run one workload of the DPBench performance benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid --seed 20160626 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
lines before it give the host and provenance and a short report; failed
checks are also written to standard error.  The result and report are kept in
``.perfbench-run/<workload>-trace<0|1>.json`` in the repository root.  Files a
workload writes while it runs (the grid's checkpoints) go to a directory of
the run's own under ``.perfbench-run/``, removed when the run ends, so runs side
by side in one checkout share no files.  See ``perfbench/__init__.py`` for the
workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-run"
DEFAULT_SEED = 20160626
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: (name, unit, better) of every end-to-end metric, measured untraced.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "work/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
)

KERNELS = ("l1_partition", "tree_build", "laplace")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, reported by the traced run."""
    from perfbench.grid import LAYERS, metric_name
    from repro import algorithm_names

    names = [(f"grid.{layer}_s", "s") for layer in (*LAYERS, "harness_self")]
    names += [(f"grid.alg_s.{metric_name(algorithm)}.{ndim}d", "s")
              for ndim in (1, 2) for algorithm in algorithm_names(ndim)]
    names += [(f"kernel.{kernel}_s", "s") for kernel in KERNELS]
    names += [("serve.release_s", "s"), ("serve.hit_ratio", "share"),
              ("serve.evictions", "count"), ("serve.answer_us", "us"),
              ("serve.answer_batch_ms", "ms")]
    names += [("lint.module_rules_s", "s"), ("lint.dataflow_s", "s"),
              ("lint.files", "count"), ("lint.findings", "count")]
    names += [("trace.overhead_share", "share")]
    return names


def workloads() -> dict:
    from perfbench.grid import GridWorkload
    from perfbench.lint import LintWorkload
    from perfbench.serve import ServeWorkload

    return {cls.name: cls for cls in (GridWorkload, ServeWorkload, LintWorkload)}


# -- provenance ------------------------------------------------------------------------

def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository.

    ``GIT_CEILING_DIRECTORIES`` keeps git from searching above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info() -> dict:
    import numpy
    import scipy
    from repro.core.kernels import active_backend

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "platform": platform.platform(),
    }


# -- measurement ------------------------------------------------------------------------

def run_imports(statement: str) -> None:
    """Run the workload's imports in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    subprocess.run([sys.executable, "-c", statement], cwd=ROOT, env=env,
                   check=True, timeout=120)


def set_up(workload_cls, seed: int, out_dir: Path):
    """Median of ``SETUP_REPEATS`` set-ups (imports + building the inputs).

    Returns the last workload built and the median set-up seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_imports(workload_cls.imports)
        workload = workload_cls(seed, out_dir)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def run_pass(workload, host, tracer=None):
    """One pass; an exception counts as a failed pass (``raised`` set).

    A traced pass probes the host only at its ends, so that no probe runs
    inside a span.
    """
    from perfbench.common import PassResult, no_tick

    host.tick()
    start = time.perf_counter()
    try:
        result = workload.run_pass(tracer, no_tick if tracer else host.tick)
    except Exception:                    # noqa: BLE001 - report, do not crash
        traceback.print_exc()
        result = PassResult(attempted=1, raised=True)
        result.fail("pass raised " + traceback.format_exc(limit=1).strip())
    result.start, result.end = start, time.perf_counter()
    host.tick()
    return result


def measure(workload, seconds: float, host) -> list:
    """Untraced passes until ``seconds`` have passed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, host))
        if passes[-1].raised:
            break
    return passes


def measure_traced(workload, seconds: float, host, tracer):
    """Alternate untraced and traced passes until ``seconds`` have passed.

    Alternating puts both sides in the same warm-up and host state, so their
    difference is the tracing overhead.
    """
    from perfbench.tracer import instrument

    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(workload, host))
        with instrument(tracer):
            traced.append(run_pass(workload, host, tracer))
        if untraced[-1].raised or traced[-1].raised:
            break
    return untraced, traced


def summarise(passes, host=None) -> dict[str, float]:
    """Work per busy second and latency percentiles over every operation.

    With ``host``, times are divided by the host factor: each operation's by
    the factor at its midpoint, the rest of a pass's busy time by the pass's.
    """
    import numpy as np

    work, busy, latencies = 0.0, 0.0, []
    for p in passes:
        ops = np.asarray(p.latencies_s)
        factor = 1.0
        if host is not None:
            ops = ops / host.factors_at(np.asarray(p.op_ends) - ops / 2)
            factor = host.factor(p.start, p.end)
        work += p.work
        # Busy time outside operations (the harness between grid jobs, serve
        # re-releases) is rescaled by the pass's mean factor.
        busy += ops.sum() + max(p.seconds - sum(p.latencies_s), 0.0) / factor
        latencies.append(ops)
    latencies = np.concatenate(latencies)
    if latencies.size == 0:                  # only passes that raised
        latencies = np.zeros(1)
    return {
        "work_per_s": work / busy if busy > 0 else 0.0,
        "op_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "ops": len(latencies),
    }


def kernel_metrics(tracer, passes: int) -> dict[str, float]:
    """Kernel time per pass."""
    return {f"kernel.{kernel}_s": sum(s.seconds for s in tracer.select(f"kernel.{kernel}"))
            / passes for kernel in KERNELS}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns (result, report lines).

    The workload writes its files into a directory of this run's own.
    """
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR))
    try:
        return measure_and_check(workload_name, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure_and_check(workload_name: str, seed: int, seconds: float, trace: bool,
                      work_dir: Path) -> tuple[dict, list[str]]:
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracer import Tracer

    workload_cls = workloads()[workload_name]
    workload, raw_setup_s = set_up(workload_cls, seed, work_dir)
    host = HostSpeed()
    report = []
    if trace:
        tracer = Tracer()
        reference, passes = measure_traced(workload, seconds, host, tracer)
        untraced, traced = summarise(reference, host), summarise(passes, host)
        overhead = (untraced["work_per_s"] / traced["work_per_s"] - 1
                    if traced["work_per_s"] > 0 else 0.0)
        metrics = {name: 0.0 for name, _ in per_layer_metrics()}
        metrics.update(kernel_metrics(tracer, len(passes)))
        metrics.update(workload.layer_metrics(tracer, len(passes)))
        metrics["trace.overhead_share"] = overhead
        units = dict(per_layer_metrics())
        report.append(f"{workload_name}: tracing overhead {overhead:+.1%} of busy time; "
                      + ", ".join(f"{key} {traced[key] - untraced[key]:+.4g}"
                                  for key in ("work_per_s", "op_p50_ms", "op_p90_ms"))
                      + " (traced minus untraced)")
        report += workload.report(tracer)
        checked = reference + passes
    else:
        passes = measure(workload, seconds, host)
        summary, raw = summarise(passes, host), summarise(passes)
        # Set-up is mostly a subprocess's imports, which track the probe of
        # this process too loosely for per-set-up factors: it is rescaled by
        # the run's median factor.
        metrics = {
            "setup_s": raw_setup_s / statistics.median(host.factors()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_s": summary["work_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_p90_ms": summary["op_p90_ms"],
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        report.append(f"{workload_name}: {len(passes)} passes, {summary['ops']} operations, "
                      f"work unit {workload_cls.unit}")
        report.append(f"{workload_name}: before rescaling to the reference host speed: "
                      f"setup_s {raw_setup_s:.4g}, " + ", ".join(
                          f"{key} {raw[key]:.4g}" for key in ("work_per_s", "op_p50_ms",
                                                               "op_p90_ms")))
        report += workload.report()
        checked = passes
    factors = host.factors()
    report.append(f"{workload_name}: host factor median {statistics.median(factors):.3f}, "
                  f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} probes")
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    for failure in [f for p in checked for f in p.failures][:20]:
        report.append(f"FAILED: {failure}")
        print(f"FAILED: {failure}", file=sys.stderr)
    report.append(f"{workload_name}: fail_share {failed / max(attempted, 1):.4g} "
                  f"({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads())}")

    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host": host_info()}
    print(json.dumps(provenance), flush=True)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    kept = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    partial = kept.with_name(f"{kept.name}.{os.getpid()}")
    partial.write_text(json.dumps({**provenance, "report": report, "result": result},
                                  indent=2) + "\n", encoding="utf8")
    partial.replace(kept)                   # whole, also with runs side by side
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
