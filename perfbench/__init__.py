"""DPBench performance benchmark: one command, three workloads, a traced run.

Run one workload from the repository root::

    python3 perfbench/run.py --workload grid --seed 20160626 --seconds 25 --trace 0

The program under test is ``src/repro``, imported from the checkout.  Load
comes from this single process (the grid runs under ``SerialExecutor``: a
worker pool on a 2-core host would time the scheduler), on the numpy kernel
backend.  Each workload builds its inputs from ``--seed``, runs whole passes
until ``--seconds`` have passed, checks every pass's outputs, and prints one
JSON result line (see ``run.py``).  Host and provenance (git sha, Python,
numpy and scipy versions, kernel backend, cores, RAM) are printed with every
result.  The benchmark's own tests are ``test_perfbench.py``.

Workloads
---------
``grid``
    The reduced paper study through ``DPBench.run``: the ``benchmark_1d`` /
    ``benchmark_2d`` reduced settings (1-D n=1024 and 2-D 64x64, three
    scales, 1 data vector x 3 trials, eps 0.1, a JSONL checkpoint) on
    ADULT and SEARCH (1-D) and GOWALLA (2-D) with every registered algorithm,
    141 jobs a pass.  Chosen because it is what DPBench users run: thousands
    of small releases, where SF and AGrid selection, the harness, data
    generation and workload evaluation dominate and the large-domain kernels
    do little.  Check: every job recorded (also in the checkpoint), finite
    errors, and errors bitwise-equal to the first pass of the run, which in
    the traced run is an untraced pass; the report prints their digest.
``serve-mixed``
    One closed-loop caller against ``ReleaseService`` over a 512x512 ``Hb``
    release.  A pass is a version cycle of 10,000 requests (1% batches of
    1024 uncached random rectangles, the rest Zipf-popular point queries of
    which about 87% hit the cache) followed by a re-release that bumps the
    version and empties the cache.  The release, batch size and batch share
    follow the prototype this workload was specified from, and the Zipf
    exponent reproduces that prototype's hit share (51,494 of 60,000); the
    point pool of 20,000 and the 10,000 requests per version are unverified
    assumptions (see ``serve.py``).  Chosen because it is the only workload
    that drives ``repro.serve``, and the re-releases are writes beside the
    reads, so a read-path gain that costs re-releases shows.  Check: every
    61st answer, and the first point and batch after each re-release,
    bitwise-equal to ``QueryMatrix.matvec`` of the current release.
``lint``
    A cold in-process privlint run over ``src`` (against
    ``privlint-baseline.json``) and ``benchmarks`` + ``tests`` (against
    ``privlint-test-baseline.json``), without the summary cache, so each pass
    parses and analyses every file.  Chosen because privlint is a quarter of
    ``src`` and no other workload runs it.  Check: both runs exit 0.

Dropped: ``release-large`` (one release per algorithm at 2^20 cells:
Identity, H, GreedyH, DAWA at 1-D 2^20 and Identity, GreedyH, DAWA at
1024x1024).  A pass of it takes about 20 s on the 2-core host, so a run
timed one or two passes of 14 multi-second releases.  Those releases are
big-array numpy work whose speed on the shared host drifted by 10-20% from
minute to minute, and neither the host probe nor a memory-bound or a
cache-sized probe tracked that drift, so across ten seeds its
``work_per_s`` and ``op_p50_ms`` spread by 0.12-0.24 of their medians,
more than the bounds allow.  The large-domain kernels it timed
(``l1_partition``, ``HierarchicalTree`` construction, ``batched_laplace``)
still run, at small domains, in ``grid``'s traced run, and
``benchmarks/bench_large_domain.py`` still times them at 2^20 and beyond.

End-to-end metrics (untraced, ``--trace 0``)
--------------------------------------------
Every run reports every end-to-end metric, so each is defined for all three
workloads; the unit of work and the operation differ by workload.  Times are
rescaled to a reference host speed (``hostspeed.py``): on the shared 2-core
host this benchmark was built on, the same pass ran up to 2x slower for
tens of seconds at a time, so raw wall times spread more than any bound a
regression gate could use.  The report prints the raw values beside them.

``setup_s``
    Median of three set-ups, divided by the run's median host factor; each
    set-up is a fresh interpreter importing the workload's modules plus
    building the inputs in process (datasets and benchmark objects, data
    arrays, the initial release and query pool, the line count of the
    linted tree).
``peak_rss_mb``
    The process's RSS high-water mark (``ru_maxrss``) at the end of the run.
``work_per_s``
    Work done over busy seconds: grid jobs, answered rectangles
    (re-release time included), linted kilo-lines.
``op_p50_ms``, ``op_p90_ms``
    Median and 90th-percentile latency of one operation: a grid job, a
    request, a lint of the whole tree.  On ``serve-mixed`` both
    are point queries (p50 a cache hit, p90 a miss): batches are 1% of the
    requests, so no end-to-end latency metric sees them.  Their time is in
    ``work_per_s`` (batches carry about nine in ten answered rectangles) and
    in the traced ``serve.answer_batch_ms``.

Failures are the ``failed`` / ``attempted`` counts of the result line
(``fail_share`` is their ratio, printed in the report): a failed grid job, a
served answer that differs from ``QueryMatrix.matvec``, a privlint run that
does not exit 0, or a pass that raised.

Per-layer metrics (traced, ``--trace 1``)
-----------------------------------------
The traced run alternates untraced and traced passes.  Traced passes wrap
the program's public entry points from outside (``tracer.instrument``) and
record spans; the layer is the ``repro`` module.  A metric of a layer that a
workload does not run reads 0.  ``trace.overhead_share`` is the traced
passes' extra busy time per unit of work over the untraced ones, and the
report prints the traced minus untraced end-to-end numbers.

``grid.generate_s``
    ``DataGenerator.generate_many`` (``core.generator``, ``data``)
``grid.evaluate_s``
    ``Workload.evaluate`` (``workload``)
``grid.error_s``
    ``scaled_average_per_query_error`` (``core.error``)
``grid.select_s``, ``grid.measure_s``, ``grid.infer_s``
    ``PlanAlgorithm.select``, ``measure_plan``, ``PlanAlgorithm.infer``
    (``algorithms``, ``core.plan``)
``grid.run_s``
    ``Algorithm.run`` outside the stages: the bespoke Privelet, EFPA and AGrid
``grid.harness_self_s``
    ``DPBench.run`` and job time minus all of the above (``core.benchmark``,
    ``core.executor``, ``core.results``)
``grid.alg_s.<ALG>.<1d|2d>``
    ``Algorithm.run`` of one algorithm (``*`` in a name is spelled ``star``)
``kernel.l1_partition_s``, ``kernel.tree_build_s``, ``kernel.laplace_s``
    ``repro.algorithms.dawa.l1_partition``, ``HierarchicalTree``
    construction, ``batched_laplace``
``serve.release_s``
    ``ReleaseService.release``, per re-release
``serve.hit_ratio``, ``serve.evictions``
    cache hits over lookups; evictions per version cycle
``serve.answer_us``, ``serve.answer_batch_ms``
    ``Release.answer`` / ``Release.answer_batch`` on a cache miss, per call
``lint.module_rules_s``
    ``lint_paths`` minus the dataflow analysis: reading, parsing, module
    rules, project-rule checks
``lint.dataflow_s``
    ``repro.privlint.dataflow.analyze_sources``
``lint.files``, ``lint.findings``
    files linted; findings before baseline filtering, per pass

Per-layer times are raw wall seconds, not rescaled to the reference host
speed: compare layers within one run.  ``grid.*`` times are seconds per pass
and are self times: nested layer spans
are subtracted, so they add up to the pass's wall time.  Kernel spans are
not subtracted from the stage around them; ``kernel.*`` are seconds per pass.

Which end-to-end metric each layer should move:

* ``grid.*`` move ``work_per_s`` and ``op_p*`` on ``grid`` only.  SF is ~85%
  of the 1-D grid and AGrid ~58% of the 2-D grid (the report prints both
  shares).
* ``kernel.*`` are the large-domain kernels; on ``grid`` they should move
  ``work_per_s`` little or not at all (DAWA is ~1.5% of the 1-D grid).
* ``serve.*`` move the metrics of ``serve-mixed`` only; hit and eviction
  counts repeat exactly from cycle to cycle.
* ``lint.*`` move ``work_per_s`` on ``lint`` only.

Seed-code baseline
------------------
Medians of ten untraced 25-second runs per workload (seeds 1-10), rescaled
to the reference host speed, with the spread (interquartile range over the
median) in brackets.  Host: 2-core, 7.8 GB x86_64 virtual machine shared
with other tenants (host factor 1.4-2.2 as a per-run median, 1.25-3.1 over
single probes during these runs), numpy backend, Python 3.11.7, numpy
2.4.6, scipy 1.17.1.

===========  ==========  ===========  =================  ============  ============
workload     setup_s     peak_rss_mb  work_per_s         op_p50_ms     op_p90_ms
===========  ==========  ===========  =================  ============  ============
grid         0.68 (.16)  113 (.006)   49.3 jobs (.03)    2.46 (.06)    29.0 (.03)
serve-mixed  0.76 (.26)  199 (.03)    0.96M rects (.09)  0.0046 (.06)  0.0071 (.05)
lint         0.74 (.37)  118 (.002)   14.0 klines (.08)  1625 (.07)    1854 (.10)
===========  ==========  ===========  =================  ============  ============

The traced run on the default seed: SF takes 85% of the 1-D grid and AGrid
58% of the 2-D grid; on ``serve-mixed`` the cache hit share is 0.865; the
grid's errors digest is ``sha256:bc79ed793c2983fc``.
"""
