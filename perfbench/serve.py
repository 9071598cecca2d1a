"""``serve-mixed``: one closed-loop caller against ``ReleaseService``.

The service holds a 512x512 ``Hb`` release.  One pass is a version cycle:
``REQUESTS`` requests, every ``BATCH_EVERY``-th a batch of ``BATCH_SIZE``
random rectangles and the rest Zipf-popular point queries, then a
re-release (same data, fresh noise) that bumps the version and empties the
cache.  Every cycle replays the same request schedule, so cache hits and
evictions repeat exactly from cycle to cycle.

Where the traffic comes from.  The 512x512 ``Hb`` release, the batches of
1024 random rectangles and the 1% batch share are those of the prototype
this workload was specified from.  The Zipf exponent is set so that the
point-query cache hit share (about 0.865) matches that prototype's 51,494
hits in 60,000 requests (0.858).  The pool of 20,000 distinct point queries
and the 10,000 requests per version are assumptions: no serving trace of
this library exists to take them from.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from .common import EPSILON, PassResult, bitwise_equal, no_tick, skewed_counts

SIDE = 512
ALGORITHM = "Hb"
REQUESTS = 10_000                 # per version; an assumption
BATCH_EVERY = 100                 # 1% batches, as in the prototype
BATCH_SIZE = 1024
POINT_POOL = 20_000               # an assumption
ZIPF_EXPONENT = 1.3               # matches the prototype's cache hit share
CHECK_EVERY = 61                  # plus the first point and batch of a cycle


def random_rectangles(rng: np.random.Generator, count: int, side: int):
    corners = np.sort(rng.integers(0, side, size=(count, 2, 2)), axis=2)
    return corners[:, :, 0].copy(), corners[:, :, 1].copy()


class ServeWorkload:
    name = "serve-mixed"
    imports = "import repro.serve"
    unit = "rects"

    def __init__(self, seed: int, out_dir: Path, side: int = SIDE,
                 requests: int = REQUESTS):
        from repro.serve import ReleaseService

        rng = np.random.default_rng(seed)
        self.seed = seed
        self.data = skewed_counts(side * side, rng).reshape(side, side)
        self.service = ReleaseService(ALGORITHM, epsilon=EPSILON)
        self.service.release(self.data, rng=np.random.default_rng([seed, 0]))
        # The request schedule of one cycle: batch requests index a pool used
        # once per cycle, point requests draw pool ranks from a Zipf law.
        n_batches = requests // BATCH_EVERY
        self.batches = [random_rectangles(rng, BATCH_SIZE, side)
                        for _ in range(n_batches)]
        los, his = random_rectangles(rng, POINT_POOL, side)
        self.points = [(tuple(map(int, lo)), tuple(map(int, hi)))
                       for lo, hi in zip(los, his)]
        weights = 1.0 / np.arange(1, POINT_POOL + 1) ** ZIPF_EXPONENT
        ranks = rng.choice(POINT_POOL, size=requests - n_batches,
                           p=weights / weights.sum())
        schedule, batch, point = [], 0, 0
        for i in range(requests):
            if i % BATCH_EVERY == BATCH_EVERY - 1:
                schedule.append(("batch", batch))
                batch += 1
            else:
                schedule.append(("point", int(ranks[point])))
                point += 1
        self.schedule = schedule
        self.cycles = 0
        self.cache_stats = []

    def run_pass(self, tracer=None, tick=no_tick) -> PassResult:
        from repro import QueryMatrix

        service = self.service
        result = PassResult(attempted=len(self.schedule))
        release = service.current_release
        checked_kinds = set()
        stats_before = service.cache.stats()
        for i, (kind, index) in enumerate(self.schedule):
            tick()
            if kind == "point":
                lo, hi = self.points[index]
                start = time.perf_counter()
                answer = service.query(lo, hi)
                seconds = time.perf_counter() - start
                result.work += 1
            else:
                lo, hi = self.batches[index]
                start = time.perf_counter()
                answer = service.query_batch(lo, hi)
                seconds = time.perf_counter() - start
                result.work += len(lo)
            result.add_op(seconds, end=start + seconds)
            if kind not in checked_kinds or i % CHECK_EVERY == 0:
                checked_kinds.add(kind)
                los = np.reshape(np.asarray(lo), (-1, 2))
                his = np.reshape(np.asarray(hi), (-1, 2))
                expected = QueryMatrix(los, his, release.domain_shape).matvec(
                    release.histogram)
                if not bitwise_equal(np.reshape(answer, -1), expected):
                    result.fail(f"cycle {self.cycles} request {i}: {kind} answer "
                                "differs from QueryMatrix.matvec of the release")
        result.seconds = sum(result.latencies_s)
        if tracer is not None:
            self.cache_stats.append((stats_before, service.cache.stats()))
        self.cycles += 1
        tick()
        start = time.perf_counter()
        service.release(self.data, rng=np.random.default_rng([self.seed, self.cycles]))
        result.seconds += time.perf_counter() - start
        if service.version != self.cycles + 1:
            result.fail(f"re-release left version {service.version}")
        return result

    def layer_metrics(self, tracer, passes: int) -> dict[str, float]:
        hits = sum(after.hits - before.hits for before, after in self.cache_stats)
        lookups = sum(after.lookups - before.lookups
                      for before, after in self.cache_stats)
        evictions = sum(after.evictions - before.evictions
                        for before, after in self.cache_stats)
        answers = tracer.select("serve.answer")
        batches = tracer.select("serve.answer_batch")
        releases = tracer.select("serve.release")
        return {
            "serve.release_s": _mean(releases),
            "serve.hit_ratio": hits / max(lookups, 1),
            "serve.evictions": evictions / max(len(self.cache_stats), 1),
            "serve.answer_us": 1e6 * _mean(answers),
            "serve.answer_batch_ms": 1e3 * _mean(batches),
        }

    def report(self, tracer=None) -> list[str]:
        return [f"serve-mixed: {self.cycles} cycles of {len(self.schedule)} requests, "
                f"version {self.service.version}"]


def _mean(spans) -> float:
    return sum(s.seconds for s in spans) / len(spans) if spans else 0.0
