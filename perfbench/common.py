"""Pieces shared by the workloads: pass results, data generation, RSS and checks.

``skewed_counts`` repeats ``_counts`` of ``benchmarks/bench_large_domain.py``,
which cannot be imported without pytest and the benches' shared fixtures; it
goes when those benches are folded in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: Privacy budget of every release the benchmark makes.
EPSILON = 0.1


@dataclass
class PassResult:
    """What one pass of a workload did.

    ``work`` is counted in the workload's unit (grid jobs, answered
    rectangles, linted kilo-lines) and ``seconds`` is the
    time the program was busy producing it.  ``latencies_s`` holds one entry
    per operation (a grid job, a request, a lint of the tree) and
    ``op_ends`` the ``perf_counter()`` at which each ended.
    """

    work: float = 0.0
    seconds: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    op_ends: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    raised: bool = False
    start: float = 0.0                  # perf_counter() bounds of the pass
    end: float = 0.0

    def add_op(self, seconds: float, end: float | None = None) -> None:
        self.latencies_s.append(seconds)
        self.op_ends.append(time.perf_counter() if end is None else end)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def no_tick() -> float:
    """Default for the ``tick`` a workload calls between operations."""
    return 0.0


def skewed_counts(n_cells: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse skewed counts at ~10 units per cell: the large-domain regime.

    The same Dirichlet(0.05) shape the large-domain bench draws, so both
    measure the same kind of input.
    """
    shape = rng.dirichlet(np.full(n_cells, 0.05))
    return rng.multinomial(10 * n_cells, shape).astype(float)


def bitwise_equal(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
