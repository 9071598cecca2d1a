"""Compiled-kernel dispatch for the hot inner loops of million-cell runs.

The pure-numpy hot paths carry the benchmark comfortably to n = 4096 in 1-D
and 64 x 64 in 2-D; million-cell domains (n = 2**20, 1024**2 and up) expose
three walls:

* **DAWA's L1-partition survivor scan** — the dominance-pruned DP's exact
  sequential core.  In the noise-dominated regime (small epsilon) pruning
  barely bites and the scan degenerates to ``O(n log n)`` interpreter
  iterations (the known ~2x gap left open when the DP was vectorised).
* **The tree two-pass GLS** — per level it gathers ``(rows, k)`` dense
  intermediates; at 2**20 leaves a single level holds half a million rows,
  so the transient allocations dwarf the O(n) solution state.
* **Laplace noise draws** — one heterogeneous-scale vector draw per plan pays
  per-element broadcasting overhead even though a plan's scales are constant
  within each tree level / bucket group.

This module is the dispatch seam that removes those walls without touching
the algorithm layer: a small registry maps *named kernels* to backend
implementations.  A pure-numpy reference is always registered; a ``numba``
backend is auto-detected at import time (numba is **never** a hard
dependency — when it is absent everything runs on the reference
implementations).  The njit sources are plain scalar loops over float64/int64
arrays performing exactly the reference's floating-point operations in the
same order, so every backend is bitwise-identical — the registry-wide parity
tests pin this, and the python sources of the numba kernels are exercised
even when numba itself is absent.

Backend selection
-----------------
``DPBENCH_KERNEL`` picks the backend for every dispatch:

* ``auto`` (default) — numba where a numba implementation exists and numba
  is importable, the numpy reference otherwise;
* ``numpy`` — force the reference implementations;
* ``numba`` — require numba (raises a clear error when it is not
  installed); kernels without a numba implementation (e.g. the
  generator-bound ``batched_laplace``) still run their numpy reference.

Tests pin a backend with the :func:`use_backend` context manager instead of
mutating the environment.

Registered kernels
------------------
``l1_partition_core``
    The survivor scan of DAWA's partition DP: ``(c1, s_end, s_len, s_cost)
    -> choice``; see :func:`~repro.algorithms.dawa.l1_partition`.
``tree_two_pass``
    The two-pass tree GLS over a flattened level plan, streamed in
    fixed-size row blocks (:data:`TREE_BLOCK`) so no per-level dense
    intermediate outgrows the block; see
    :func:`~repro.core.gls.tree_least_squares`.
``batched_laplace``
    Noise for a whole plan in one generator call per constant-scale run,
    stream-identical to the historical per-query draws; see
    :func:`~repro.core.plan.measure_plan`.

NOTE: like :mod:`repro.core.measurement`, this module is imported by the
algorithm modules while the package graph is still loading; it must stay a
leaf (numpy + stdlib only).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable

import numpy as np

__all__ = [
    "BACKENDS",
    "TREE_BLOCK",
    "active_backend",
    "available_backends",
    "batched_laplace",
    "get_kernel",
    "kernel_names",
    "numba_available",
    "register_kernel",
    "use_backend",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    _NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the container default
    _njit = None
    _NUMBA_AVAILABLE = False

BACKENDS = ("numpy", "numba")

#: Row-block size of the streaming tree solver: per-level dense intermediates
#: are capped at O(TREE_BLOCK * branching) elements regardless of the domain
#: size (a 2**20-leaf binary tree's widest level holds 2**19 parent rows; the
#: block keeps the transient gathers ~16x smaller than that).
TREE_BLOCK = 32768

_REGISTRY: dict[str, dict[str, Callable]] = {}
_OVERRIDE: str | None = None


def numba_available() -> bool:
    """True when the optional numba backend was importable."""
    return _NUMBA_AVAILABLE


def register_kernel(name: str, backend: str, func: Callable) -> Callable:
    """Register ``func`` as the ``backend`` implementation of kernel ``name``."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    _REGISTRY.setdefault(name, {})[backend] = func
    return func


def kernel_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def available_backends(name: str) -> tuple[str, ...]:
    """Backends registered for ``name`` (reference first)."""
    impls = _kernel_impls(name)
    return tuple(b for b in BACKENDS if b in impls)


def _kernel_impls(name: str) -> dict[str, Callable]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {kernel_names()}") from None


def requested_backend() -> str:
    """The backend the environment (or a :func:`use_backend` block) asks for."""
    requested = _OVERRIDE or os.environ.get("DPBENCH_KERNEL", "auto") or "auto"
    if requested not in ("auto",) + BACKENDS:
        raise ValueError(
            f"DPBENCH_KERNEL={requested!r} is not understood; expected "
            f"'auto', 'numpy' or 'numba'")
    return requested


def active_backend(name: str | None = None) -> str:
    """The backend a dispatch resolves to.

    With ``name`` given, the backend :func:`get_kernel` would pick for that
    kernel; without, the run-wide preference (what run-logs record): ``numba``
    whenever numba is importable and not explicitly disabled.
    """
    requested = requested_backend()
    if requested == "numpy":
        return "numpy"
    if requested == "numba" and not _NUMBA_AVAILABLE:
        raise RuntimeError(
            "DPBENCH_KERNEL=numba but numba is not installed; install numba "
            "or drop the override (DPBENCH_KERNEL=auto falls back cleanly)")
    if not _NUMBA_AVAILABLE:
        return "numpy"
    if name is not None and "numba" not in _kernel_impls(name):
        return "numpy"
    return "numba"


def get_kernel(name: str) -> Callable:
    """The implementation of ``name`` under the active backend."""
    return _kernel_impls(name)[active_backend(name)]


@contextmanager
def use_backend(backend: str):
    """Pin the dispatch backend inside a ``with`` block (tests, benches)."""
    global _OVERRIDE
    if backend not in ("auto",) + BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    previous = _OVERRIDE
    _OVERRIDE = backend
    try:
        active_backend()  # fail fast on numba-required-but-absent
        yield
    finally:
        _OVERRIDE = previous


# -- l1_partition_core ----------------------------------------------------------------
#
# The exact sequential recurrence of DAWA's dominance-pruned partition DP:
# cell i's best cost is min over the length-1 candidate (evaluated inline
# from ``c1``) and the pruning survivors ending at i (``s_end``/``s_len``/
# ``s_cost``, in (end, ascending length) order, ``s_end`` carrying one
# trailing sentinel that equals no real cell).  Returns the per-cell chosen
# length; the caller backtracks the bucket boundaries from it.

def _l1_partition_core_numpy(c1: np.ndarray, s_end: np.ndarray,
                             s_len: np.ndarray, s_cost: np.ndarray) -> np.ndarray:
    """Reference survivor scan (plain python over lists — the fastest
    interpreter form, kept as the executable specification)."""
    n = c1.shape[0]
    c1_list = c1.tolist()
    end_list = s_end.tolist()
    len_list = s_len.tolist()
    cost_list = s_cost.tolist()
    dp = [0.0] * (n + 1)
    choice = [1] * (n + 1)
    ptr = 0
    prev = 0.0
    i = 0
    for cost_1 in c1_list:
        i += 1
        best = prev + cost_1
        best_length = 1
        while end_list[ptr] == i:
            length = len_list[ptr]
            candidate = dp[i - length] + cost_list[ptr]
            if candidate < best:
                best, best_length = candidate, length
            ptr += 1
        dp[i] = best
        choice[i] = best_length
        prev = best
    return np.array(choice, dtype=np.int64)


def _l1_partition_core_scalar(c1, s_end, s_len, s_cost):
    """njit source of the survivor scan: the same two-operand float64
    additions and comparisons as the reference, in the same order."""
    n = c1.shape[0]
    dp = np.zeros(n + 1, dtype=np.float64)
    choice = np.ones(n + 1, dtype=np.int64)
    ptr = 0
    prev = 0.0
    for i in range(1, n + 1):
        best = prev + c1[i - 1]
        best_length = np.int64(1)
        while s_end[ptr] == i:
            length = s_len[ptr]
            candidate = dp[i - length] + s_cost[ptr]
            if candidate < best:
                best = candidate
                best_length = length
            ptr += 1
        dp[i] = best
        choice[i] = best_length
        prev = best
    return choice


register_kernel("l1_partition_core", "numpy", _l1_partition_core_numpy)


# -- tree_two_pass --------------------------------------------------------------------
#
# The two passes of the exact tree GLS over a *flattened level plan*: a list
# of ``(parents, children)`` index-array groups in top-down level order, each
# group holding the internal nodes of one level with a common child count k
# (``parents`` shape ``(rows,)``, ``children`` shape ``(rows, k)``).  Rows
# within a level are independent, so both passes stream the groups in
# fixed-size row blocks: every dense intermediate is at most
# ``(block, k)`` — at 2**20 leaves the widest binary level holds 2**19 rows,
# and blocking keeps the transient gathers bounded by the block instead.
# Chunking rows changes no per-row float operation, so the result is
# bitwise-identical to the historical whole-level implementation.

def _pass1_group_numpy(combined, combined_var, own_values, own_vars,
                       parents, children, block):
    for lo in range(0, parents.shape[0], block):
        p = parents[lo:lo + block]
        ch = children[lo:lo + block]
        # Sequential left-to-right accumulation (exactly Python's sum()).
        child_sum = combined[ch[:, 0]].copy()
        child_var = combined_var[ch[:, 0]].copy()
        for j in range(1, ch.shape[1]):
            child_sum += combined[ch[:, j]]
            child_var += combined_var[ch[:, j]]
        v_own, s_own = own_values[p], own_vars[p]
        with np.errstate(divide="ignore"):
            w_own = np.where(np.isfinite(s_own) & (s_own > 0), 1.0 / s_own, 0.0)
            w_child = np.where(np.isfinite(child_var) & (child_var > 0),
                               1.0 / child_var, 0.0)
        total_weight = w_own + w_child
        with np.errstate(invalid="ignore", divide="ignore"):
            estimate = np.where(
                total_weight > 0,
                (w_own * v_own + w_child * child_sum) / total_weight,
                (v_own + child_sum) / 2.0,
            )
            variance = np.where(total_weight > 0, 1.0 / total_weight, np.inf)
        combined[p] = estimate
        combined_var[p] = variance


def _pass2_group_numpy(final, combined, combined_var, parents, children, block):
    k = children.shape[1]
    for lo in range(0, parents.shape[0], block):
        p = parents[lo:lo + block]
        ch = children[lo:lo + block]
        child_estimates = combined[ch]
        child_variances = combined_var[ch]
        # numpy pairwise sum over length-k rows, as the original did.
        residual = final[p] - child_estimates.sum(axis=1)
        finite = np.isfinite(child_variances)
        capped = np.where(finite, child_variances, 0.0)
        total = capped.sum(axis=1)
        uniform = (~finite.any(axis=1)) | (total <= 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(uniform[:, None],
                              np.full((1, k), 1.0 / k),
                              capped / total[:, None])
        final[ch.ravel()] = (
            child_estimates + residual[:, None] * shares).ravel()


def _tree_two_pass_numpy(groups, own_values, own_vars,
                         block: int = TREE_BLOCK):
    """Streaming reference: both passes in row blocks of at most ``block``."""
    combined = own_values.copy()
    combined_var = own_vars.copy()
    for parents, children in reversed(groups):
        _pass1_group_numpy(combined, combined_var, own_values, own_vars,
                           parents, children, block)
    final = combined.copy()
    for parents, children in groups:
        _pass2_group_numpy(final, combined, combined_var, parents, children,
                           block)
    return final


def _pairwise_sum_scalar(values, n):
    """numpy's pairwise summation of ``values[:n]`` (n <= 128), replicated
    element-for-element so a scalar loop reproduces ``ndarray.sum`` over a
    contiguous row bitwise: sequential from 0.0 below 8 elements, the
    8-accumulator unrolled form up to the 128-element pairwise block size."""
    if n < 8:
        res = 0.0
        for i in range(n):
            res = res + values[i]
        return res
    r0 = values[0]
    r1 = values[1]
    r2 = values[2]
    r3 = values[3]
    r4 = values[4]
    r5 = values[5]
    r6 = values[6]
    r7 = values[7]
    i = 8
    while i < n - (n % 8):
        r0 = r0 + values[i]
        r1 = r1 + values[i + 1]
        r2 = r2 + values[i + 2]
        r3 = r3 + values[i + 3]
        r4 = r4 + values[i + 4]
        r5 = r5 + values[i + 5]
        r6 = r6 + values[i + 6]
        r7 = r7 + values[i + 7]
        i += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        res = res + values[i]
        i += 1
    return res


if _NUMBA_AVAILABLE:  # pragma: no cover - exercised on the numba CI leg
    # Rebind in place so the njit compilation of pass 2 below resolves its
    # global reference to the compiled helper (numba cannot call back into
    # the interpreter); the jitted form stays callable from plain python.
    _pairwise_sum_scalar = _njit(cache=True, nogil=True)(_pairwise_sum_scalar)


def _pass1_group_scalar(combined, combined_var, own_values, own_vars,
                        parents, children):
    """njit source of pass 1: per parent row, the reference's sequential
    child accumulation and inverse-variance combine."""
    rows, k = children.shape
    for r in range(rows):
        p = parents[r]
        child_sum = combined[children[r, 0]]
        child_var = combined_var[children[r, 0]]
        for j in range(1, k):
            child_sum = child_sum + combined[children[r, j]]
            child_var = child_var + combined_var[children[r, j]]
        v_own = own_values[p]
        s_own = own_vars[p]
        w_own = 1.0 / s_own if (np.isfinite(s_own) and s_own > 0) else 0.0
        w_child = 1.0 / child_var \
            if (np.isfinite(child_var) and child_var > 0) else 0.0
        total_weight = w_own + w_child
        if total_weight > 0:
            combined[p] = (w_own * v_own + w_child * child_sum) / total_weight
            combined_var[p] = 1.0 / total_weight
        else:
            combined[p] = (v_own + child_sum) / 2.0
            combined_var[p] = np.inf


def _pass2_group_scalar(final, combined, combined_var, parents, children):
    """njit source of pass 2: per parent row, residual distribution with the
    reference's pairwise row sums (gathered rows are contiguous, so
    :func:`_pairwise_sum_scalar` matches ``sum(axis=1)`` bitwise)."""
    rows, k = children.shape
    estimates = np.empty(k, dtype=np.float64)
    capped = np.empty(k, dtype=np.float64)
    for r in range(rows):
        p = parents[r]
        any_finite = False
        for j in range(k):
            child = children[r, j]
            estimates[j] = combined[child]
            variance = combined_var[child]
            if np.isfinite(variance):
                any_finite = True
                capped[j] = variance
            else:
                capped[j] = 0.0
        residual = final[p] - _pairwise_sum_scalar(estimates, k)
        total = _pairwise_sum_scalar(capped, k)
        if (not any_finite) or total <= 0:
            share = 1.0 / k
            for j in range(k):
                final[children[r, j]] = estimates[j] + residual * share
        else:
            for j in range(k):
                final[children[r, j]] = \
                    estimates[j] + residual * (capped[j] / total)


def _tree_two_pass_numba_driver(groups, own_values, own_vars,
                                block: int = TREE_BLOCK,
                                pass1=None, pass2=None):
    """Shared driver of the compiled backend: scalar per-group kernels, with
    the blocked numpy path as fallback for child counts beyond the pairwise
    replication bound (k > 128 never occurs for practical branchings)."""
    pass1 = pass1 or _pass1_group_scalar
    pass2 = pass2 or _pass2_group_scalar
    combined = own_values.copy()
    combined_var = own_vars.copy()
    for parents, children in reversed(groups):
        if children.shape[1] > 128:
            _pass1_group_numpy(combined, combined_var, own_values, own_vars,
                               parents, children, block)
        else:
            pass1(combined, combined_var, own_values, own_vars,
                  parents, children)
    final = combined.copy()
    for parents, children in groups:
        if children.shape[1] > 128:
            _pass2_group_numpy(final, combined, combined_var, parents,
                               children, block)
        else:
            pass2(final, combined, combined_var, parents, children)
    return final


register_kernel("tree_two_pass", "numpy", _tree_two_pass_numpy)


# -- batched_laplace ------------------------------------------------------------------

def _batched_laplace_numpy(rng: np.random.Generator,
                           scales: np.ndarray) -> np.ndarray:
    """Laplace noise at per-query ``scales`` in one generator call per
    constant-scale run.

    A plan's scales are constant within each tree level / bucket group, so a
    whole epsilon grid of queries usually collapses to a handful of runs;
    each run is drawn with a *scalar* scale (no per-element broadcast).  The
    generator consumes exactly one double per variate in either form, so the
    output is bitwise-identical to the single heterogeneous-scale vector
    draw — and to the historical per-query scalar draws (the stream-identity
    tests pin both).  Scale vectors that do not group (more runs than
    ``len / 4``) fall back to the one vector call.
    """
    scales = np.ascontiguousarray(scales, dtype=float)
    n = scales.shape[0]
    if n == 0:
        return np.zeros(0)
    starts = np.flatnonzero(np.diff(scales)) + 1
    if starts.size + 1 > max(1, n // 4):
        return rng.laplace(0.0, scales)
    bounds = np.concatenate(([0], starts, [n]))
    out = np.empty(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = rng.laplace(0.0, scales[lo], hi - lo)
    return out


register_kernel("batched_laplace", "numpy", _batched_laplace_numpy)


def batched_laplace(rng: np.random.Generator, scales: np.ndarray) -> np.ndarray:
    """Dispatch entry point for the shared noise stage."""
    return get_kernel("batched_laplace")(rng, scales)


# -- numba backend registration -------------------------------------------------------

if _NUMBA_AVAILABLE:  # pragma: no cover - exercised on the numba CI leg
    _l1_partition_core_numba = _njit(cache=True, nogil=True)(
        _l1_partition_core_scalar)
    _pass1_group_numba = _njit(cache=True, nogil=True)(_pass1_group_scalar)
    _pass2_group_numba = _njit(cache=True, nogil=True)(_pass2_group_scalar)

    def _tree_two_pass_numba(groups, own_values, own_vars,
                             block: int = TREE_BLOCK):
        return _tree_two_pass_numba_driver(
            groups, own_values, own_vars, block,
            pass1=_pass1_group_numba, pass2=_pass2_group_numba)

    register_kernel("l1_partition_core", "numba", _l1_partition_core_numba)
    register_kernel("tree_two_pass", "numba", _tree_two_pass_numba)
