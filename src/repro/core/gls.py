"""Generic sparse weighted least-squares inference over measurement sets.

Consistency post-processing is the single biggest accuracy lever identified by
the paper (Section 5, Finding 9): mutually redundant noisy measurements are
reconciled by (weighted) least squares.  This module is the one home of that
solve, for *any* :class:`~repro.core.measurement.MeasurementSet` — the
measurements do not need to form a tree:

* ``tree`` — when the measurement set is tagged with a
  :class:`~repro.algorithms.tree.HierarchicalTree`, the classic two-pass
  algorithm (:func:`tree_least_squares`) computes the exact GLS solution in
  O(nodes); this is the fast path used by H, Hb, GreedyH, QuadTree and DAWA's
  stage two (a tree over its private buckets).
* ``normal`` — sparse normal equations ``(WᵀΛW) x = WᵀΛy`` with
  ``Λ = diag(1/σ²)``, factorised by SuperLU.  Fast and exact for
  well-conditioned full-column-rank measurement sets (e.g. anything that
  measures every cell, like DPCube), but the normal equations square the
  condition number, so it is opt-in rather than the default.
* ``lsmr`` — matrix-free LSMR on the variance-whitened implicit operator
  (prefix-sum matvec / difference-array rmatvec, nothing materialised).
  Converges to the *minimum-norm* least-squares solution, which for
  rank-deficient tree systems (aggregated leaves) coincides with the uniform
  within-leaf expansion the tree fast path uses.

``method="auto"`` picks the tree fast path when available, then the exact
closed form for mutually disjoint measured queries (each answer spread
uniformly over its own cells, uncovered cells at the min-norm zero — Identity,
PHP and AHP buckets, UGrid blocks), and LSMR otherwise.  The tree path ends
in the same disjoint-region scatter, applied to the tree's leaves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..workload.linops import _region_cells
from .kernels import get_kernel
from .measurement import MeasurementSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.tree import HierarchicalTree

__all__ = ["inverse_variance_combine", "solve_gls", "tree_least_squares"]


def inverse_variance_combine(values: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Combine independent unbiased estimates by inverse-variance weighting.

    Returns the combined estimate and its variance.  Infinite variances denote
    "no measurement" and are handled gracefully.
    """
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    weights = np.where(np.isfinite(variances) & (variances > 0), 1.0 / variances, 0.0)
    total_weight = weights.sum()
    if total_weight == 0:
        return float(values.mean()), float("inf")
    estimate = float((weights * values).sum() / total_weight)
    return estimate, float(1.0 / total_weight)


def tree_least_squares(
    tree: "HierarchicalTree",
    measurements: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """Least-squares consistent estimates of every node total of ``tree``.

    Parameters
    ----------
    tree:
        The hierarchy the measurements refer to.
    measurements:
        Noisy node totals, one per tree node (node-index order).  ``nan`` or an
        infinite variance marks an unmeasured node.
    variances:
        Per-node measurement variances (same order).

    Returns
    -------
    Consistent node estimates, one per node, such that every internal node
    equals the sum of its children.

    Notes
    -----
    Pass 1 (bottom-up) combines each node's own measurement with the sum of
    its children's combined estimates by inverse-variance weighting.  Pass 2
    (top-down) distributes the residual between a parent's final value and the
    sum of its children's pass-1 values across the children proportionally to
    their pass-1 variances.  For trees this reproduces the exact generalized
    least-squares solution.

    Both passes stream the tree's level plan
    (:meth:`~repro.algorithms.tree.HierarchicalTree.two_pass_groups`) in
    fixed-size row blocks (:data:`repro.core.kernels.TREE_BLOCK`) via the
    dispatched ``tree_two_pass`` kernel, so no per-level dense intermediate
    outgrows the block even at 2**20 leaves.  The float-operation order of
    the historical node-at-a-time implementation is preserved exactly —
    pass-1 child sums accumulate column-by-column (Python ``sum`` was
    sequential) while pass-2 reductions use numpy's pairwise ``sum`` over
    length-``k`` rows (which the compiled backend replicates
    element-for-element) — and chunking rows changes no per-row operation, so
    results are bitwise identical.
    """
    n_nodes = tree.n_nodes
    measurements = np.asarray(measurements, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if measurements.shape != (n_nodes,) or variances.shape != (n_nodes,):
        raise ValueError("measurements/variances must have one entry per tree node")

    own_values = measurements.copy()
    own_vars = variances.copy()
    unmeasured = ~np.isfinite(measurements)
    own_values[unmeasured] = 0.0
    own_vars[unmeasured] = np.inf
    solve = get_kernel("tree_two_pass")
    return solve(tree.two_pass_groups(), own_values, own_vars)


def _spread(values: np.ndarray, sizes: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
            domain_shape: tuple[int, ...], rows=slice(None)) -> np.ndarray:
    """Exact GLS estimate of mutually disjoint regions: each region's value
    divided evenly among its cells; cells no region covers stay at the
    min-norm zero.

    ``values``, ``sizes`` (cell counts) and ``bounds`` (inclusive ``(los,
    his)``) describe a superset of regions from which ``rows`` selects the
    disjoint ones — a tree's leaves among its nodes — so each path gathers
    only the columns it reads.  The per-region division is elementwise and
    disjointness makes the write order irrelevant, so every cell receives the
    very float the historical per-region slice assignments wrote.
    """
    sizes = sizes[rows]
    per_cell = values[rows] / sizes
    estimate = np.zeros(domain_shape)
    los, his = bounds
    if np.all(sizes == 1):
        # Single-cell regions (cell-leaf trees, Identity, AHP clusters, PHP
        # buckets): one direct scatter, no run expansion.
        estimate[tuple(los[rows, d] for d in range(len(domain_shape)))] = per_cell
        return estimate
    cells = _region_cells(los[rows], his[rows], domain_shape)
    estimate.reshape(-1)[cells] = np.repeat(per_cell, sizes)
    return estimate


def _solve_tree(measurements: MeasurementSet) -> np.ndarray:
    """Exact two-pass GLS on a tree-tagged measurement set, spread over the
    leaves (uniform within aggregated leaves)."""
    tree = measurements.tree
    consistent = tree_least_squares(tree, measurements.values, measurements.variances)
    return _spread(consistent, tree.node_sizes(), tree.node_bounds(),
                   tree.domain_shape, rows=tree.leaf_indices())


def _solve_disjoint(measured: MeasurementSet) -> np.ndarray:
    """Exact GLS for mutually disjoint measured queries."""
    queries = measured.queries
    return _spread(measured.values, queries.query_sizes(),
                   (queries.los, queries.his), queries.domain_shape)


def _whitened(measured: MeasurementSet):
    """Measured rows, whitened: returns (queries, scaled values, row scales)."""
    scales = 1.0 / np.sqrt(measured.variances)
    return measured.queries, measured.values * scales, scales


def _solve_lsmr(measured: MeasurementSet, atol: float, maxiter: int | None) -> np.ndarray:
    from scipy.sparse.linalg import LinearOperator, lsmr

    queries, b, scales = _whitened(measured)
    operator = LinearOperator(
        shape=queries.shape,
        matvec=lambda x: queries.matvec(x) * scales,
        rmatvec=lambda y: queries.rmatvec(np.asarray(y).ravel() * scales).ravel(),
    )
    if maxiter is None:
        maxiter = max(200, 10 * queries.domain_size)
    solution = lsmr(operator, b, atol=atol, btol=atol, conlim=0.0, maxiter=maxiter)[0]
    return solution.reshape(measured.domain_shape)


def _solve_normal(measured: MeasurementSet) -> np.ndarray:
    import warnings

    from scipy import sparse
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    queries, b, scales = _whitened(measured)
    design = sparse.diags(scales) @ queries.to_sparse()
    normal = (design.T @ design).tocsc()
    rhs = design.T @ b
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            solution = spsolve(normal, rhs)
    except MatrixRankWarning as exc:
        raise np.linalg.LinAlgError("singular normal equations") from exc
    if not np.all(np.isfinite(solution)):
        raise np.linalg.LinAlgError("singular normal equations")
    return np.asarray(solution).reshape(measured.domain_shape)


def solve_gls(
    measurements: MeasurementSet,
    method: str = "auto",
    atol: float = 1e-12,
    maxiter: int | None = None,
) -> np.ndarray:
    """Weighted least-squares cell estimates from a measurement set.

    Minimises ``sum_i (W_i x - y_i)^2 / sigma_i^2`` over the measured queries
    and returns the estimate shaped like the domain.  See the module docstring
    for the available ``method`` values; ``"auto"`` dispatches to the cheapest
    exact solver that applies (tree, then disjoint, then LSMR).
    """
    if method not in ("auto", "tree", "normal", "lsmr"):
        raise ValueError(f"unknown GLS method {method!r}")
    if method == "tree" or (method == "auto" and measurements.tree is not None):
        if measurements.tree is None:
            raise ValueError("method='tree' requires a tree-tagged measurement set")
        return _solve_tree(measurements)
    measured = measurements.measured()
    if len(measured) == 0:
        raise ValueError("measurement set contains no measured query")
    if method == "normal":
        return _solve_normal(measured)
    if method == "auto" and measured.queries.cell_counts().max() <= 1:
        return _solve_disjoint(measured)
    return _solve_lsmr(measured, atol, maxiter)
