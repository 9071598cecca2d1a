"""The merged least-squares path against verbatim copies of its previous
implementations.

The tree solve and the disjoint-region closed form now end in one scatter in
:mod:`repro.core.gls`, and the two-pass level plan is a lazy field of the
tree.  Every release must stay bitwise-identical to the code copied below:
the previous tree expansion (``_solve_tree``, three expansion branches), the
previous disjoint estimate of the plan pipeline (``_disjoint_estimate``), and
the previous level-plan builder (``_inference_plan``, minus its cache).  The
numba CI leg runs this file too, so the merged tree path is pinned on the
compiled ``tree_two_pass`` backend as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.tree import HierarchicalTree
from repro.core.gls import _solve_disjoint, solve_gls, tree_least_squares
from repro.core.kernels import get_kernel
from repro.core.measurement import MeasurementSet
from repro.core.plan import reconstruct
from repro.core.registry import make_algorithm
from repro.workload.builders import prefix_workload, random_range_workload
from repro.workload.linops import QueryMatrix, _expand_runs


def _inference_plan(tree: HierarchicalTree) -> list[tuple[np.ndarray, np.ndarray]]:
    """The previous ``repro.algorithms.inference._inference_plan``, verbatim
    except for the ``tree._ls_plan`` cache it kept on the tree."""
    plan = []
    offsets = tree.child_offsets()
    counts = np.diff(offsets)
    level_offsets = tree.level_spans()
    for lvl in range(tree.n_levels):
        s, e = int(level_offsets[lvl]), int(level_offsets[lvl + 1])
        level_counts = counts[s:e]
        internal = np.flatnonzero(level_counts) + s
        if internal.size == 0:
            continue
        internal_counts = level_counts[internal - s]
        for k in np.unique(internal_counts):
            k = int(k)
            parents = internal[internal_counts == k]
            children = offsets[parents][:, None] + np.arange(1, k + 1)
            plan.append((parents.astype(np.intp, copy=False),
                         children.astype(np.intp, copy=False)))
    return plan


def _reference_tree_least_squares(tree, measurements, variances):
    """The previous ``tree_least_squares``, verbatim but for its plan source."""
    n_nodes = tree.n_nodes
    measurements = np.asarray(measurements, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if measurements.shape != (n_nodes,) or variances.shape != (n_nodes,):
        raise ValueError("measurements/variances must have one entry per tree node")

    plan = _inference_plan(tree)

    own_values = measurements.copy()
    own_vars = variances.copy()
    unmeasured = ~np.isfinite(measurements)
    own_values[unmeasured] = 0.0
    own_vars[unmeasured] = np.inf

    solve = get_kernel("tree_two_pass")
    return solve(plan, own_values, own_vars)


def _reference_solve_tree(measurements: MeasurementSet) -> np.ndarray:
    """The previous ``repro.core.gls._solve_tree``, verbatim."""
    tree = measurements.tree
    consistent = _reference_tree_least_squares(tree, measurements.values,
                                               measurements.variances)
    indices = tree.leaf_indices().astype(np.intp, copy=False)
    sizes = tree.node_sizes()[indices].astype(np.intp, copy=False)
    los, his = tree.node_bounds()
    if len(tree.domain_shape) == 1:
        order = np.argsort(los[indices, 0], kind="stable")
        indices, sizes = indices[order], sizes[order]
        return np.repeat(consistent[indices] / sizes, sizes)
    estimate = np.zeros(tree.domain_shape)
    if np.all(sizes == 1):
        estimate[los[indices, 0], los[indices, 1]] = consistent[indices] / sizes
        return estimate
    values = consistent[indices] / sizes
    heights = (his[indices, 0] - los[indices, 0] + 1).astype(np.intp)
    widths = (his[indices, 1] - los[indices, 1] + 1).astype(np.intp)
    leaf_of_row = np.repeat(np.arange(indices.size), heights)
    rows = _expand_runs(los[indices, 0], heights)
    row_starts = rows * tree.domain_shape[1] + los[indices, 1][leaf_of_row]
    cells = _expand_runs(row_starts, widths[leaf_of_row])
    estimate.ravel()[cells] = np.repeat(values[leaf_of_row], widths[leaf_of_row])
    return estimate


def _reference_disjoint_estimate(measured: MeasurementSet) -> np.ndarray:
    """The previous ``repro.core.plan._disjoint_estimate``, verbatim."""
    queries = measured.queries
    per_cell = measured.values / queries.query_sizes()
    estimate = np.zeros(queries.domain_shape)
    if queries.ndim == 1:
        lengths = queries.his[:, 0] - queries.los[:, 0] + 1
        cells = _expand_runs(queries.los[:, 0], lengths)
        estimate[cells] = np.repeat(per_cell, lengths)
        return estimate
    _, cols = queries.domain_shape
    heights = queries.his[:, 0] - queries.los[:, 0] + 1
    widths = queries.his[:, 1] - queries.los[:, 1] + 1
    run_rows = _expand_runs(queries.los[:, 0], heights)
    run_query = np.repeat(np.arange(queries.n_queries), heights)
    starts = run_rows * cols + queries.los[run_query, 1]
    cells = _expand_runs(starts, widths[run_query])
    estimate.reshape(-1)[cells] = np.repeat(per_cell, heights * widths)
    return estimate


def _reference_reconstruct(plan, measurements) -> np.ndarray:
    """The previous ``repro.core.plan.reconstruct`` at ``method="auto"``,
    with its solves routed to the references above (LSMR is unchanged)."""
    if plan.tree is not None:
        estimate = _reference_solve_tree(measurements)
    else:
        measured = measurements.measured()
        if len(measured) and measured.queries.cell_counts().max() <= 1:
            estimate = _reference_disjoint_estimate(measured)
        else:
            estimate = solve_gls(measurements, method="lsmr")
    estimate = np.asarray(estimate, dtype=float)

    if plan.partition is not None:
        widths = np.diff(plan.partition)
        estimate = np.repeat(estimate.reshape(-1) / widths, widths)
    if plan.ordering is not None:
        flat = np.empty(plan.ordering.size)
        flat[plan.ordering] = estimate.reshape(-1)
        estimate = flat
    return estimate.reshape(plan.domain_shape)


def _tree_measurements(tree: HierarchicalTree, rng, unmeasured: float) -> MeasurementSet:
    """Per-node values with per-level variances; a share of the nodes is
    left unmeasured (``nan`` value, infinite variance)."""
    values = rng.uniform(-50.0, 150.0, tree.n_nodes)
    variances = (1.0 + tree.node_levels()) * rng.uniform(0.5, 2.0, tree.n_levels)[
        tree.node_levels()]
    drop = rng.random(tree.n_nodes) < unmeasured
    values[drop] = np.nan
    variances[drop] = np.inf
    return MeasurementSet.from_tree(tree, values, variances)


TREE_CASES = [
    # 1-D, cell leaves: n = 1, primes, powers of the branching, wide fan-out
    ((1,), 2, None, None), ((2,), 2, None, None), ((13,), 2, None, None),
    ((97,), 3, None, None), ((256,), 4, None, None), ((1000,), 16, None, None),
    # 1-D, aggregated leaves
    ((97,), 2, 3, None), ((1000,), 4, 2, None), ((7,), 2, 0, None),
    # 2-D, cell leaves: 1 x 1, 1 x k, k x 1, primes, squares
    ((1, 1), 2, None, None), ((1, 13), 2, None, None), ((13, 1), 3, None, None),
    ((7, 11), 2, None, None), ((16, 16), 4, None, None), ((31, 17), 2, None, None),
    # 2-D, aggregated leaves
    ((31, 17), 2, 2, None), ((64, 64), 2, 3, None), ((1, 37), 2, 2, None),
    ((37, 1), 2, 2, None), ((9, 9), 2, 0, None),
    # kd-style axis schedules
    ((7, 11), 2, None, (0, 1)), ((16, 9), 2, None, (1, 0)),
    ((31, 17), 2, 3, (0, 1)), ((1, 13), 2, None, (0, 1)),
]


@pytest.mark.parametrize("shape,branching,max_height,split_axes", TREE_CASES, ids=repr)
@pytest.mark.parametrize("unmeasured", [0.0, 0.3])
def test_tree_solve_matches_previous_expansion(shape, branching, max_height, split_axes,
                                               unmeasured, rng):
    tree = HierarchicalTree(shape, branching=branching, max_height=max_height,
                            split_axes=split_axes)
    measurements = _tree_measurements(tree, rng, unmeasured)
    expected = _reference_solve_tree(measurements)
    got = solve_gls(measurements)
    assert got.shape == expected.shape == tree.domain_shape
    assert got.tobytes() == expected.tobytes()
    assert solve_gls(measurements, method="tree").tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape,branching,max_height,split_axes", TREE_CASES, ids=repr)
def test_two_pass_groups_match_previous_plan(shape, branching, max_height, split_axes):
    tree = HierarchicalTree(shape, branching=branching, max_height=max_height,
                            split_axes=split_axes)
    groups = tree.two_pass_groups()
    expected = _inference_plan(tree)
    assert len(groups) == len(expected)
    for (parents, children), (ref_parents, ref_children) in zip(groups, expected):
        assert parents.dtype == ref_parents.dtype and children.dtype == ref_children.dtype
        assert np.array_equal(parents, ref_parents)
        assert np.array_equal(children, ref_children)
    assert tree.two_pass_groups() is groups                  # built once, then cached
    assert not hasattr(tree, "_ls_plan")


def test_tree_least_squares_matches_previous(rng):
    tree = HierarchicalTree((243,), branching=3)
    measurements = _tree_measurements(tree, rng, 0.2)
    expected = _reference_tree_least_squares(tree, measurements.values,
                                             measurements.variances)
    got = tree_least_squares(tree, measurements.values, measurements.variances)
    assert got.tobytes() == expected.tobytes()


def _disjoint_set(rng, shape, keep: float) -> MeasurementSet:
    """Random grid-partition blocks (1-D: contiguous runs), some dropped so
    uncovered cells stay at the min-norm zero."""
    edges = [np.concatenate([[0], np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 4),
                                                      replace=False)), [n]])
             for n in shape]
    if len(shape) == 1:
        los = edges[0][:-1, None]
        his = edges[0][1:, None] - 1
    else:
        r0, c0 = np.meshgrid(edges[0][:-1], edges[1][:-1], indexing="ij")
        r1, c1 = np.meshgrid(edges[0][1:] - 1, edges[1][1:] - 1, indexing="ij")
        los = np.stack([r0.ravel(), c0.ravel()], axis=1)
        his = np.stack([r1.ravel(), c1.ravel()], axis=1)
    mask = rng.random(los.shape[0]) < keep
    mask[0] = True
    queries = QueryMatrix(los[mask], his[mask], shape)
    return MeasurementSet(queries, rng.uniform(-100.0, 300.0, queries.n_queries),
                          rng.uniform(0.5, 4.0, queries.n_queries))


@pytest.mark.parametrize("shape", [(12,), (97,), (9, 14), (1, 23), (23, 1)], ids=repr)
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_auto_on_untagged_disjoint_set_is_the_scatter(shape, keep, rng):
    measurements = _disjoint_set(rng, shape, keep)
    expected = _reference_disjoint_estimate(measurements)
    got = solve_gls(measurements)
    assert got.tobytes() == expected.tobytes()
    assert _solve_disjoint(measurements).tobytes() == expected.tobytes()
    lsmr = solve_gls(measurements, method="lsmr")
    assert np.max(np.abs(got - lsmr)) <= 1e-8 * max(1.0, np.abs(lsmr).max())


def test_single_cell_sets_scatter_directly(rng):
    for shape in [(1,), (17,), (1, 1), (5, 7)]:
        cells = np.stack(np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"),
                         axis=-1).reshape(-1, len(shape))
        order = rng.permutation(len(cells))[: max(1, len(cells) - 2)]
        queries = QueryMatrix(cells[order], cells[order], shape)
        measurements = MeasurementSet(queries, rng.uniform(-9.0, 9.0, len(order)),
                                      np.ones(len(order)))
        expected = _reference_disjoint_estimate(measurements)
        assert solve_gls(measurements).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def counts():
    generator = np.random.Generator(np.random.PCG64(2016))
    weights = generator.gamma(0.3, 1.0, 1024) + 1e-3
    return {
        1: generator.multinomial(20_000, weights / weights.sum()).astype(float)[:256],
        2: generator.multinomial(20_000, weights / weights.sum()).astype(float).reshape(32, 32),
    }


@pytest.mark.parametrize("name,ndim", [
    ("Identity", 1), ("Identity", 2), ("PHP", 1), ("AHP", 1), ("AHP", 2), ("UGrid", 2),
    ("H", 1), ("Hb", 1), ("Hb", 2), ("GreedyH", 1), ("GreedyH", 2), ("DAWA", 1),
    ("DAWA", 2), ("QuadTree", 2),
], ids=repr)
@pytest.mark.parametrize("epsilon", [0.05, 1.0])
def test_plan_reconstruction_matches_previous(name, ndim, epsilon, counts):
    data = counts[ndim]
    workload = prefix_workload(data.size) if ndim == 1 else \
        random_range_workload(data.shape, 64, rng=5)
    algorithm = make_algorithm(name)
    plan, measurements = algorithm.plan_and_measure(data, epsilon, 11, workload)
    expected = _reference_reconstruct(plan, measurements)
    assert reconstruct(plan, measurements).tobytes() == expected.tobytes()
    assert algorithm.run(data, epsilon, workload, 11).tobytes() == expected.tobytes()
