"""Tests for native 2-D workload-aware selection.

Covers the kd/marginal split schedules of :class:`HierarchicalTree`, the
per-level tables and their vectorised rank-query usage counts, 1-D and 2-D
(pinned exactly against the per-query recursion), the greedy 2-D strategy
search, the exact dense-GLS cross-checks of the scoring model, and GreedyW's
native 2-D entry point (the Hilbert-flattened path remains its fallback and
GreedyH/DAWA's prescription).
"""

import itertools
import zlib

import numpy as np
import pytest

import repro
from repro.algorithms.greedy_h import greedy_budget_allocation
from repro.algorithms.hilbert import flatten_workload, hilbert_ordering_for
from repro.algorithms.tree import HierarchicalTree, IrregularTreeLevels
from repro.workload.builders import random_range_workload
from repro.workload.rangequery import RangeQuery, Workload
from repro.workload.selection import (
    candidate_trees,
    greedy_tree_strategy,
    predicted_workload_variance,
    subset_level_usage,
    subset_usage_reference,
)


class TestSplitSchedules:
    """kd-style trees: one axis split per level, alternating."""

    @pytest.mark.parametrize("shape", [(8, 8), (13, 7), (3, 8), (16, 4)])
    @pytest.mark.parametrize("axes", [(0, 1), (1, 0)])
    def test_leaves_partition_domain_into_cells(self, shape, axes):
        tree = HierarchicalTree(shape, branching=2, split_axes=axes)
        covered = np.zeros(shape, dtype=int)
        for leaf in tree.leaves():
            covered[leaf.slices()] += 1
        assert np.all(covered == 1)
        assert all(leaf.size == 1 for leaf in tree.leaves())

    def test_schedule_respected_on_square_domain(self):
        tree = HierarchicalTree((8, 8), branching=2, split_axes=(0, 1))
        root = tree.nodes[0]
        assert len(root.children) == 2          # one axis split, not four
        for child_idx in root.children:
            child = tree.nodes[child_idx]
            assert child.hi[1] - child.lo[1] == 7     # axis 1 untouched
            assert child.hi[0] - child.lo[0] == 3     # axis 0 halved

    def test_exhausted_axis_falls_back(self):
        """Once the scheduled axis is down to single cells the other axis is
        split instead, so the tree still bottoms out at cells."""
        tree = HierarchicalTree((2, 16), branching=2, split_axes=(0, 1))
        assert all(leaf.size == 1 for leaf in tree.leaves())

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match="split_axes"):
            HierarchicalTree((8, 8), split_axes=(2,))
        with pytest.raises(ValueError, match="split_axes"):
            HierarchicalTree((8,), split_axes=(1,))

    def test_default_behaviour_unchanged(self):
        """No schedule: every axis splits per level, exactly the historical
        quadtree construction."""
        default = HierarchicalTree((8, 8), branching=2)
        explicit = HierarchicalTree((8, 8), branching=2, split_axes=None)
        assert [(n.lo, n.hi, n.level) for n in default.nodes] == \
            [(n.lo, n.hi, n.level) for n in explicit.nodes]
        assert len(default.nodes[0].children) == 4


def _random_measured(tree, rng):
    leaf_levels = {node.level for node in tree.leaves()}
    measured = np.ones(tree.n_levels, dtype=bool)
    for level in range(tree.n_levels):
        if level not in leaf_levels and rng.random() < 0.4:
            measured[level] = False
    return measured


class TestSubsetUsage2D:
    """The vectorised rank-query usage counts, 1-D and 2-D, against the exact
    recursion."""

    TREES = [
        dict(branching=2),
        dict(branching=4),
        dict(branching=3),
        dict(branching=2, split_axes=(0, 1)),
        dict(branching=2, split_axes=(1, 0)),
        dict(branching=2, max_height=3),            # aggregated leaves
    ]
    TREES_1D = (
        *(dict(branching=b) for b in (2, 3, 4, 16)),
        *(dict(branching=b, max_height=h)           # aggregated leaves
          for b, h in itertools.product((2, 3, 16), (0, 2, 3))),
    )
    CASES = (
        *itertools.product([(16, 16), (13, 7), (9, 9), (1, 9), (9, 1)], TREES),
        *itertools.product([(1,), (2,), (7,), (13,), (97,), (1000,), (1024,)],
                           TREES_1D),
    )

    @pytest.mark.parametrize("shape,kwargs", CASES)
    def test_matches_recursion_exactly(self, shape, kwargs):
        rng = np.random.default_rng(zlib.crc32(repr((shape, kwargs)).encode()))
        tree = HierarchicalTree(shape, **kwargs)
        workload = random_range_workload(shape, 40, rng=rng)
        all_measured = np.ones(tree.n_levels, dtype=bool)
        assert tree.level_usage(workload).tobytes() == \
            subset_usage_reference(tree, workload, all_measured).tobytes()
        for _ in range(4):
            measured = _random_measured(tree, rng)
            fast = subset_level_usage(tree, workload, measured)
            reference = subset_usage_reference(tree, workload, measured)
            assert fast.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kwargs", TREES)
    def test_full_level_usage_matches_recursion(self, kwargs):
        """`level_usage` now rides the same 2-D grid tables."""
        tree = HierarchicalTree((16, 16), **kwargs)
        workload = random_range_workload((16, 16), 60, rng=7)
        all_measured = np.ones(tree.n_levels, dtype=bool)
        np.testing.assert_array_equal(
            tree.level_usage(workload),
            subset_usage_reference(tree, workload, all_measured))

    def test_irregular_levels_fall_back_to_recursion(self):
        """Ragged kd trees can break the grid-product level structure; the
        tables refuse and the subset usage falls back to the recursion."""
        tree = HierarchicalTree((3, 8), branching=2, split_axes=(0, 1))
        with pytest.raises(IrregularTreeLevels):
            tree._level_tables()
        workload = random_range_workload((3, 8), 30, rng=1)
        measured = np.ones(tree.n_levels, dtype=bool)
        np.testing.assert_array_equal(
            subset_level_usage(tree, workload, measured),
            subset_usage_reference(tree, workload, measured))

    def test_irregular_level_usage_matches_recursion(self):
        tree = HierarchicalTree((3, 8), branching=2, split_axes=(0, 1))
        workload = random_range_workload((3, 8), 30, rng=2)
        np.testing.assert_array_equal(
            tree.level_usage(workload),
            subset_usage_reference(tree, workload,
                                   np.ones(tree.n_levels, dtype=bool)))

    @pytest.mark.parametrize("tree_kwargs,workload", [
        (dict(domain_shape=(64,)), random_range_workload((8, 8), 10, rng=0)),
        (dict(domain_shape=(64,)), repro.prefix_workload(128)),
        (dict(domain_shape=(8, 8)), repro.prefix_workload(64)),
        (dict(domain_shape=(8, 8)), random_range_workload((8, 9), 10, rng=0)),
        (dict(domain_shape=(3, 8), split_axes=(0, 1)),      # irregular levels
         random_range_workload((8, 3), 10, rng=0)),
    ], ids=["2d-on-1d", "prefix128-on-64", "1d-on-2d", "8x9-on-8x8",
            "irregular-transposed"])
    def test_workload_over_another_domain_rejected(self, tree_kwargs, workload):
        """A workload over another domain used to be counted silently (a 2-D
        workload on a 1-D tree read only its first column, out-of-domain
        prefixes inflated the root) or to fail with an ``IndexError``."""
        tree = HierarchicalTree(**tree_kwargs)
        with pytest.raises(ValueError, match="domain"):
            tree.level_usage(workload)
        with pytest.raises(ValueError, match="domain"):
            subset_level_usage(tree, workload,
                               np.ones(tree.n_levels, dtype=bool))

    def test_leaf_level_must_stay_measured(self):
        tree = HierarchicalTree((8, 8), branching=2)
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[-1] = False
        with pytest.raises(ValueError, match="leaf level"):
            subset_level_usage(tree, random_range_workload((8, 8), 5, rng=0),
                               measured)

    def test_dropped_level_reroutes_to_children(self):
        tree = HierarchicalTree((8, 8), branching=2)
        # the whole top-left quadrant: answered by one level-1 node
        workload = Workload([RangeQuery((0, 0), (3, 3))], (8, 8), name="q")
        full = subset_level_usage(tree, workload,
                                  np.ones(tree.n_levels, dtype=bool))
        assert full[1] == 1
        measured = np.ones(tree.n_levels, dtype=bool)
        measured[1] = False
        dropped = subset_level_usage(tree, workload, measured)
        assert dropped[1] == 0
        assert dropped[2] == 4                  # its four level-2 children


class TestGreedyStrategy2D:
    def test_candidate_set_includes_kd_trees(self):
        trees = candidate_trees((16, 16), (2, 4))
        schedules = [t.split_axes for t in trees]
        assert schedules.count(None) == 2
        assert (0, 1) in schedules and (1, 0) in schedules

    def test_never_worse_than_full_quadtree(self):
        workload = random_range_workload((16, 16), 100, rng=2)
        strategy = greedy_tree_strategy((16, 16), workload, branchings=(2,))
        quadtree = HierarchicalTree((16, 16), branching=2)
        full_score = predicted_workload_variance(quadtree.level_usage(workload))
        assert strategy.score <= full_score

    def test_deterministic(self):
        workload = random_range_workload((16, 16), 80, rng=4)
        a = greedy_tree_strategy((16, 16), workload)
        b = greedy_tree_strategy((16, 16), workload)
        assert a.tree.branching == b.tree.branching
        assert a.tree.split_axes == b.tree.split_axes
        np.testing.assert_array_equal(a.measured, b.measured)
        assert a.score == b.score

    def test_1d_signature_still_accepts_plain_size(self):
        workload = repro.prefix_workload(64)
        by_int = greedy_tree_strategy(64, workload, branchings=(2, 4))
        by_shape = greedy_tree_strategy((64,), workload, branchings=(2, 4))
        assert by_int.score == by_shape.score

    def test_model_variance_matches_dense_decomposition(self):
        """The scoring model `sum_l usage_l * 2 / eps_l**2` equals the
        canonical-decomposition estimator variance accumulated node by node
        through an independent dense walk, to 1e-8."""
        rng = np.random.default_rng(11)
        workload = random_range_workload((12, 12), 50, rng=rng)
        for kwargs in [dict(branching=2), dict(branching=2, split_axes=(0, 1))]:
            tree = HierarchicalTree((12, 12), **kwargs)
            measured = _random_measured(tree, rng)
            eps_levels = greedy_budget_allocation(
                subset_level_usage(tree, workload, measured), 1.0)
            eps_levels[~measured] = 0.0
            # model: per-level usage times per-level Laplace variance
            usage = subset_level_usage(tree, workload, measured)
            level_variance = np.zeros(tree.n_levels)
            level_variance[eps_levels > 0] = 2.0 / eps_levels[eps_levels > 0] ** 2
            model = float(np.sum(usage * level_variance))
            # dense walk: decompose every query over the measured levels and
            # accumulate each used node's variance
            dense = 0.0
            for query in workload:
                stack = [0]
                while stack:
                    node = tree.nodes[stack.pop()]
                    if any(nhi < qlo or nlo > qhi
                           for nlo, nhi, qlo, qhi in zip(node.lo, node.hi,
                                                         query.lo, query.hi)):
                        continue
                    inside = all(qlo <= nlo and nhi <= qhi
                                 for nlo, nhi, qlo, qhi in zip(
                                     node.lo, node.hi, query.lo, query.hi))
                    if measured[node.level] and (inside or node.is_leaf):
                        dense += 2.0 / eps_levels[node.level] ** 2
                    else:
                        stack.extend(node.children)
            assert abs(model - dense) <= 1e-8 * max(1.0, abs(dense))

    def test_native_selection_beats_hilbert_span_in_exact_gls_variance(self):
        """On a small 2-D domain the exact dense GLS workload variance of the
        natively selected strategy is lower than both the Hilbert-span-
        selected strategy's (the retired GreedyW 2-D path) and the full
        quadtree with GreedyH-style allocation — the model's ranking is
        real, not an artefact of the proxy."""
        n = 16
        workload = random_range_workload((n, n), 150, rng=3)
        w_dense = workload.operator.to_dense()

        def exact_variance(design, eps_rows):
            mask = eps_rows > 0
            weighted = design[mask] * (eps_rows[mask] ** 2 / 2.0)[:, None]
            covariance = np.linalg.pinv(design[mask].T @ weighted)
            return float(np.einsum("qi,ij,qj->", w_dense, covariance, w_dense))

        strategy = greedy_tree_strategy((n, n), workload)
        eps = greedy_budget_allocation(strategy.usage, 1.0)
        levels = np.array([node.level for node in strategy.tree.nodes])
        native = exact_variance(strategy.tree.as_query_matrix().to_dense(),
                                eps[levels])

        ordering = hilbert_ordering_for((n, n))
        flat = flatten_workload(workload, ordering, (n, n))
        flat_strategy = greedy_tree_strategy(n * n, flat)
        flat_eps = greedy_budget_allocation(flat_strategy.usage, 1.0)
        flat_levels = np.array([node.level
                                for node in flat_strategy.tree.nodes])
        rows = np.zeros((len(flat_strategy.tree.nodes), n * n))
        for k, node in enumerate(flat_strategy.tree.nodes):
            rows[k, ordering[node.lo[0]: node.hi[0] + 1]] = 1.0
        hilbert = exact_variance(rows, flat_eps[flat_levels])

        quadtree = HierarchicalTree((n, n), branching=2)
        quad_eps = greedy_budget_allocation(quadtree.level_usage(workload), 1.0)
        quad_levels = np.array([node.level for node in quadtree.nodes])
        full = exact_variance(quadtree.as_query_matrix().to_dense(),
                              quad_eps[quad_levels])

        assert native < hilbert
        assert native < full


class TestGreedyWNative2D:
    @pytest.fixture(scope="class")
    def data_2d(self):
        rng = np.random.default_rng(8)
        x = rng.multinomial(20_000, rng.dirichlet(np.ones(256))) \
            .astype(float).reshape(16, 16)
        return x, random_range_workload((16, 16), 120, rng=rng)

    def test_native_plan_is_tree_tagged_2d(self, data_2d):
        x, workload = data_2d
        algorithm = repro.make_algorithm("GreedyW")
        plan, mset = algorithm.plan_and_measure(x, 0.5, rng=1,
                                                workload=workload)
        assert plan.tree is not None
        assert plan.tree.domain_shape == (16, 16)
        assert plan.ordering is None            # no Hilbert flattening
        assert mset.epsilon_spent == pytest.approx(0.5)
        estimate = algorithm.infer(mset, plan)
        assert estimate.shape == x.shape and np.isfinite(estimate).all()

    def test_native_switch_off_restores_hilbert_path(self, data_2d):
        x, workload = data_2d
        plan, _ = repro.make_algorithm("GreedyW", native_2d=False) \
            .plan_and_measure(x, 0.5, rng=1, workload=workload)
        assert plan.tree.domain_shape == (256,)
        assert plan.ordering is not None

    def test_missing_or_mismatched_workload_falls_back(self, data_2d):
        x, _ = data_2d
        algorithm = repro.make_algorithm("GreedyW")
        for workload in (None, random_range_workload((8, 8), 20, rng=0),
                         repro.prefix_workload(64)):
            plan, _ = algorithm.plan_and_measure(x, 0.5, rng=2,
                                                 workload=workload)
            assert plan.tree.domain_shape == (256,)   # flattened fallback
            estimate = algorithm.run(x, 0.5, workload=workload, rng=2)
            assert estimate.shape == x.shape and np.isfinite(estimate).all()

    def test_native_beats_hilbert_variant_on_benchmark_workload(self):
        """A miniature of the CI-gated bench: on a 32x32 random-range
        workload at fixed epsilon, the native selection achieves lower mean
        scaled error than the span-based variant it replaces."""
        n = 32
        workload = random_range_workload((n, n), 400, rng=20160626)
        rng = np.random.default_rng(9)
        x = rng.multinomial(200_000, rng.dirichlet(np.ones(n * n))) \
            .astype(float).reshape(n, n)
        truth = workload.evaluate(x)

        def mean_error(algorithm):
            errors = []
            for trial in range(6):
                estimate = algorithm.run(x, 0.1, workload=workload,
                                         rng=300 + trial)
                errors.append(repro.scaled_average_per_query_error(
                    truth, workload.evaluate(estimate), 200_000))
            return float(np.mean(errors))

        native = mean_error(repro.make_algorithm("GreedyW"))
        spans = mean_error(repro.make_algorithm("GreedyW", native_2d=False))
        assert native < spans
