"""Hierarchical data-independent algorithms H and Hb.

H (Hay et al., PVLDB 2010) measures noisy totals of every node of a binary
(or b-ary) tree over the domain with a uniform per-level budget and then
enforces consistency via least squares.  Hb (Qardaji et al., PVLDB 2013) is
the same algorithm with the branching factor chosen to minimise the average
range-query variance for the given domain size.

Both are thin instances of the plan pipeline: their selection stage is
:func:`tree_plan` (measure every node of a hierarchy, per-level budget
shares), the noise stage is the shared :func:`~repro.core.plan.measure_plan`,
and reconstruction is the generic GLS solve (exact two-pass tree fast path).
"""

from __future__ import annotations

import numpy as np

from ..core.gls import solve_gls
from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan, measure_plan
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm, check_int_param
from .mechanisms import PrivacyBudget
from .tree import HierarchicalTree, optimal_branching

__all__ = ["HierarchicalH", "HierarchicalHb", "tree_plan", "measure_tree",
           "run_hierarchical"]


def tree_plan(
    tree: HierarchicalTree,
    level_epsilons: np.ndarray,
    domain_shape: tuple[int, ...] | None = None,
    ordering: np.ndarray | None = None,
    partition: np.ndarray | None = None,
) -> MeasurementPlan:
    """The selection plan of every tree-measuring strategy.

    One query per tree node (node-index order) with its level's budget share;
    a level with a non-positive share is left unmeasured and reconstructed
    through consistency.  The levels partition the domain, so the exact
    measurement cost is ``sum(level_epsilons)`` by parallel-within-level /
    sequential-across-level composition, passed as ``epsilon_measure``.
    """
    level_epsilons = np.asarray(level_epsilons, dtype=float)
    if level_epsilons.size != tree.n_levels:
        raise ValueError("need one epsilon per tree level")
    levels = tree.node_levels()
    return MeasurementPlan(
        queries=tree.as_query_matrix(),
        epsilons=level_epsilons[levels],
        domain_shape=tuple(domain_shape) if domain_shape is not None
        else tree.domain_shape,
        tree=tree,
        ordering=ordering,
        partition=partition,
        epsilon_measure=float(np.maximum(level_epsilons, 0.0).sum()),
    )


def measure_tree(
    x: np.ndarray,
    tree: HierarchicalTree,
    level_epsilons: np.ndarray,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Measure every tree node with its level's Laplace budget.

    A thin wrapper over :func:`tree_plan` + the shared noise stage; kept as
    the historical entry point (DAWA's stage two, tests, the quickstart).
    Returns the mechanism's full output as a :class:`MeasurementSet` over the
    tree's node regions; the total budget spent is ``sum(level_epsilons)``.
    The "domain" need not be raw cells: DAWA calls this on its vector of
    bucket totals, whose per-bucket sensitivity is likewise 1.

    Noise is drawn node-by-node in node-index order — the draw order is part
    of the reproducibility contract (golden values pin it).
    """
    return measure_plan(x, tree_plan(tree, level_epsilons), rng)


def run_hierarchical(
    x: np.ndarray,
    epsilon: float,
    tree: HierarchicalTree,
    level_epsilons: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure every tree node with its level's budget and return consistent
    cell estimates: ``measure_tree`` followed by the generic GLS solve (which
    dispatches to the exact two-pass tree fast path)."""
    level_epsilons = np.asarray(level_epsilons, dtype=float)
    if level_epsilons.sum() > epsilon * (1 + 1e-9):
        raise ValueError("per-level budgets exceed the total epsilon")
    measurements = measure_tree(x, tree, level_epsilons, rng)
    return solve_gls(measurements)


class HierarchicalH(PlanAlgorithm):
    """H: b-ary hierarchy with uniform per-level budget and consistency."""

    properties = AlgorithmProperties(
        name="H",
        supported_dims=(1,),
        data_dependent=False,
        hierarchical=True,
        parameters={"branching": 2},
        reference="Hay, Rastogi, Miklau, Suciu. PVLDB 2010",
    )

    def check_params(self) -> None:
        check_int_param(self.params, "branching", 2)

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        tree = HierarchicalTree(x.shape, branching=int(self.params["branching"]))
        level_epsilons = np.full(tree.n_levels, budget.total / tree.n_levels)
        return tree_plan(tree, level_epsilons)


class HierarchicalHb(PlanAlgorithm):
    """Hb: H with the branching factor optimised for the domain size."""

    properties = AlgorithmProperties(
        name="Hb",
        supported_dims=(1, 2),
        data_dependent=False,
        hierarchical=True,
        reference="Qardaji, Yang, Li. PVLDB 2013",
    )

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        branching = optimal_branching(max(x.shape))
        tree = HierarchicalTree(x.shape, branching=branching)
        level_epsilons = np.full(tree.n_levels, budget.total / tree.n_levels)
        return tree_plan(tree, level_epsilons)
