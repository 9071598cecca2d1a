"""AHP: Accurate Histogram Publication via clustering (Zhang et al., ICDM 2014).

AHP spends a fraction ``rho`` of the budget on noisy cell counts, thresholds
small noisy counts to zero, sorts the cells by noisy value and greedily groups
cells with similar values into clusters.  The remaining budget buys a fresh
noisy total for every cluster, which is spread uniformly over the cluster's
cells.  ``rho`` and the threshold factor ``eta`` are free parameters in the
original paper; the starred variant AHP* sets them with the DPBench tuning
procedure.
"""

from __future__ import annotations

import numpy as np

from ..core.plan import MeasurementPlan
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm, check_real_param
from .mechanisms import BudgetExceededError, PrivacyBudget, laplace_noise

__all__ = ["AHP", "AHPStar", "greedy_value_clustering"]


def greedy_value_clustering(sorted_values: np.ndarray, tolerance: float) -> list[np.ndarray]:
    """Group indices of a sorted value vector into clusters of similar values.

    A new cluster starts whenever the current value exceeds the first value of
    the open cluster by more than ``tolerance``.  With ``tolerance == 0`` only
    exactly equal values share a cluster, which is what makes AHP consistent
    in the epsilon -> infinity limit.
    """
    clusters: list[list[int]] = []
    current: list[int] = []
    current_start_value = 0.0
    for idx, value in enumerate(sorted_values):
        if not current:
            current = [idx]
            current_start_value = value
            continue
        if value - current_start_value <= tolerance:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
            current_start_value = value
    if current:
        clusters.append(current)
    return [np.asarray(c, dtype=np.intp) for c in clusters]


class AHP(PlanAlgorithm):
    """AHP with fixed parameters ``rho`` (budget split) and ``eta`` (threshold).

    On the plan pipeline, AHP's clustering is a pure selection stage: the
    noisy sort order becomes the plan's cell ``ordering`` and the greedy
    value clusters — contiguous runs of the sorted cells — become its
    ``partition``, so the noise stage measures one total per cluster and the
    generic reconstruction (exact disjoint solve + uniform bucket expansion +
    ordering inversion) reproduces the historical per-cluster spread.
    """

    properties = AlgorithmProperties(
        name="AHP",
        supported_dims=(1, 2),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.5, "eta": 0.35},
        free_parameters=("rho", "eta"),
        reference="Zhang, Chen, Xu, Meng, Xie. ICDM 2014",
    )

    def check_params(self) -> None:
        check_real_param(self.params, "rho", high=1.0)
        check_real_param(self.params, "eta", low_inclusive=True)

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        rho = float(self.params["rho"])
        eta = float(self.params["eta"])
        eps_cluster = budget.spend(budget.total * rho, "clustering")
        eps_counts = budget.remaining
        if eps_counts <= 0:
            raise BudgetExceededError(
                "clustering consumed the whole budget; nothing left for the "
                "cluster counts")

        flat = x.ravel()
        n = flat.size
        noisy = flat + laplace_noise(1.0 / eps_cluster, n, rng)
        cutoff = eta * np.log(max(n, 2)) / eps_cluster
        noisy = np.where(noisy < cutoff, 0.0, noisy)

        order = np.argsort(noisy, kind="stable")
        sorted_values = noisy[order]
        clusters = greedy_value_clustering(sorted_values, tolerance=cutoff)

        # Clusters are contiguous runs of the sorted cells: the sort order is
        # the plan's ordering and the run boundaries its partition.
        edges = np.zeros(len(clusters) + 1, dtype=np.intp)
        np.cumsum([len(c) for c in clusters], out=edges[1:])
        buckets = np.arange(len(clusters), dtype=np.intp)[:, None]
        return MeasurementPlan(
            queries=QueryMatrix(buckets, buckets, (len(clusters),)),
            epsilons=np.full(len(clusters), eps_counts),
            domain_shape=x.shape,
            ordering=order,
            partition=edges,
            epsilon_selection=eps_cluster,
            epsilon_measure=eps_counts,       # clusters are disjoint
        )


class AHPStar(AHP):
    """AHP with ``rho`` and ``eta`` chosen by the DPBench tuning procedure.

    The default values below are the output of training on synthetic
    power-law and normal shapes (``repro.core.tuning``); the tuner can
    override them per (epsilon, scale, domain) setting.
    """

    properties = AlgorithmProperties(
        name="AHP*",
        supported_dims=(1, 2),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.85, "eta": 0.35},
        reference="DPBench repaired variant of AHP",
    )
