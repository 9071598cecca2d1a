"""SF (StructureFirst): V-optimal-style histogram with private boundary selection
(Xu et al., VLDB Journal 2013).

SF fixes the number of buckets ``k`` (the authors recommend ``ceil(n / 10)``),
selects the ``k - 1`` bucket boundaries privately with the exponential
mechanism scored by the squared-error (SSE) reduction of each candidate cut,
and then estimates the bucket contents with the Laplace mechanism.

The boundary score is a function of squared counts, so its sensitivity depends
on an assumed upper bound ``F`` on any bucket total — scale side information.
This, and the fact that the score is quadratic in scale, is why SF is flagged
in Table 1 as using side information and as not scale-epsilon exchangeable.

Following Section 6.2 of Xu et al. (and the paper's Theorem 7), the content of
each bucket is estimated with a small two-level hierarchy (bucket total plus
individual cells, combined by inverse-variance weighting) instead of assuming
uniformity, which makes the algorithm consistent.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..core.gls import inverse_variance_combine
from ..core.measurement import MeasurementSet
from ..core.plan import MeasurementPlan
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import AlgorithmProperties, PlanAlgorithm, check_int_param, check_real_param
from .mechanisms import BudgetExceededError, PrivacyBudget, exponential_mechanism

__all__ = ["StructureFirst"]


class StructureFirst(PlanAlgorithm):
    """StructureFirst histogram publication for 1-D data.

    On the plan pipeline the exponential-mechanism boundary search is the
    selection stage; the plan measures, per bucket, a total query at half the
    count budget plus every cell at the other half (single-cell buckets get
    one full-budget query), and inference is the per-bucket two-level
    inverse-variance closed form — the exact GLS solution of that
    two-measurement system.

    Selection runs ``k - 1`` exponential-mechanism rounds of O(n) array work
    each: the cut scores are kept across rounds and a chosen cut rescores
    only the two intervals it splits."""

    properties = AlgorithmProperties(
        name="SF",
        supported_dims=(1,),
        data_dependent=True,
        partitioning=True,
        parameters={"rho": 0.5, "buckets": None, "count_bound": None},
        free_parameters=("rho", "buckets", "count_bound"),
        side_information=("scale",),
        consistent=True,
        scale_epsilon_exchangeable=False,
        reference="Xu, Zhang, Xiao, Yang, Yu, Winslett. VLDBJ 2013",
    )

    def check_params(self) -> None:
        check_real_param(self.params, "rho", high=1.0)
        check_int_param(self.params, "buckets", 1, optional=True)
        if self.params["count_bound"] is not None:
            check_real_param(self.params, "count_bound")

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        n = x.size
        rho = float(self.params["rho"])
        buckets = self.params["buckets"]
        n_buckets = max(1, int(np.ceil(n / 10))) if buckets is None else int(buckets)
        n_buckets = min(n_buckets, n)
        count_bound = self.params["count_bound"]
        if count_bound is None:
            # Side information: an upper bound on any bucket total.  The true
            # scale of the dataset is the natural choice (the original paper
            # assumes the scale is public).
            count_bound = max(float(x.sum()), 1.0)

        eps_structure = budget.spend(budget.total * rho, "structure") \
            if n_buckets > 1 else 0.0
        eps_counts = budget.remaining
        if eps_counts <= 0:
            raise BudgetExceededError(
                "structure selection consumed the whole budget; nothing left "
                "for the bucket counts")

        boundaries = self._select_boundaries(x, n_buckets, eps_structure,
                                             count_bound, rng)
        # Per bucket: one total query at eps_counts / 2 plus every cell at
        # eps_counts / 2 (a single-cell bucket gets one full-budget query).
        # Row order is the historical draw order: totals before cells,
        # buckets left to right.
        los: list[int] = []
        his: list[int] = []
        epsilons: list[float] = []
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            width = hi - lo
            if width <= 0:
                continue
            if width == 1:
                los.append(lo), his.append(lo), epsilons.append(eps_counts)
                continue
            los.append(lo), his.append(hi - 1), epsilons.append(eps_counts / 2.0)
            for cell in range(lo, hi):
                los.append(cell), his.append(cell)
                epsilons.append(eps_counts / 2.0)
        queries = QueryMatrix(np.array(los)[:, None], np.array(his)[:, None],
                              x.shape)
        return MeasurementPlan(
            queries=queries,
            epsilons=np.array(epsilons),
            domain_shape=x.shape,
            epsilon_selection=eps_structure,
            # Two passes over disjoint buckets: totals + cells compose
            # sequentially at eps_counts / 2 each.
            epsilon_measure=eps_counts,
            extras={"boundaries": boundaries},
        )

    def infer(self, measurements: MeasurementSet,
              plan: MeasurementPlan) -> np.ndarray:
        """Two-level least squares within each bucket (Section 6.2
        modification): combine the two measurements of the bucket total by
        inverse-variance weighting and distribute the residual evenly over
        the cell estimates, which keeps the algorithm consistent."""
        boundaries = plan.extras["boundaries"]
        estimate = np.zeros(plan.domain_shape)
        row = 0
        values, variances = measurements.values, measurements.variances
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            width = hi - lo
            if width <= 0:
                continue
            if width == 1:
                estimate[lo] = values[row]
                row += 1
                continue
            noisy_total = float(values[row])
            var_total = float(variances[row])
            noisy_cells = values[row + 1: row + 1 + width]
            var_cells_sum = width * float(variances[row + 1])
            row += 1 + width
            cells_sum = float(noisy_cells.sum())
            combined_total, _ = inverse_variance_combine(
                np.array([noisy_total, cells_sum]),
                np.array([var_total, var_cells_sum]),
            )
            estimate[lo:hi] = noisy_cells + (combined_total - cells_sum) / width
        return estimate

    # -- structure selection -------------------------------------------------------
    def _select_boundaries(self, x: np.ndarray, n_buckets: int, eps_structure: float,
                           count_bound: float, rng: np.random.Generator) -> list[int]:
        """Greedily select bucket boundaries with the exponential mechanism.

        Boundaries are cut points in ``1..n-1``; the score of a candidate cut
        is the reduction in total SSE it achieves given the cuts chosen so far.
        A cut's score depends only on the interval that contains it, so the
        scores live in one ``gains`` array over the cut positions: a chosen
        cut rescores just the two sub-intervals it splits (one vectorised
        prefix-sum pass each), and every round is O(n) array work rather
        than a Python loop over all live intervals.
        """
        n = x.size
        if n_buckets <= 1 or eps_structure <= 0:
            return [0, n]
        prefix = np.concatenate([[0.0], np.cumsum(x)])
        prefix_sq = np.concatenate([[0.0], np.cumsum(x ** 2)])

        def sse(lo, hi):
            lo = np.asarray(lo)
            hi = np.asarray(hi)
            width = np.maximum(hi - lo, 1)
            total = prefix[hi] - prefix[lo]
            total_sq = prefix_sq[hi] - prefix_sq[lo]
            return np.maximum(total_sq - total * total / width, 0.0)

        positions = np.arange(1, n)
        gains = np.empty(n - 1)
        alive = np.ones(n - 1, dtype=bool)

        def score(lo: int, hi: int) -> None:
            cuts = positions[lo:hi - 1]     # the cut points lo + 1 .. hi - 1
            if cuts.size:
                base = float(sse(lo, hi))
                gains[lo:hi - 1] = base - sse(np.full(cuts.size, lo), cuts) \
                    - sse(cuts, np.full(cuts.size, hi))

        boundaries = [0, n]
        score(0, n)
        eps_per_cut = eps_structure / (n_buckets - 1)
        # Sensitivity of an SSE-based score: adding a record changes a squared
        # count by at most 2 * F + 1 where F bounds any count.
        sensitivity = 2.0 * count_bound + 1.0
        for _ in range(n_buckets - 1):   # n_buckets <= n: a live cut always remains
            candidates = positions[alive]
            chosen = exponential_mechanism(gains[alive], eps_per_cut,
                                           sensitivity=sensitivity, rng=rng)
            cut = int(candidates[chosen])
            alive[cut - 1] = False
            index = bisect.bisect(boundaries, cut)
            lo, hi = boundaries[index - 1], boundaries[index]
            boundaries.insert(index, cut)
            score(lo, cut)
            score(cut, hi)
        return boundaries
