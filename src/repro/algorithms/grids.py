"""UGrid and AGrid: differentially private grids for geospatial data
(Qardaji, Yang, Li, ICDE 2013).

UGrid lays a single equi-width grid over the 2-D domain, with the grid size
chosen from the dataset scale (side information) and epsilon so that the noise
error and the within-cell uniformity error are balanced:
``m = sqrt(N * eps / c)`` with ``c = 10``.

AGrid uses two levels: a coarse grid whose size again depends on ``N * eps``,
and within each coarse cell a fine grid whose size adapts to that cell's noisy
count.  The two measurements of each coarse cell (its own noisy count and the
sum of its fine cells) are reconciled by inverse-variance weighting.

Both algorithms become the identity release as epsilon grows (the grids shrink
to individual cells), so both are consistent; both use the true scale as side
information, exactly as flagged in Table 1.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.gls import inverse_variance_combine
from ..core.plan import MeasurementPlan
from ..workload.linops import QueryMatrix
from ..workload.rangequery import Workload
from .base import Algorithm, AlgorithmProperties, PlanAlgorithm, check_real_param
from .mechanisms import PrivacyBudget, laplace_noise

__all__ = ["UGrid", "AGrid"]


def _grid_edges(length: int, pieces: int) -> list[int]:
    """Boundaries of an equi-width partition of ``range(length)`` into ``pieces``.

    Computed in exact integer arithmetic (``floor(i * length / pieces)``), so
    consecutive widths differ by at most one.  The historical
    ``np.linspace(...).astype(int)`` truncated float intermediates, drifting
    off the balanced grid (and at the mercy of float rounding) whenever
    ``i * length / pieces`` landed just below an integer.  ``pieces`` is
    clipped to ``1..length``, so every piece is non-empty.
    """
    length = int(length)
    pieces = min(max(int(pieces), 1), length)
    return [i * length // pieces for i in range(pieces + 1)]


class UGrid(PlanAlgorithm):
    """Uniform (single-level) grid.

    On the plan pipeline the selection stage sizes the grid from the scale
    side information and emits one rectangle query per grid block (disjoint,
    so the whole budget reaches every block); the generic disjoint
    reconstruction spreads each noisy total uniformly over its block.
    """

    properties = AlgorithmProperties(
        name="UGrid",
        supported_dims=(2,),
        data_dependent=True,
        partitioning=True,
        parameters={"c": 10.0},
        side_information=("scale",),
        reference="Qardaji, Yang, Li. ICDE 2013",
    )

    def check_params(self) -> None:
        check_real_param(self.params, "c")

    def select(self, x: np.ndarray, workload: Workload | None,
               budget: PrivacyBudget, rng: np.random.Generator) -> MeasurementPlan:
        c = float(self.params["c"])
        scale = float(x.sum())          # side information: true scale
        grid_size = int(np.ceil(np.sqrt(max(scale * budget.total / c, 1.0))))
        rows, cols = x.shape
        row_edges = _grid_edges(rows, grid_size)
        col_edges = _grid_edges(cols, grid_size)

        los: list[tuple[int, int]] = []
        his: list[tuple[int, int]] = []
        for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
            for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
                if r1 <= r0 or c1 <= c0:
                    continue
                los.append((r0, c0))
                his.append((r1 - 1, c1 - 1))
        queries = QueryMatrix(np.array(los, dtype=np.intp),
                              np.array(his, dtype=np.intp), x.shape)
        return MeasurementPlan(
            queries=queries,
            epsilons=np.full(queries.n_queries, budget.total),
            domain_shape=x.shape,
            epsilon_measure=budget.total,     # grid blocks are disjoint
        )


class AGrid(Algorithm):
    """Adaptive two-level grid.

    Deliberately *not* on the plan pipeline: the fine grid inside each coarse
    block is sized from that block's *noisy* coarse count, so selection and
    measurement interleave block by block (coarse draw, then that block's
    fine draws) — a faithful staging would have to pre-draw all the noise
    during selection, which is the pipeline in name only.

    Each coarse block costs one scalar coarse draw, one size-k draw for its
    k fine cells, k true fine-cell sums and a constant number of small array
    operations; the grid sizing is Python-int / ``math`` scalar arithmetic.
    """

    properties = AlgorithmProperties(
        name="AGrid",
        supported_dims=(2,),
        data_dependent=True,
        hierarchical=True,
        partitioning=True,
        parameters={"c": 10.0, "c2": 5.0, "rho": 0.5},
        side_information=("scale",),
        reference="Qardaji, Yang, Li. ICDE 2013",
    )

    def check_params(self) -> None:
        check_real_param(self.params, "c")
        check_real_param(self.params, "c2")
        check_real_param(self.params, "rho", high=1.0)

    def _run(self, x: np.ndarray, epsilon: float, workload: Workload | None,
             rng: np.random.Generator) -> np.ndarray:
        c = float(self.params["c"])
        c2 = float(self.params["c2"])
        rho = float(self.params["rho"])
        budget = PrivacyBudget(epsilon)
        eps_coarse = budget.spend(epsilon * rho, "coarse-grid")
        eps_fine = budget.spend_all("fine-grid")

        scale = float(x.sum())          # side information: true scale
        rows, cols = x.shape
        # Qardaji's grid-size heuristic m ~= sqrt(N * eps / c): epsilon enters
        # as signal strength, not as a budget split (the split is the two
        # spend() calls above).
        coarse_size = max(10, int(np.ceil(np.sqrt(max(scale * epsilon / c, 1.0)) / 2.0)))  # privlint: disable=PL004
        row_edges = _grid_edges(rows, coarse_size)
        col_edges = _grid_edges(cols, coarse_size)

        estimate = np.zeros(x.shape)
        coarse_variance = 2.0 / eps_coarse ** 2
        fine_variance = 2.0 / eps_fine ** 2
        # Python-int / math scalars are exact here (integer edges, correctly
        # rounded sqrt and ceil), and one size-k draw consumes the generator
        # exactly like k scalar draws.  _grid_edges never yields an empty
        # block or fine cell.
        for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
            for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
                block = x[r0:r1, c0:c1]
                block_sum = float(block.sum())
                # Bespoke per-block interleaved noise (documented plan-pipeline
                # exemption); eps_coarse was charged by spend() above.  The
                # float() around the true block total is the taint sanitizer's
                # declassification point: the very next operation noised it.
                coarse_count = block_sum + float(laplace_noise(1.0 / eps_coarse, (), rng))  # privlint: disable=PL003
                block_rows, block_cols = r1 - r0, c1 - c0
                # _grid_edges clips the fine size to each side of the block.
                fine_size = math.ceil(math.sqrt(max(coarse_count, 0.0) * eps_fine / c2))
                sub_rows = _grid_edges(block_rows, fine_size)
                sub_cols = _grid_edges(block_cols, fine_size)
                single_cell = len(sub_rows) == len(sub_cols) == 2
                if single_cell:
                    true_sums = [block_sum]     # the fine cell is the block
                else:
                    true_sums = [float(block[fr0:fr1, fc0:fc1].sum())
                                 for fr0, fr1 in zip(sub_rows[:-1], sub_rows[1:])
                                 for fc0, fc1 in zip(sub_cols[:-1], sub_cols[1:])]
                # Same exemption as the coarse pass; eps_fine was charged by
                # spend_all() above.
                noise = laplace_noise(1.0 / eps_fine, len(true_sums), rng)  # privlint: disable=PL003
                fine_values = np.array(true_sums) + noise

                # Reconcile the coarse measurement with the fine measurements.
                fine_total = float(fine_values.sum())
                combined, _ = inverse_variance_combine(
                    np.array([coarse_count, fine_total]),
                    np.array([coarse_variance, fine_variance * len(fine_values)]),
                )
                fine_values = fine_values + (combined - fine_total) / len(fine_values)
                if single_cell:
                    estimate[r0:r1, c0:c1] = fine_values[0] / (block_rows * block_cols)
                    continue
                row_widths = np.diff(sub_rows)
                col_widths = np.diff(sub_cols)
                cells = fine_values.reshape(row_widths.size, col_widths.size) \
                    / np.outer(row_widths, col_widths)
                estimate[r0:r1, c0:c1] = np.repeat(np.repeat(cells, row_widths, axis=0),
                                                   col_widths, axis=1)
        return estimate
