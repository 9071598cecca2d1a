"""The Select -> Measure -> Reconstruct plan pipeline.

The paper's central observation is that seemingly monolithic private-release
algorithms are compositions of a few reusable stages: *choose* a set of linear
queries (possibly spending privacy budget to make a data-dependent choice),
*measure* them with calibrated noise, and *reconstruct* cell estimates by
post-processing.  This module makes those stages explicit:

* a **selection strategy** emits a :class:`MeasurementPlan` — the queries to
  ask (a sparse :class:`~repro.workload.linops.QueryMatrix`), the per-query
  privacy-budget shares, and the structural metadata (tree tag, cell ordering,
  domain partition) that the reconstruction stage exploits;
* :func:`measure_plan` is the **one shared noise stage**: it answers the plan's
  queries on the data and perturbs them with Laplace noise, metered through a
  :class:`~repro.algorithms.mechanisms.PrivacyBudget` so over-spending raises
  :class:`~repro.algorithms.mechanisms.BudgetExceededError`;
* :func:`reconstruct` is the **inference stage**: one generic sparse GLS solve
  (:func:`~repro.core.gls.solve_gls`, exact closed forms for tree-tagged and
  disjoint plans included), followed by the plan's structural expansions
  (bucket -> cell uniform expansion, ordering inversion).

Algorithms plug in through :class:`~repro.algorithms.base.PlanAlgorithm`,
whose ``_run`` is the thin template ``plan = select(); meas = measure(plan);
return infer(meas)``.  Reproducibility contract: the noise stage draws one
Laplace variate per *measured* query in row order (a vectorised draw with a
per-query scale vector consumes the generator stream exactly like the
historical per-query scalar draws), so porting an algorithm onto the pipeline
preserves its output bit-for-bit as long as its selection emits the queries in
the historical draw order.

NOTE: like :mod:`repro.core.measurement`, this module is imported by the
algorithm modules while the package graph is still loading; it must not import
:mod:`repro.core` itself (only sibling submodules and leaf algorithm modules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..algorithms.mechanisms import PrivacyBudget
from ..workload.linops import QueryMatrix
from .gls import solve_gls
from .kernels import batched_laplace
from .measurement import MeasurementSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.tree import HierarchicalTree
    from ..workload.rangequery import Workload

__all__ = ["MeasurementPlan", "ReleaseMetadata", "SelectionStrategy",
           "measure_plan", "reconstruct"]


@dataclass(frozen=True)
class ReleaseMetadata:
    """Provenance of a published private release.

    A released histogram is post-processing-free: once its epsilon is spent,
    any number of range queries can be answered from it forever at zero
    additional privacy cost.  The serving layer (:mod:`repro.serve`) stamps
    every published release with this record so clients can audit what they
    are querying: which registered algorithm produced it, the budget it was
    run at, what it actually spent (``epsilon_spent`` covers both the
    selection and noise stages for plan algorithms), and how many noisy
    measurements back the reconstruction.
    """

    algorithm: str
    epsilon: float
    epsilon_spent: float
    domain_shape: tuple[int, ...]
    n_measurements: int = 0


@dataclass
class MeasurementPlan:
    """What a selection strategy decided to measure, and how to undo it.

    Parameters
    ----------
    queries:
        The selected queries over the *measurement domain*.  The measurement
        domain is the data domain itself unless ``ordering``/``partition``
        re-shape it (see below).
    epsilons:
        Per-query epsilon share.  A query with a non-positive share is left
        unmeasured by the noise stage (``nan`` value, infinite variance) —
        consistency reconstructs it — unless it carries a pre-measured value.
    domain_shape:
        Shape of the count array the release must cover.
    tree:
        When the queries are exactly the nodes of a
        :class:`~repro.algorithms.tree.HierarchicalTree` over the measurement
        domain (node-index order), the tree — unlocking the exact two-pass
        GLS fast path.  The tree may be 1-D or 2-D (quadtree- and kd-style
        plans tag their 2-D trees directly, no flattening ``ordering``
        needed); a tag whose node count disagrees with the query rows is
        rejected up front.
    ordering:
        Optional permutation of the flattened cells applied *before* anything
        else (Hilbert flattening, AHP's sort-by-noisy-value).  The
        reconstruction stage inverts it last.
    partition:
        Optional contiguous-bucket edges (``B + 1`` boundaries) over the
        (ordered) flat domain.  The queries then live over the ``B``-bucket
        domain; reconstruction expands each bucket estimate uniformly over
        its cells.
    values, variances:
        Pre-measured answers obtained *during selection* (DPCube's phase-1
        cells, MWEM's round measurements), already paid for out of the
        selection budget.  ``nan``/``inf`` rows are measured by the noise
        stage.  A row may not be both pre-measured and budgeted.
    epsilon_selection:
        Budget the selection stage spent (data-dependent choices and any
        pre-measured values).  Informational: the strategy charges it to the
        shared :class:`PrivacyBudget` itself.
    epsilon_measure:
        Explicit total epsilon of the noise stage.  When ``None`` it is
        bounded from the per-query shares (see :meth:`epsilon_required`);
        strategies whose queries compose in parallel (e.g. tree levels) pass
        the exact total.
    extras:
        Strategy-specific structure the reconstruction stage may consume
        (DPCube's kd blocks, SF's bucket boundaries, MWEM's round log).
    """

    queries: QueryMatrix
    epsilons: np.ndarray
    domain_shape: tuple[int, ...]
    tree: "HierarchicalTree | None" = None
    ordering: np.ndarray | None = None
    partition: np.ndarray | None = None
    values: np.ndarray | None = None
    variances: np.ndarray | None = None
    epsilon_selection: float = 0.0
    epsilon_measure: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.epsilons = np.asarray(self.epsilons, dtype=float)
        q = self.queries.n_queries
        if self.epsilons.shape != (q,):
            raise ValueError(
                f"need one epsilon share per query: {q} queries, "
                f"epsilons {self.epsilons.shape}")
        if (self.values is None) != (self.variances is None):
            raise ValueError("pre-measured values and variances come together")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            self.variances = np.asarray(self.variances, dtype=float)
            if self.values.shape != (q,) or self.variances.shape != (q,):
                raise ValueError("pre-measured values/variances must be per-query")
            if np.any(np.isfinite(self.values) & (self.epsilons > 0)):
                raise ValueError(
                    "a query cannot be both pre-measured and budgeted for "
                    "the noise stage")
        if self.partition is not None:
            self.partition = np.asarray(self.partition, dtype=np.intp)
        if self.tree is not None and self.tree.n_nodes != q:
            raise ValueError(
                f"tree-tagged plan needs one query per tree node: "
                f"{self.tree.n_nodes} nodes, {q} queries")

    # -- derived views ------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        return self.queries.n_queries

    @property
    def to_measure(self) -> np.ndarray:
        """Mask of the queries the noise stage must draw noise for."""
        return self.epsilons > 0

    def measurement_vector(self, x: np.ndarray) -> np.ndarray:
        """The vector the plan's queries refer to, derived from the data.

        Applies ``ordering`` then ``partition``: for a partition plan this is
        the vector of bucket totals (each bucket summed exactly as the
        historical per-bucket ``x[lo:hi].sum()`` loops did, preserving
        bit-for-bit summation order).
        """
        vector = np.asarray(x, dtype=float)
        if self.ordering is not None:
            vector = vector.reshape(-1)[self.ordering]
        if self.partition is not None:
            edges = self.partition
            if vector.ndim != 1 or edges[-1] != vector.size:
                raise ValueError("partition edges must cover the flat domain")
            vector = np.array([vector[lo:hi].sum()
                               for lo, hi in zip(edges[:-1], edges[1:])])
        return vector

    def epsilon_required(self) -> float:
        """Total epsilon the noise stage will charge.

        With ``epsilon_measure`` unset, the exact sequential/parallel
        composition cost of per-query Laplace noise at scales ``1/eps_i``:
        the largest per-cell sum of the shares of the queries covering it
        (one adjoint application of the sparse operator — no matrices).
        """
        if self.epsilon_measure is not None:
            return float(self.epsilon_measure)
        mask = self.to_measure
        if not np.any(mask):
            return 0.0
        shares = np.where(mask, self.epsilons, 0.0)
        return float(self.queries.rmatvec(shares).max())


@runtime_checkable
class SelectionStrategy(Protocol):
    """The selection stage: decide *what to measure* before any noise is added.

    A strategy may consult the target workload (workload-aware selection), the
    data itself (data-dependent selection — it must then pay for the choice by
    charging ``budget``), and side information.  It returns the plan; it never
    adds measurement noise (that is :func:`measure_plan`'s job), though it may
    record values it already measured out of its own budget share.
    """

    def select(
        self,
        x: np.ndarray,
        workload: "Workload | None",
        budget: PrivacyBudget,
        rng: np.random.Generator,
    ) -> MeasurementPlan:
        ...  # pragma: no cover - protocol


def measure_plan(
    x: np.ndarray,
    plan: MeasurementPlan,
    rng: np.random.Generator,
    budget: PrivacyBudget | None = None,
) -> MeasurementSet:
    """The shared noise stage: turn any selection into a :class:`MeasurementSet`.

    Answers the plan's queries on the data and adds Laplace noise with scale
    ``1/eps_i`` to each budgeted query, in row order.  The total epsilon of
    the stage (:meth:`MeasurementPlan.epsilon_required`) is charged against
    ``budget`` *before* any noise is drawn, so an over-subscribed plan raises
    :class:`~repro.algorithms.mechanisms.BudgetExceededError` without
    touching the generator.

    Per-bucket/per-node sensitivity is 1 for the count workloads handled
    here (every plan query is a sum of disjoint cells of the measurement
    vector, which is itself a disjoint aggregation of the data cells).
    """
    eps_measure = plan.epsilon_required()
    if budget is not None and eps_measure > 0:
        budget.spend(eps_measure, "measure")

    q = plan.n_queries
    if plan.values is not None:
        values = plan.values.astype(float).copy()
        variances = plan.variances.astype(float).copy()
    else:
        values = np.full(q, np.nan)
        variances = np.full(q, np.inf)

    mask = plan.to_measure
    if np.any(mask):
        vector = plan.measurement_vector(x)
        answers = plan.queries.matvec(vector)
        scales = 1.0 / plan.epsilons[mask]
        # Batched noise: one generator call per constant-scale run (tree
        # levels and bucket groups share a scale, so a whole epsilon grid of
        # queries collapses to a handful of draws).  The generator consumes
        # one double per variate regardless of batching, so the stream — and
        # therefore every executor result — is bitwise-identical to the
        # historical per-query scalar draws (pinned by the stream-identity
        # tests).
        values[mask] = answers[mask] + batched_laplace(rng, scales)
        variances[mask] = 2.0 * scales ** 2

    if budget is not None:
        epsilon_spent = budget.spent
    else:
        epsilon_spent = plan.epsilon_selection + eps_measure
    return MeasurementSet(plan.queries, values, variances,
                          epsilon_spent=float(epsilon_spent), tree=plan.tree)


def reconstruct(
    plan: MeasurementPlan,
    measurements: MeasurementSet,
    method: str = "auto",
) -> np.ndarray:
    """The inference stage: consistent cell estimates from the measurements.

    Solves the weighted least-squares problem over the measurement domain
    with :func:`~repro.core.gls.solve_gls` — the exact two-pass fast path for
    tree-tagged plans, an exact direct scatter for mutually disjoint query
    sets, matrix-free LSMR otherwise — then applies the plan's structural
    expansions: bucket estimates are spread uniformly over their cells
    (``partition``) and the cell ordering is inverted (``ordering``).
    """
    estimate = np.asarray(solve_gls(measurements, method=method), dtype=float)

    if plan.partition is not None:
        widths = np.diff(plan.partition)
        estimate = np.repeat(estimate.reshape(-1) / widths, widths)
    if plan.ordering is not None:
        flat = np.empty(plan.ordering.size)
        flat[plan.ordering] = estimate.reshape(-1)
        estimate = flat
    return estimate.reshape(plan.domain_shape)
