"""Rule policy shared by the module rules and the dataflow tier.

Each table here is the one definition of a vocabulary that a module rule
(PL001–PL006, :mod:`repro.privlint.rules`) and its interprocedural
counterpart (PL007–PL010, :mod:`repro.privlint.dataflow`) both enforce.
Tables that differ between the tiers on purpose stay with their rule.
"""

from __future__ import annotations

__all__ = ["DATA_NAMES", "GENERATOR_DRAWS", "POST_PROCESSING_STAGES",
           "RNG_ENTRY_POINTS", "in_budget_scope"]

#: Conventional names of the true data in this codebase: PL002 flags them in
#: the post-processing stage, and they are the dataflow taint sources.
DATA_NAMES = frozenset({"x", "data", "counts", "histogram", "true_x",
                        "true_data", "raw_data", "dataset"})

#: The post-processing stages that must never see the true data (PL002 and
#: the PL007 roots).
POST_PROCESSING_STAGES = ("infer", "reconstruct")

#: Modules that own the seeding currency: the executor derives per-job
#: SeedSequences, the benchmark turns them into the per-job Generators
#: (exempt from PL001 and PL009).
RNG_ENTRY_POINTS = ("core/executor.py", "core/benchmark.py")

#: Generator-method noise draws (PL003) and the (kwarg, positional index) of
#: their scale operand (PL008).
GENERATOR_DRAWS = {
    "laplace": ("scale", 1),
    "normal": ("scale", 1),
    "gumbel": ("scale", 1),
    "exponential": ("scale", 0),
    "geometric": ("p", 0),
}

#: The release path the budget rules (PL004, PL008) police; analysis and
#: tuning modules use epsilon as a signal-strength coordinate, not a budget.
_BUDGET_SCOPE = ("core/plan.py", "core/repair.py", "workload/selection.py")


def in_budget_scope(path: str) -> bool:
    """True for release-path modules other than the mechanism primitives."""
    if path.endswith("algorithms/mechanisms.py"):
        return False
    return path.endswith(_BUDGET_SCOPE) or "/algorithms/" in path
