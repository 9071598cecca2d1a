"""Privacy-invariant static analysis + runtime taint sanitizer for DPBench.

The benchmark's thesis — DP algorithm evaluations are only trustworthy if the
implementations are actually private and deterministic end-to-end — is
enforced here on two fronts:

* **statically**: AST rules PL001-PL006 (:mod:`repro.privlint.rules`) gate
  the invariants this repository has already been burned by — fresh RNGs
  outside the executor, true data reaching post-processing, unmetered noise
  draws, raw epsilon splits, unlocked lazy caches in thread-shared classes,
  non-compilable njit kernel sources — and the interprocedural dataflow
  rules PL007-PL010 (:mod:`repro.privlint.dataflow`) chase the same
  invariants *across* calls: call-graph taint into the post-processing
  stage, budget flow into every noise scale, RNG provenance back to the
  executor spawn, and lock discipline across methods.  Run
  ``python -m repro.privlint src`` (CI does, against the committed
  ``privlint-baseline.json``).
* **dynamically**: the taint sanitizer (:mod:`repro.privlint.taint`) runs
  every registered algorithm on a tainted histogram and asserts the release's
  taint is cleared *only* by the metered noise stage.

Inline suppressions use ``# privlint: disable=PLxxx`` with a justifying
comment; grandfathered findings live in the committed baseline.
"""

from .baseline import apply_baseline, load_baseline, write_baseline
from .dataflow import (
    DATAFLOW_RULES,
    PROJECT_RULES_BY_ID,
    ProjectAnalysis,
    analyze_sources,
)
from .engine import (
    LintResult,
    ModuleContext,
    UNUSED_SUPPRESSION_RULE,
    lint_paths,
    lint_source,
)
from .findings import Finding, ProjectRule, Rule
from .rules import DEFAULT_RULES, RULES_BY_ID
from .sarif import render_sarif, sarif_document
from .taint import (
    SanitizedNoise,
    TaintedArray,
    is_tainted,
    sanitize,
    sanitized_noise_stage,
    taint,
)

__all__ = [
    "DATAFLOW_RULES",
    "DEFAULT_RULES",
    "Finding",
    "LintResult",
    "ModuleContext",
    "PROJECT_RULES_BY_ID",
    "ProjectAnalysis",
    "ProjectRule",
    "RULES_BY_ID",
    "Rule",
    "SanitizedNoise",
    "TaintedArray",
    "UNUSED_SUPPRESSION_RULE",
    "analyze_sources",
    "apply_baseline",
    "is_tainted",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "render_sarif",
    "sanitize",
    "sanitized_noise_stage",
    "sarif_document",
    "taint",
    "write_baseline",
]
