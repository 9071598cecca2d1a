"""Project-wide rules PL007–PL010 on top of the interprocedural summaries.

Each rule implements the :class:`~repro.privlint.findings.ProjectRule`
protocol: ``check_project(analysis)`` over a
:class:`~repro.privlint.dataflow.engine.ProjectAnalysis`.  Findings carry
call-path traces built from the engine's witness chains — qualified function
names only, never line numbers, so the baseline identity of a finding
survives unrelated edits.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..policy import (
    DATA_NAMES,
    POST_PROCESSING_STAGES,
    RNG_ENTRY_POINTS,
    in_budget_scope,
)
from .callgraph import FuncKey
from .engine import (
    ProjectAnalysis,
    fresh_rng_token,
    iter_bindings,
    raw_epsilon_token,
)

__all__ = ["DATAFLOW_RULES", "PROJECT_RULES_BY_ID", "BudgetFlowRule",
           "InterproceduralLeakRule", "LockDisciplineRule",
           "RngProvenanceRule"]


def _finding(rule, analysis: ProjectAnalysis, fkey: FuncKey, line: int,
             message: str, col: int = 1, end_lineno: int = 0) -> Finding:
    path = fkey[0]
    return Finding(path=path, line=line, rule=rule.id, severity=rule.severity,
                   message=message, col=col, end_lineno=end_lineno or line)


class InterproceduralLeakRule:
    """PL007 — true data must not reach the post-processing stage through
    *any* transitive callee (the static mirror of the runtime taint test)."""

    id = "PL007"
    name = "interprocedural-leak"
    description = ("infer/reconstruct and everything they call operate on "
                   "sanitized measurements only; a helper that reads stashed "
                   "true data (or a tainted module global) is the PR-3 leak "
                   "class routed around PL002's per-function check.")
    severity = "error"

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        follow = lambda fkey: analysis.touches_taint_clean.get(fkey)  # noqa: E731
        for fkey, fn in project.functions.items():
            if fn.name not in POST_PROCESSING_STAGES:
                continue
            root = project.qualified(fkey)
            # (a) the root itself reads a tainted attribute (non-data-named:
            # data-named stashes are already PL002 territory)
            component = None
            ckey = project.class_of_function(fkey)
            if ckey is not None:
                component = project.classes[ckey].component
            for attr, line, _locked in fn.attr_loads:
                if attr.lstrip("_") in DATA_NAMES:
                    continue
                origin = analysis.attr_taint.get(component or -1, {}).get(attr)
                if origin is None:
                    continue
                yield _finding(
                    self, analysis, fkey, line,
                    f"{root} reads self.{attr}, which carries the true data "
                    f"(stored by {project.qualified(origin)}); the "
                    f"post-processing stage must consume only the plan and "
                    f"the sanitized measurements")
            # (b) a transitive callee touches taint even with clean arguments
            for call in fn.calls:
                targets = project.resolve_call(fkey, call)
                for callee in sorted(targets.functions):
                    witness = analysis.touches_taint_clean.get(callee)
                    if witness is None:
                        continue
                    chain = analysis.trace(witness, follow)
                    chain_text = f"{root} → {project.qualified(callee)}"
                    if chain and not chain.startswith(
                            project.qualified(callee)):
                        chain_text += f" → {chain}"
                    yield _finding(
                        self, analysis, fkey, call.line,
                        f"true data reaches the post-processing stage via "
                        f"{chain_text}", col=call.col,
                        end_lineno=call.end_lineno)
                    break  # one finding per call site is enough


class BudgetFlowRule:
    """PL008 — every noise scale derives from a PrivacyBudget charge."""

    id = "PL008"
    name = "budget-flow"
    description = ("A noise-scale expression must be derivable from a "
                   "PrivacyBudget charge (budget.spend and friends) along "
                   "every call path; binding a raw epsilon into a parameter "
                   "that reaches a draw through function indirection skips "
                   "the accountant.")
    severity = "error"

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        for fkey, fn in project.functions.items():
            if not in_budget_scope(fkey[0]):
                continue
            for call in fn.calls:
                for callee, callee_facts, binding in iter_bindings(
                        project, fkey, call):
                    sinks = analysis.scale_params.get(callee, {})
                    for param, tokens in binding.items():
                        witness = sinks.get(param)
                        if witness is None:
                            continue
                        raw = [t for t in tokens if raw_epsilon_token(
                            analysis, fkey, t)]
                        if not raw:
                            continue
                        follow = lambda k: next(  # noqa: E731
                            iter(analysis.scale_params.get(k, {}).values()),
                            None)
                        chain = analysis.trace(witness, follow)
                        target = project.qualified(callee)
                        trace = f"{target}({param}=…)"
                        if chain:
                            trace += f" → {chain}"
                        yield _finding(
                            self, analysis, fkey, call.line,
                            f"raw epsilon flows unmetered into a noise "
                            f"scale: {project.qualified(fkey)} binds it "
                            f"into {trace}; route the split through a "
                            f"PrivacyBudget charge", col=call.col,
                            end_lineno=call.end_lineno)
                        break


class RngProvenanceRule:
    """PL009 — generators reaching a mechanism trace to the executor spawn."""

    id = "PL009"
    name = "rng-provenance"
    description = ("Every generator that reaches a mechanism must be threaded "
                   "down from the executor's SeedSequence spawn; a freshly "
                   "constructed generator flowing into a draw through any "
                   "call chain silently breaks the bitwise "
                   "serial == parallel contract (PL001, interprocedural).")
    severity = "error"

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        for fkey, fn in project.functions.items():
            if fkey[0].endswith(RNG_ENTRY_POINTS):
                continue
            if fn.name == "as_rng":
                continue
            for call in fn.calls:
                for callee, callee_facts, binding in iter_bindings(
                        project, fkey, call):
                    if callee_facts.name == "as_rng":
                        continue
                    sinks = analysis.rng_sink_params.get(callee, {})
                    for param, tokens in binding.items():
                        witness = sinks.get(param)
                        if witness is None:
                            continue
                        fresh = [t for t in tokens if fresh_rng_token(
                            analysis, fkey, t)]
                        if not fresh:
                            continue
                        follow = lambda k: next(  # noqa: E731
                            iter(analysis.rng_sink_params.get(k, {}).values()),
                            None)
                        chain = analysis.trace(witness, follow)
                        trace = f"{project.qualified(callee)}({param}=…)"
                        if chain:
                            trace += f" → {chain}"
                        yield _finding(
                            self, analysis, fkey, call.line,
                            f"freshly constructed generator flows into a "
                            f"mechanism: {project.qualified(fkey)} → {trace}; "
                            f"thread the executor-spawned generator through "
                            f"instead", col=call.col,
                            end_lineno=call.end_lineno)
                        break


class LockDisciplineRule:
    """PL010 — fields written under ``self._lock`` are read under it too."""

    id = "PL010"
    name = "cross-method-lock-discipline"
    description = ("An attribute published under `with self._lock:` in one "
                   "method is part of the class's locked state; reading it "
                   "from a method that never acquires the lock races the "
                   "writer (PL005, generalised across methods).")
    severity = "error"

    _EXEMPT_METHODS = {"__init__", "__new__", "__getstate__", "__setstate__",
                       "__del__", "__repr__", "__reduce__"}

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        # locked attrs per class family, with the writing method
        locked: dict[int, dict[str, FuncKey]] = {}
        for fkey, fn in project.functions.items():
            ckey = project.class_of_function(fkey)
            if ckey is None:
                continue
            component = project.classes[ckey].component
            for attr, _tokens, _line, under_lock in fn.attr_stores:
                if under_lock:
                    locked.setdefault(component, {}).setdefault(attr, fkey)
        for fkey, fn in project.functions.items():
            ckey = project.class_of_function(fkey)
            if ckey is None or fn.acquires_lock \
                    or fn.name in self._EXEMPT_METHODS:
                continue
            component = project.classes[ckey].component
            family_locked = locked.get(component, {})
            reported: set[str] = set()
            for attr, line, _under in sorted(fn.attr_loads,
                                             key=lambda e: (e[1], e[0])):
                writer = family_locked.get(attr)
                if writer is None or writer == fkey or attr in reported:
                    continue
                reported.add(attr)
                yield _finding(
                    self, analysis, fkey, line,
                    f"{project.qualified(fkey)} reads self.{attr} without "
                    f"the lock, but {project.qualified(writer)} publishes it "
                    f"under `with self._lock:`; take the lock (or a local "
                    f"snapshot) before reading")


DATAFLOW_RULES = (
    InterproceduralLeakRule(),
    BudgetFlowRule(),
    RngProvenanceRule(),
    LockDisciplineRule(),
)

PROJECT_RULES_BY_ID = {rule.id: rule for rule in DATAFLOW_RULES}
