"""The worklist dataflow engine: interprocedural summaries over the call graph.

Four fixpoints run over the linked :class:`~repro.privlint.dataflow.callgraph.Project`:

* **entry taint** — true-data reachability.  Parameters with the PL002 data
  names are concrete sources at graph *entry points* (functions nobody in
  the analysed set calls); taint then flows through call bindings, into
  ``self.attr`` stores (heap taint is class-family-scoped), and out through
  returns.  The metered noise stage declassifies: calls into
  ``measure_plan`` / the mechanism primitives return clean, exactly
  mirroring the runtime sanitizer's seam.
* **clean-context taint** — the PL007 query.  Each function is summarised
  with *clean parameters* ("would this function touch true data even when
  its caller hands it only sanitized values?"); that is true only for reads
  of tainted heap attributes and module-level data globals, and propagates
  up through callees.  ``infer``/``reconstruct`` roots firing on this
  summary is the static mirror of the runtime taint test.
* **budget flow** — which parameters reach a noise-scale position
  (axiomatically the ``scale``/``epsilon`` params of the mechanism
  primitives and the scale operand of generator draws), propagated up
  caller chains.  PL008 fires where a *raw* epsilon (a parameter literally
  named after the budget, never passed through a ``PrivacyBudget`` charge
  or budget-share helper) binds into such a parameter.
* **RNG provenance** — which parameters are generator *sinks* (the ``rng``
  of the primitives, the receiver of a ``.laplace()``-style draw), and
  which values are *fresh* generators (``default_rng``/``RandomState``
  construction, ``as_rng`` of a literal).  PL009 fires where fresh state
  flows into a sink outside the executor entry points.

Inline ``# privlint: disable=PLxxx`` comments act as *declassification
points* for their rule: a suppressed call site neither fires nor propagates
its property upward, so one justified suppression at the deepest site keeps
the whole caller chain quiet.

Every per-function result carries a witness chain (function hop + reason)
so rules can render ``infer → helper → self._stash`` call-path traces
without embedding line numbers in messages (baseline identity stays stable
under unrelated edits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import absolute_name
from ..policy import DATA_NAMES, GENERATOR_DRAWS
from .callgraph import FuncKey, Project
from .facts import CallFacts, FunctionFacts

__all__ = ["ProjectAnalysis", "Witness", "analyze_project"]

#: Mechanism primitives and their noise-scale parameter (axiomatic PL008
#: sinks) — matched by resolved location *or*, for unresolved callees, by
#: name, so fixtures without imports still analyse.
NOISE_SCALE_PARAMS = {
    "laplace_noise": ("scale",),
    "batched_laplace": ("scales",),
    "laplace_mechanism": ("epsilon",),
    "geometric_mechanism": ("epsilon",),
    "exponential_mechanism": ("epsilon",),
}

#: The same primitives' generator parameter (axiomatic PL009 sinks).
RNG_SINK_PARAM = "rng"

#: Calls whose *return is sanitized* (the runtime ``sanitized_noise_stage``
#: patches exactly these seams, plus the composed ``measure_plan``).
DECLASSIFIERS = set(NOISE_SCALE_PARAMS) | {"measure_plan"}

#: Scalar coercions and structural builtins whose result drops array taint —
#: mirroring the runtime model, where ``float(tainted[i])`` is a plain float
#: (mwem's documented declassification point) and ``len``/``range`` expose
#: only public domain structure.
CLEAN_BUILTINS = {"len", "range", "enumerate", "int", "float", "bool", "str",
                  "repr", "type", "isinstance", "hasattr"}

#: Fresh-generator constructors (absolute dotted names).
FRESH_RNG_CALLS = {
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator", "numpy.random.PCG64",
    "numpy.random.SeedSequence",
}

#: Function-name tokens that mark a value as budget-derived (PL004's list).
BUDGET_TOKENS = ("budget", "allocation", "share", "epsilons", "split", "spend")

#: Parameter names that *are* the raw budget.
RAW_EPSILON_NAMES = {"epsilon", "eps"}


@dataclass(frozen=True)
class Witness:
    """One hop of a call-path trace: where a property came from."""

    reason: str                    #: terminal explanation, or "" for a hop
    callee: FuncKey | None = None  #: next function in the chain, if any


@dataclass
class ProjectAnalysis:
    """The linked project plus every interprocedural summary the rules read."""

    project: Project
    #: entry-context taint: per-function tainted parameter names
    entry_param_taint: dict[FuncKey, set[str]] = field(default_factory=dict)
    #: entry-context taint: does the return value carry true data?
    entry_return_taint: dict[FuncKey, bool] = field(default_factory=dict)
    #: class-family heap taint: component id -> {attr: storing function}
    attr_taint: dict[int, dict[str, FuncKey]] = field(default_factory=dict)
    #: clean-parameter summaries (the PL007 query) with witnesses
    touches_taint_clean: dict[FuncKey, Witness] = field(default_factory=dict)
    returns_taint_clean: dict[FuncKey, bool] = field(default_factory=dict)
    #: PL008: parameter -> witness chain for scale-reaching params
    scale_params: dict[FuncKey, dict[str, Witness]] = field(default_factory=dict)
    #: PL009: parameter -> witness chain for generator-sink params
    rng_sink_params: dict[FuncKey, dict[str, Witness]] = field(default_factory=dict)

    # -- shared helpers -----------------------------------------------------------
    def suppressed(self, fkey: FuncKey, line: int, rule_id: str) -> bool:
        ids = self.project.modules[fkey[0]].suppressions.get(line, ())
        return "all" in ids or rule_id in ids

    def trace(self, start: Witness, follow) -> str:
        """Render a witness chain as ``→``-joined hops ending in a reason.

        ``follow(fkey)`` returns the next :class:`Witness` for a chained hop
        (each fixpoint keeps its own witness map)."""
        hops: list[str] = []
        current: Witness | None = start
        guard = 0
        while current is not None and guard < 16:
            guard += 1
            if current.callee is not None:
                hops.append(self.project.qualified(current.callee))
                current = follow(current.callee)
            else:
                if current.reason:
                    hops.append(current.reason)
                current = None
        return " → ".join(hops)


def analyze_project(project: Project) -> ProjectAnalysis:
    analysis = ProjectAnalysis(project=project)
    _entry_taint_fixpoint(analysis)
    _clean_taint_fixpoint(analysis)
    _scale_fixpoint(analysis)
    _rng_fixpoint(analysis)
    return analysis


# --------------------------------------------------------------------------------------
# helpers shared by the fixpoints
# --------------------------------------------------------------------------------------

def _external_name(project: Project, fkey: FuncKey, call: CallFacts) -> str | None:
    """Last segment of an unresolved callee (for axiomatic name matching)."""
    targets = project.resolve_call(fkey, call)
    if targets.resolved:
        return None
    if targets.external:
        return targets.external
    if call.callee:
        return call.callee.rsplit(".", 1)[-1]
    return None


def _is_primitive(project: Project, fkey: FuncKey, call: CallFacts,
                  table) -> tuple[str, FunctionFacts | None] | None:
    """Match a call against the mechanism-primitive table.

    Returns ``(primitive_name, callee_facts_or_None)`` when the call resolves
    to (or is spelled as) one of the primitives."""
    targets = project.resolve_call(fkey, call)
    for callee in targets.functions:
        if callee[1].rsplit(".", 1)[-1] in table:
            return (callee[1].rsplit(".", 1)[-1], project.functions[callee])
    name = call.callee.rsplit(".", 1)[-1] if call.callee else None
    if not targets.resolved and name in table:
        return (name, None)
    return None


def _draw_scale_tokens(call: CallFacts) -> tuple[str, set[str]] | None:
    """For ``rng.laplace(loc, scale, ...)``-style draws, the scale operand."""
    if not call.callee or "." not in call.callee:
        return None
    draw = call.callee.rsplit(".", 1)[-1]
    if draw not in GENERATOR_DRAWS or not call.base_tokens:
        return None
    kwarg, position = GENERATOR_DRAWS[draw]
    tokens: set[str] = set()
    if kwarg in call.kwargs:
        tokens.update(call.kwargs[kwarg])
    elif position < len(call.args):
        tokens.update(call.args[position])
    return (draw, tokens)


def iter_bindings(project: Project, fkey: FuncKey, call: CallFacts):
    """Yield ``(callee_key, callee_facts, {param: tokens})`` for a call site."""
    targets = project.resolve_call(fkey, call)
    for callee in sorted(targets.functions):
        callee_facts = project.functions[callee]
        yield callee, callee_facts, project.bind_args(call, callee_facts)


# --------------------------------------------------------------------------------------
# fixpoint 1+2: entry taint and heap (attribute) taint
# --------------------------------------------------------------------------------------

def _entry_taint_fixpoint(analysis: ProjectAnalysis) -> None:
    project = analysis.project
    param_taint: dict[FuncKey, set[str]] = {f: set() for f in project.functions}
    return_taint: dict[FuncKey, bool] = {f: False for f in project.functions}
    attr_taint: dict[int, dict[str, FuncKey]] = {}

    # Sources: data-named parameters of functions with no analysed callers.
    for fkey, fn in project.functions.items():
        if not project.callers.get(fkey):
            for param in fn.params:
                if param in DATA_NAMES:
                    param_taint[fkey].add(param)

    def component_of(fkey: FuncKey) -> int | None:
        ckey = project.class_of_function(fkey)
        return project.classes[ckey].component if ckey else None

    def token_tainted(fkey: FuncKey, token: str,
                      visiting: frozenset = frozenset()) -> bool:
        fn = project.functions[fkey]
        if token.startswith("p:"):
            return token[2:] in param_taint[fkey]
        if token.startswith("a:"):
            component = component_of(fkey)
            return (component is not None
                    and token[2:] in attr_taint.get(component, {}))
        if token.startswith("g:"):
            return token[2:] in DATA_NAMES
        if token.startswith("c:"):
            if token in visiting:
                return False  # self-referential binding (x = f(x))
            call = fn.call_by_key(token)
            if call is None:
                return False
            if _is_primitive(project, fkey, call, DECLASSIFIERS):
                return False  # metered noise stage sanitizes its return
            targets = project.resolve_call(fkey, call)
            if targets.functions:
                return any(return_taint[c] for c in targets.functions)
            if _external_name(project, fkey, call) in CLEAN_BUILTINS:
                return False  # scalar coercion / structural builtin
            # unresolved (np.asarray, x.sum(), ...): pass-through of the
            # arguments and the receiver, mirroring TaintedArray's algebra
            inner = visiting | {token}
            return any(token_tainted(fkey, t, inner)
                       for t in call.all_arg_tokens() | set(call.base_tokens))
        return False

    def any_tainted(fkey: FuncKey, tokens) -> bool:
        return any(token_tainted(fkey, t) for t in tokens)

    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for fkey, fn in project.functions.items():
            # returns
            if not return_taint[fkey] and any_tainted(fkey, fn.returns):
                return_taint[fkey] = True
                changed = True
            # heap stores
            component = component_of(fkey)
            if component is not None:
                for attr, tokens, _line, _locked in fn.attr_stores:
                    if any_tainted(fkey, tokens):
                        bucket = attr_taint.setdefault(component, {})
                        if attr not in bucket:
                            bucket[attr] = fkey
                            changed = True
            # call bindings
            for call in fn.calls:
                for callee, callee_facts, binding in iter_bindings(
                        project, fkey, call):
                    for param, tokens in binding.items():
                        if param not in param_taint[callee] \
                                and any_tainted(fkey, tokens):
                            param_taint[callee].add(param)
                            changed = True

    analysis.entry_param_taint = param_taint
    analysis.entry_return_taint = return_taint
    analysis.attr_taint = attr_taint


# --------------------------------------------------------------------------------------
# fixpoint 3: clean-parameter summaries (the PL007 query)
# --------------------------------------------------------------------------------------

def _clean_taint_fixpoint(analysis: ProjectAnalysis) -> None:
    project = analysis.project
    touches: dict[FuncKey, Witness] = {}
    returns: dict[FuncKey, bool] = {f: False for f in project.functions}

    def component_of(fkey: FuncKey) -> int | None:
        ckey = project.class_of_function(fkey)
        return project.classes[ckey].component if ckey else None

    def token_clean_taint(fkey: FuncKey, token: str,
                          visiting: frozenset = frozenset()) -> Witness | None:
        fn = project.functions[fkey]
        if token.startswith("a:"):
            component = component_of(fkey)
            attr = token[2:]
            if component is not None and attr in analysis.attr_taint.get(
                    component, {}):
                origin = analysis.attr_taint[component][attr]
                return Witness(reason=f"self.{attr} (true data stored by "
                               f"{project.qualified(origin)})")
        if token.startswith("g:") and token[2:] in DATA_NAMES:
            return Witness(reason=f"module-level true data {token[2:]!r}")
        if token.startswith("c:"):
            if token in visiting:
                return None
            call = fn.call_by_key(token)
            if call is None:
                return None
            if _is_primitive(project, fkey, call, DECLASSIFIERS):
                return None
            targets = project.resolve_call(fkey, call)
            for callee in targets.functions:
                if returns[callee]:
                    return Witness(reason="", callee=callee)
            if not targets.functions \
                    and _external_name(project, fkey, call) \
                    not in CLEAN_BUILTINS:
                for arg in call.all_arg_tokens() | set(call.base_tokens):
                    inner = token_clean_taint(fkey, arg, visiting | {token})
                    if inner is not None:
                        return inner
        return None

    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for fkey, fn in project.functions.items():
            if fkey not in touches:
                witness = None
                for attr, line, _locked in fn.attr_loads:
                    if analysis.suppressed(fkey, line, "PL007"):
                        continue  # justified declassification at the load
                    witness = token_clean_taint(fkey, f"a:{attr}")
                    if witness is not None:
                        break
                if witness is None:
                    for call in fn.calls:
                        if analysis.suppressed(fkey, call.line, "PL007"):
                            continue
                        for arg in call.all_arg_tokens():
                            witness = token_clean_taint(fkey, arg)
                            if witness is not None:
                                break
                        if witness is None:
                            targets = project.resolve_call(fkey, call)
                            for callee in targets.functions:
                                if callee in touches:
                                    witness = Witness(reason="", callee=callee)
                                    break
                        if witness is not None:
                            break
                if witness is not None:
                    touches[fkey] = witness
                    changed = True
            if not returns[fkey]:
                for token in fn.returns:
                    if token_clean_taint(fkey, token) is not None:
                        returns[fkey] = True
                        changed = True
                        break

    analysis.touches_taint_clean = touches
    analysis.returns_taint_clean = returns


# --------------------------------------------------------------------------------------
# fixpoint 4: budget flow (PL008)
# --------------------------------------------------------------------------------------

def _scale_fixpoint(analysis: ProjectAnalysis) -> None:
    project = analysis.project
    scale_params: dict[FuncKey, dict[str, Witness]] = {
        f: {} for f in project.functions}

    # Axiomatic sinks: the primitives' own scale parameters.
    for fkey, fn in project.functions.items():
        last = fkey[1].rsplit(".", 1)[-1]
        if last in NOISE_SCALE_PARAMS:
            for param in NOISE_SCALE_PARAMS[last]:
                if param in fn.params:
                    scale_params[fkey][param] = Witness(
                        reason=f"{last}({param}=…) noise scale")

    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for fkey, fn in project.functions.items():
            for call in fn.calls:
                if analysis.suppressed(fkey, call.line, "PL008"):
                    continue  # justified declassification stops propagation
                # direct generator draws: the scale operand is a sink
                draw = _draw_scale_tokens(call)
                if draw is not None:
                    draw_name, tokens = draw
                    for token in tokens:
                        if token.startswith("p:"):
                            param = token[2:]
                            if param not in scale_params[fkey]:
                                scale_params[fkey][param] = Witness(
                                    reason=f".{draw_name}() draw scale")
                                changed = True
                # primitive by name but unresolved (fixtures)
                primitive = _is_primitive(project, fkey, call,
                                          NOISE_SCALE_PARAMS)
                if primitive is not None and primitive[1] is None:
                    name = primitive[0]
                    sink_names = NOISE_SCALE_PARAMS[name]
                    tokens = set()
                    for sink in sink_names:
                        tokens |= set(call.kwargs.get(sink, ()))
                    if not tokens and call.args:
                        index = 0 if primitive[0] in (
                            "laplace_noise", "batched_laplace") else 1
                        if index < len(call.args):
                            tokens = set(call.args[index])
                    for token in tokens:
                        if token.startswith("p:"):
                            param = token[2:]
                            if param not in scale_params[fkey]:
                                scale_params[fkey][param] = Witness(
                                    reason=f"{name}() noise scale")
                                changed = True
                # resolved callees with scale-reaching params
                for callee, callee_facts, binding in iter_bindings(
                        project, fkey, call):
                    for param, tokens in binding.items():
                        if param not in scale_params[callee]:
                            continue
                        for token in tokens:
                            if token.startswith("p:"):
                                local = token[2:]
                                if local not in scale_params[fkey]:
                                    scale_params[fkey][local] = Witness(
                                        reason="", callee=callee)
                                    changed = True

    analysis.scale_params = scale_params


def raw_epsilon_token(analysis: ProjectAnalysis, fkey: FuncKey,
                      token: str, _depth: int = 0) -> bool:
    """Is this value the *raw* budget — named epsilon, not derived from a
    ``PrivacyBudget`` charge or a budget-share helper?"""
    if _depth > 12:
        return False
    project = analysis.project
    fn = project.functions[fkey]
    if token.startswith(("p:", "g:", "a:")):
        name = token[2:].lstrip("_")
        return name in RAW_EPSILON_NAMES
    if token.startswith("c:"):
        call = fn.call_by_key(token)
        if call is None or call.callee is None:
            return False
        last = call.callee.rsplit(".", 1)[-1].lower()
        if any(part in last for part in BUDGET_TOKENS):
            return False  # budget.spend(...) and friends are metered
        targets = project.resolve_call(fkey, call)
        if targets.functions:
            return False  # a resolved helper owns its own accounting
        # unresolved numeric pass-through: float(epsilon), np.exp(-epsilon)
        return any(raw_epsilon_token(analysis, fkey, t, _depth + 1)
                   for t in call.all_arg_tokens())
    return False


# --------------------------------------------------------------------------------------
# fixpoint 5: RNG provenance (PL009)
# --------------------------------------------------------------------------------------

def _rng_fixpoint(analysis: ProjectAnalysis) -> None:
    project = analysis.project
    sink_params: dict[FuncKey, dict[str, Witness]] = {
        f: {} for f in project.functions}

    for fkey, fn in project.functions.items():
        last = fkey[1].rsplit(".", 1)[-1]
        if last in NOISE_SCALE_PARAMS and RNG_SINK_PARAM in fn.params:
            sink_params[fkey][RNG_SINK_PARAM] = Witness(
                reason=f"{last}(rng=…) mechanism generator")

    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for fkey, fn in project.functions.items():
            if fn.name == "as_rng":
                continue  # the sanctioned adapter is provenance-neutral
            for call in fn.calls:
                if analysis.suppressed(fkey, call.line, "PL009"):
                    continue
                # draw receiver is a sink: rng.laplace(...)
                if _draw_scale_tokens(call) is not None:
                    for token in call.base_tokens:
                        if token.startswith("p:"):
                            param = token[2:]
                            if param not in sink_params[fkey]:
                                draw = call.callee.rsplit(".", 1)[-1]
                                sink_params[fkey][param] = Witness(
                                    reason=f".{draw}() draw receiver")
                                changed = True
                primitive = _is_primitive(project, fkey, call,
                                          NOISE_SCALE_PARAMS)
                if primitive is not None and primitive[1] is None:
                    tokens = set(call.kwargs.get(RNG_SINK_PARAM, ()))
                    if not tokens and call.args:
                        tokens = set(call.args[-1])
                    for token in tokens:
                        if token.startswith("p:") \
                                and token[2:] not in sink_params[fkey]:
                            sink_params[fkey][token[2:]] = Witness(
                                reason=f"{primitive[0]}() generator")
                            changed = True
                for callee, callee_facts, binding in iter_bindings(
                        project, fkey, call):
                    if callee_facts.name == "as_rng":
                        continue
                    for param, tokens in binding.items():
                        if param not in sink_params[callee]:
                            continue
                        for token in tokens:
                            if token.startswith("p:") \
                                    and token[2:] not in sink_params[fkey]:
                                sink_params[fkey][token[2:]] = Witness(
                                    reason="", callee=callee)
                                changed = True

    analysis.rng_sink_params = sink_params


def fresh_rng_token(analysis: ProjectAnalysis, fkey: FuncKey,
                    token: str, _depth: int = 0) -> bool:
    """Does this value hold a generator constructed here rather than one
    threaded down from the executor's SeedSequence spawn?"""
    if _depth > 12 or not token.startswith("c:"):
        return False
    project = analysis.project
    fn = project.functions[fkey]
    call = fn.call_by_key(token)
    if call is None or call.callee is None:
        return False
    mod = project.modules[fkey[0]]
    absolute = absolute_name(mod.imports, call.callee)
    if absolute in FRESH_RNG_CALLS:
        return True
    last = call.callee.rsplit(".", 1)[-1]
    if last == "as_rng":
        # as_rng(None) / as_rng(0) mints a generator; as_rng(rng) passes
        # provenance through.
        if not call.args and not call.kwargs:
            return True
        arg_tokens = call.all_arg_tokens()
        if not arg_tokens:
            return True  # literal seed
        return any(fresh_rng_token(analysis, fkey, t, _depth + 1)
                   for t in arg_tokens)
    if last in ("default_rng", "RandomState", "SeedSequence"):
        return True
    return False
