"""The privacy-invariant rules, grounded in this repository's real bug classes.

Every rule id carries the history that motivated it:

* **PL001** — the determinism contract behind bitwise-identical parallel runs
  (PR 1): all randomness must flow through a passed-in ``np.random.Generator``
  derived from the executor's ``SeedSequence`` tree.  A fresh or global RNG
  anywhere in algorithm/selection code silently breaks serial == parallel.
* **PL002** — post-processing purity (the PR 3 DAWA leak class): once the
  noise stage has run, nothing downstream may look at the true data.  The
  ``infer``/``reconstruct`` stages operate on the plan and the noisy
  measurements *alone*.
* **PL003** — noise metering: Laplace/geometric draws belong to the shared,
  :class:`~repro.algorithms.mechanisms.PrivacyBudget`-metered noise stage
  (``measure_plan``), the mechanism primitives, or the kernel backends.
  A draw anywhere else is unaccounted epsilon unless its enclosing function
  visibly participates in budget accounting.
* **PL004** — budget arithmetic: multiplying/dividing the raw ``epsilon``
  outside ``PrivacyBudget``/budget-share helpers is how stage splits drift
  away from what is actually charged.
* **PL005** — the PR 6 ``QueryMatrix`` bug class: a lazily built cache
  published by plain attribute assignment in a class documented as
  thread-shared is a data race; build once under the lock, then publish.
* **PL006** — kernel-source discipline (PR 7): functions handed to ``njit``
  must stay in the numba-compilable subset — no closures over module globals
  beyond numpy and sibling kernels, no Python-object operations, explicit
  float64/int64 allocation dtypes — because the numpy leg of CI runs them
  uncompiled and the numba leg must compile them unchanged.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from .engine import ModuleContext, dotted_name
from .findings import Finding
from .policy import (
    DATA_NAMES,
    GENERATOR_DRAWS,
    POST_PROCESSING_STAGES,
    RNG_ENTRY_POINTS,
    in_budget_scope,
)

__all__ = ["DEFAULT_RULES", "RULES_BY_ID",
           "FreshRngRule", "PostProcessingPurityRule", "UnmeteredNoiseRule",
           "RawEpsilonArithmeticRule", "UnlockedLazyCacheRule",
           "KernelSourceDisciplineRule"]


# --------------------------------------------------------------------------------------
# PL001 — no fresh/global RNG in algorithm or selection code
# --------------------------------------------------------------------------------------

class FreshRngRule:
    id = "PL001"
    name = "fresh-rng"
    description = ("Randomness must come from a passed-in np.random.Generator; "
                   "constructing or seeding one outside the executor entry "
                   "points breaks the bitwise serial == parallel contract.")
    severity = "error"

    #: numpy.random attributes whose *call* constructs or seeds a generator,
    #: or draws from the legacy global stream.
    _FORBIDDEN: ClassVar[set[str]] = {
        "default_rng", "RandomState", "seed",
        # legacy module-level draws (the implicit global RandomState)
        "random", "rand", "randn", "randint", "choice", "shuffle",
        "permutation", "laplace", "normal", "uniform", "exponential",
        "geometric", "multinomial", "dirichlet",
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_is(*RNG_ENTRY_POINTS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            matched = module.is_numpy_random_call(node, self._FORBIDDEN)
            if matched is None:
                continue
            functions = module.enclosing_functions(node)
            # as_rng is the sanctioned coercion point (seed -> Generator).
            if any(f.name == "as_rng" for f in functions):
                continue
            yield module.finding(
                self, node,
                f"fresh/global RNG via np.random.{matched}; accept a seeded "
                f"np.random.Generator argument instead (determinism contract)")


# --------------------------------------------------------------------------------------
# PL002 — post-processing purity: infer/reconstruct never see the true data
# --------------------------------------------------------------------------------------

class PostProcessingPurityRule:
    id = "PL002"
    name = "post-processing-purity"
    description = ("infer/reconstruct bodies operate on the plan and the noisy "
                   "measurements alone; any reference to the true "
                   "histogram/dataset is a PR-3-class privacy leak.")
    severity = "error"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in POST_PROCESSING_STAGES:
                continue
            yield from self._check_stage(module, node)

    def _check_stage(self, module: ModuleContext,
                     func: ast.FunctionDef) -> Iterator[Finding]:
        args = func.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        for name in params:
            if name in DATA_NAMES:
                yield module.finding(
                    self, func,
                    f"post-processing stage {func.name}() takes the true data "
                    f"as parameter {name!r}; it must consume only the plan "
                    f"and the noisy measurements")
        bound = set(params) | self._locally_bound(func)
        for inner in ast.walk(func):
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load) \
                    and inner.id in DATA_NAMES and inner.id not in bound:
                yield module.finding(
                    self, inner,
                    f"post-processing stage {func.name}() reads {inner.id!r} "
                    f"from an enclosing scope — the true data must not reach "
                    f"it (PR-3 leak class)")
            elif isinstance(inner, ast.Attribute) \
                    and isinstance(inner.ctx, ast.Load) \
                    and isinstance(inner.value, ast.Name) \
                    and inner.value.id == "self" \
                    and inner.attr.lstrip("_") in DATA_NAMES:
                yield module.finding(
                    self, inner,
                    f"post-processing stage {func.name}() reads "
                    f"self.{inner.attr} — stashing the true data on the "
                    f"algorithm and reading it after the noise stage is a "
                    f"PR-3-class leak")

    @staticmethod
    def _locally_bound(func: ast.FunctionDef) -> set[str]:
        bound: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not func:
                bound.add(node.name)
        return bound


# --------------------------------------------------------------------------------------
# PL003 — noise draws only in the metered noise stage / mechanisms / kernels
# --------------------------------------------------------------------------------------

class UnmeteredNoiseRule:
    id = "PL003"
    name = "unmetered-noise"
    description = ("Noise draws (rng.laplace, laplace_noise, rng.geometric, "
                   "...) belong to mechanisms.py, measure_plan or the kernel "
                   "backends; elsewhere they must sit inside a function that "
                   "takes the shared PrivacyBudget (a metered selection "
                   "stage).")
    severity = "error"

    _SANCTIONED = ("algorithms/mechanisms.py", "core/plan.py",
                   "core/kernels.py")
    _NOISE_FUNCTIONS: ClassVar[set[str]] = {"laplace_noise", "batched_laplace",
                        "laplace_mechanism", "geometric_mechanism"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_is(*self._SANCTIONED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            drawn = self._noise_target(node)
            if drawn is None:
                continue
            functions = module.enclosing_functions(node)
            if any(self._is_metered(f) for f in functions):
                continue
            yield module.finding(
                self, node,
                f"noise draw {drawn} outside the metered noise stage; route "
                f"it through measure_plan, or charge a PrivacyBudget in the "
                f"enclosing function")

    def _noise_target(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._NOISE_FUNCTIONS:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in GENERATOR_DRAWS:
            return f".{func.attr}()"
        return None

    @staticmethod
    def _is_metered(func: ast.FunctionDef) -> bool:
        args = func.args
        names = [a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)]
        return "budget" in names


# --------------------------------------------------------------------------------------
# PL004 — raw epsilon arithmetic only inside budget accounting
# --------------------------------------------------------------------------------------

class RawEpsilonArithmeticRule:
    id = "PL004"
    name = "raw-epsilon-arithmetic"
    description = ("Multiplying/dividing the raw epsilon is budget splitting; "
                   "it belongs in PrivacyBudget charges or budget-share "
                   "helpers so the accountant sees every split.")
    severity = "error"

    #: exactly the raw total; derived ``eps_*`` names are PrivacyBudget.spend
    #: results (already metered) and bare ``eps`` is machine epsilon here.
    _EPSILON_NAMES: ClassVar[set[str]] = {"epsilon"}
    _ALLOWED_FUNCTION_TOKENS = ("budget", "allocation", "share", "epsilons",
                                "split")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not in_budget_scope(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp) \
                    or not isinstance(node.op, (ast.Mult, ast.Div)):
                continue
            operand = self._epsilon_operand(node)
            if operand is None:
                continue
            if self._is_accounted(module, node):
                continue
            op = "*" if isinstance(node.op, ast.Mult) else "/"
            yield module.finding(
                self, node,
                f"raw arithmetic on {operand!r} ({op}) outside budget "
                f"accounting; charge it through PrivacyBudget.spend/"
                f"spend_fraction or a budget-share helper")

    def _epsilon_operand(self, node: ast.BinOp) -> str | None:
        for side in (node.left, node.right):
            if isinstance(side, ast.Name) and side.id in self._EPSILON_NAMES:
                return side.id
        return None

    def _is_accounted(self, module: ModuleContext, node: ast.BinOp) -> bool:
        for ancestor in module.ancestors(node):
            # an argument of budget.spend(...)/spend_fraction(...) is charged
            # on the spot — the accountant sees exactly this expression
            if isinstance(ancestor, ast.Call) \
                    and isinstance(ancestor.func, ast.Attribute) \
                    and ancestor.func.attr.startswith("spend"):
                return True
            # comparisons against epsilon bounds are validation, not splitting
            if isinstance(ancestor, ast.Compare):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(token in ancestor.name.lower()
                            for token in self._ALLOWED_FUNCTION_TOKENS):
                return True
        return False


# --------------------------------------------------------------------------------------
# PL005 — lazy caches in thread-shared classes publish under a lock
# --------------------------------------------------------------------------------------

class UnlockedLazyCacheRule:
    id = "PL005"
    name = "unlocked-lazy-cache"
    description = ("In a class documented as thread-shared (docstring mentions "
                   "threads, or the class owns a lock), a lazily built cache "
                   "must be assigned inside `with self._lock:` — plain "
                   "publication races concurrent readers (the PR 6 "
                   "QueryMatrix bug).")
    severity = "error"

    _EXEMPT_METHODS: ClassVar[set[str]] = {"__init__", "__new__", "__getstate__", "__setstate__",
                       "__init_subclass__"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._is_thread_shared(node):
                yield from self._check_class(module, node)

    def _is_thread_shared(self, cls: ast.ClassDef) -> bool:
        doc = ast.get_docstring(cls) or ""
        if "thread" in doc.lower():
            return True
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and "lock" in node.attr.lower() \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                return True
        return False

    def _check_class(self, module: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in self._EXEMPT_METHODS:
                continue
            if not self._has_lazy_guard(item):
                continue
            for store in self._self_attribute_stores(item):
                attr = store.attr
                if not attr.startswith("_") or "lock" in attr.lower():
                    continue
                if self._under_lock(module, store):
                    continue
                yield module.finding(
                    self, store,
                    f"{cls.name}.{item.name} publishes lazy cache "
                    f"self.{attr} without holding the lock; build under "
                    f"`with self._lock:` and publish by one assignment")

    @staticmethod
    def _has_lazy_guard(func: ast.FunctionDef) -> bool:
        """The method contains an ``... is None`` test — the lazy-init shape."""
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) \
                    and any(isinstance(op, (ast.Is, ast.IsNot))
                            for op in node.ops) \
                    and any(isinstance(c, ast.Constant) and c.value is None
                            for c in [node.left, *node.comparators]):
                return True
        return False

    @staticmethod
    def _self_attribute_stores(func: ast.FunctionDef) -> Iterator[ast.Attribute]:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                yield node

    @staticmethod
    def _under_lock(module: ModuleContext, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    name = dotted_name(item.context_expr) or ""
                    if "lock" in name.lower():
                        return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False


# --------------------------------------------------------------------------------------
# PL006 — njit kernel sources stay in the numba-compilable subset
# --------------------------------------------------------------------------------------

class KernelSourceDisciplineRule:
    id = "PL006"
    name = "kernel-source-discipline"
    description = ("Functions wrapped by njit (the compiled kernel sources) "
                   "must avoid Python-object operations and closures over "
                   "module globals, and must allocate with explicit dtypes, "
                   "so both CI legs — uncompiled numpy and compiled numba — "
                   "run them unchanged.")
    severity = "error"

    _SAFE_BUILTINS: ClassVar[set[str]] = {"range", "len", "enumerate", "zip", "min", "max", "abs",
                      "int", "float", "bool", "divmod", "round"}
    _ALLOC_FUNCTIONS: ClassVar[set[str]] = {"empty", "zeros", "ones", "full"}
    _BANNED_NODES: ClassVar[dict[type, str]] = {
        ast.Lambda: "lambda",
        ast.DictComp: "dict comprehension",
        ast.SetComp: "set comprehension",
        ast.ListComp: "list comprehension",
        ast.GeneratorExp: "generator expression",
        ast.Try: "try/except",
        ast.With: "with block",
        ast.Yield: "yield",
        ast.YieldFrom: "yield from",
        ast.Global: "global statement",
        ast.Nonlocal: "nonlocal statement",
        ast.ClassDef: "class definition",
        ast.JoinedStr: "f-string",
        ast.Dict: "dict literal",
        ast.Set: "set literal",
        ast.List: "list literal",
        ast.Starred: "star-unpacking",
        ast.Await: "await",
    }
    _BANNED_METHODS: ClassVar[set[str]] = {"tolist", "item", "astype"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        sources = self._njit_source_names(module)
        if not sources:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in sources:
                yield from self._check_source(module, node, sources)

    @staticmethod
    def _njit_source_names(module: ModuleContext) -> set[str]:
        """Names of functions wrapped by (possibly parameterised) njit.

        Three registration shapes count as kernel sources: the decorator
        form (``@njit(...)``), the rebinding form
        (``_njit(cache=True, ...)(source_fn)``), and a plain function name
        handed straight to the dispatch registry's numba backend
        (``register_kernel("name", "numba", source_fn)``) — the latter is
        compiled lazily, so its source must obey the same discipline.
        """
        sources: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) \
                        else decorator
                    name = dotted_name(target) or ""
                    if name.split(".")[-1].lstrip("_") == "njit":
                        sources.add(node.name)
            elif isinstance(node, ast.Call):
                # the rebinding form: _njit(cache=True, ...)(source_fn)
                inner = node.func
                target = inner.func if isinstance(inner, ast.Call) else inner
                name = dotted_name(target) or ""
                if name.split(".")[-1].lstrip("_") == "njit" \
                        and isinstance(inner, ast.Call):
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            sources.add(arg.id)
                # the registry form: register_kernel(name, "numba", source_fn)
                if name.split(".")[-1] == "register_kernel" \
                        and len(node.args) >= 3 \
                        and isinstance(node.args[1], ast.Constant) \
                        and node.args[1].value == "numba" \
                        and isinstance(node.args[2], ast.Name):
                    sources.add(node.args[2].id)
        return sources

    @staticmethod
    def _module_callable_names(module: ModuleContext) -> set[str]:
        """Module-level callables a kernel source may legitimately reference:
        every function definition plus names bound to njit products
        (``x = _njit(...)(y)``).  Referencing these is dispatch, not a data
        closure — numba resolves sibling compiled functions at compile time
        and the numba CI leg rejects calls into plain-Python ones."""
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call):
                inner = node.value.func
                target = inner.func if isinstance(inner, ast.Call) else inner
                name = dotted_name(target) or ""
                if name.split(".")[-1].lstrip("_") == "njit":
                    names.update(t.id for t in node.targets
                                 if isinstance(t, ast.Name))
        return names

    def _check_source(self, module: ModuleContext, func: ast.FunctionDef,
                      sources: set[str]) -> Iterator[Finding]:
        allowed = (set(self._SAFE_BUILTINS) | sources
                   | self._module_callable_names(module)
                   | module.numpy_aliases | {"numpy"})
        local = {a.arg for a in (func.args.posonlyargs + func.args.args
                                 + func.args.kwonlyargs)}
        local |= {a.arg for a in (func.args.vararg, func.args.kwarg) if a}
        # Walk the body only: ast.walk(func) would also visit the decorator
        # list, flagging the njit reference itself as a global closure.
        body_nodes = [n for stmt in func.body for n in ast.walk(stmt)]
        for node in body_nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
        for node in body_nodes:
            banned = self._BANNED_NODES.get(type(node))
            if banned is not None:
                yield module.finding(
                    self, node,
                    f"njit source {func.name}() uses a {banned} — outside "
                    f"the numba-compilable subset this registry requires")
                continue
            if isinstance(node, ast.Call):
                yield from self._check_call(module, func, node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id not in local and node.id not in allowed:
                yield module.finding(
                    self, node,
                    f"njit source {func.name}() closes over module global "
                    f"{node.id!r}; kernel sources may reference only their "
                    f"arguments, numpy and sibling njit sources")

    def _check_call(self, module: ModuleContext, func: ast.FunctionDef,
                    call: ast.Call) -> Iterator[Finding]:
        if isinstance(call.func, ast.Attribute):
            if call.func.attr in self._BANNED_METHODS:
                yield module.finding(
                    self, call,
                    f"njit source {func.name}() calls .{call.func.attr}() — "
                    f"a Python-object operation outside the compilable "
                    f"subset")
                return
            name = dotted_name(call.func) or ""
            parts = name.split(".")
            if len(parts) == 2 and parts[0] in (module.numpy_aliases
                                                | {"numpy"}) \
                    and parts[1] in self._ALLOC_FUNCTIONS:
                if not self._has_explicit_dtype(call):
                    yield module.finding(
                        self, call,
                        f"njit source {func.name}() allocates via "
                        f"np.{parts[1]} without an explicit dtype; spell out "
                        f"float64/int64 so both backends agree bitwise")

    @staticmethod
    def _has_explicit_dtype(call: ast.Call) -> bool:
        if any(kw.arg == "dtype" for kw in call.keywords):
            return True
        return len(call.args) >= 2


DEFAULT_RULES = (
    FreshRngRule(),
    PostProcessingPurityRule(),
    UnmeteredNoiseRule(),
    RawEpsilonArithmeticRule(),
    UnlockedLazyCacheRule(),
    KernelSourceDisciplineRule(),
)

RULES_BY_ID = {rule.id: rule for rule in DEFAULT_RULES}
