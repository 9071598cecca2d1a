"""Interprocedural dataflow analysis for the privacy linter (privlint v2).

The per-module rules PL001–PL006 are blind to anything that crosses a call:
route the true histogram through one helper and PL002 never sees it.  This
package closes that gap with a three-phase whole-project analysis:

1. **facts** (:mod:`.facts`) — one AST pass per module extracts
   JSON-serialisable function/class/import facts with token-level value
   provenance; cacheable by content hash (:mod:`.cache`);
2. **linking** (:mod:`.callgraph`) — module-qualified name resolution builds
   the project call graph, including virtual dispatch through the
   ``Algorithm`` template methods and instantiation through the algorithm
   registry's dispatch table;
3. **summaries** (:mod:`.engine`) — worklist fixpoints compute which
   parameters/returns carry true-data taint, epsilon, and RNG state, and
   :mod:`.rules` evaluates PL007–PL010 over them.

Entry points: :func:`module_facts` takes one module's facts from the
:class:`~repro.privlint.engine.ModuleContext` the linter already parsed (or
from the summary cache), and :func:`analyze_sources` links a project of
facts or plain ``{path: source}`` modules (tests, quickstart).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from ..engine import ModuleContext
from .cache import FactsCache
from .callgraph import Project
from .engine import ProjectAnalysis, Witness, analyze_project
from .facts import ModuleFacts, extract_module_facts
from .rules import DATAFLOW_RULES, PROJECT_RULES_BY_ID

__all__ = [
    "DATAFLOW_RULES",
    "FactsCache",
    "ModuleFacts",
    "PROJECT_RULES_BY_ID",
    "Project",
    "ProjectAnalysis",
    "Witness",
    "analyze_project",
    "analyze_sources",
    "extract_module_facts",
    "module_facts",
]


def analyze_sources(sources: Mapping[str, str | ModuleContext | ModuleFacts],
                    cache: FactsCache | None = None) -> ProjectAnalysis:
    """Analyse a ``{path: source}`` mapping as one project.

    A value may instead be an already-parsed
    :class:`~repro.privlint.engine.ModuleContext`, or the facts
    :func:`module_facts` already took from one (what
    :func:`~repro.privlint.engine.lint_paths` hands over), so no file is
    parsed twice.  Plain sources are parsed only on a cache miss;
    unparseable ones are skipped (the module-rule engine already reports
    syntax errors; the dataflow analysis just sees a smaller project).
    """
    modules: dict[str, ModuleFacts] = {}
    for path, source in sources.items():
        if isinstance(source, ModuleFacts):
            facts = source
        else:
            try:
                facts = module_facts(Path(path).as_posix(), source, cache)
            except SyntaxError:
                continue
        modules[facts.path] = facts
    if cache is not None:
        cache.save()
    return analyze_project(Project(modules))


def module_facts(path: str, module: str | ModuleContext,
                 cache: FactsCache | None = None) -> ModuleFacts:
    """The facts of one module: from ``cache`` when its source is unchanged,
    else extracted from ``module`` (a plain source is parsed here, and a
    ``SyntaxError`` propagates)."""
    source = module.source if isinstance(module, ModuleContext) else module
    facts = cache.get(path, source) if cache is not None else None
    if facts is None:
        if not isinstance(module, ModuleContext):
            module = ModuleContext(path, source)
        facts = extract_module_facts(module)
        if cache is not None:
            cache.put(path, source, facts)
    return facts
