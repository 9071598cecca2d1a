"""The lint engine: parse modules, run rules, honour inline suppressions.

The engine is deliberately self-contained (stdlib ``ast`` only) so the CLI can
run in any environment that can import the package.  Every linted file is
read once and parsed once into a :class:`ModuleContext` carrying the AST, the
suppression map, a parent map and the import table; the module rules walk
that shared context and the dataflow tier extracts its facts from it.

Inline suppressions follow the familiar lint idiom::

    noisy = x + laplace_noise(scale, n, rng)  # privlint: disable=PLxxx

``disable=PL003,PL004`` (any real rule ids) silences several rules on one
line and
``disable=all`` silences every rule; the comment must sit on the line the
finding is reported at (the first line of a multi-line statement).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .findings import Finding, ProjectRule, Rule

__all__ = ["LintResult", "ModuleContext", "UNUSED_SUPPRESSION_RULE",
           "absolute_name", "dotted_name", "import_table", "lint_paths",
           "lint_source"]

_SUPPRESS_RE = re.compile(r"#\s*privlint:\s*disable=([A-Za-z0-9_,\s]+)")


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed on that line (``{"all"}`` for all)."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = {token.strip() for token in match.group(1).split(",")}
            suppressions[lineno] = {r for r in rules if r}
    return suppressions


class ModuleContext:
    """Everything a rule needs to know about one parsed module.

    Constructing one is the linter's single front-end: the source is parsed
    once (``SyntaxError`` propagates) and the same context feeds the module
    rules and the dataflow fact extractor.
    """

    def __init__(self, path: str, source: str):
        self.path = path               #: path as reported in findings (posix)
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.suppressions = parse_suppressions(source)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        #: every import in the module, nested ones included
        self.imports = import_table(ast.walk(self.tree))
        self.numpy_aliases = {name for name, target in self.imports.items()
                              if target == "numpy"}

    # -- tree navigation ----------------------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_functions(self, node: ast.AST) -> list[ast.FunctionDef]:
        """Innermost-first chain of function definitions containing ``node``."""
        return [a for a in self.ancestors(node)
                if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))]

    # -- name resolution ----------------------------------------------------------
    def is_numpy_random_call(self, call: ast.Call, attrs: set[str]) -> str | None:
        """The matched attribute if ``call`` invokes ``numpy.random.<attr>``.

        Resolves ``import numpy as np`` / ``from numpy import random`` /
        ``from numpy.random import default_rng`` spellings.
        """
        name = dotted_name(call.func)
        if name is None or name.partition(".")[0] not in self.imports:
            return None
        module, _, attr = absolute_name(self.imports, name).rpartition(".")
        return attr if module == "numpy.random" and attr in attrs else None

    def path_is(self, *suffixes: str) -> bool:
        """True when the module path ends with any of the posix ``suffixes``."""
        return self.path.endswith(suffixes)

    # -- findings -----------------------------------------------------------------
    def finding(self, rule: Rule, node: ast.AST | int, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(path=self.path, line=line, rule=rule.id,
                       severity=rule.severity, message=message)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain (``super().m`` included), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "super":
        parts.append("super")
    else:
        return None
    return ".".join(reversed(parts))


def _relative_base(module: str, is_package: bool, level: int) -> str:
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)] if level - 1 <= len(parts) else []
    return ".".join(parts)


def import_table(nodes: Iterable[ast.AST], module: str = "",
                 is_package: bool = False) -> dict[str, str]:
    """Local name -> absolute dotted target for the imports among ``nodes``.

    Relative imports resolve against the dotted ``module`` name (a package
    when ``is_package``); a later binding of a name replaces an earlier one.
    """
    imports: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module, is_package, node.level)
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{target}.{alias.name}"
    return imports


def absolute_name(imports: dict[str, str], dotted: str) -> str:
    """``dotted`` with its head replaced by its :func:`import_table` target
    (unchanged when the head is not imported)."""
    head, _, rest = dotted.partition(".")
    if head in imports:
        return imports[head] + (("." + rest) if rest else "")
    return dotted


@dataclass
class LintResult:
    """Findings of one run, with the suppression bookkeeping kept visible."""

    findings: list[Finding]
    suppressed: list[Finding]
    errors: list[str]          #: unparseable files, reported not swallowed

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


class _UnusedSuppressionRule:
    """PL100 — a ``# privlint: disable=`` comment that silences nothing.

    Not a real AST rule: the engine synthesises these findings after every
    selected rule has run, ruff's unused-``noqa`` style.  Only rule ids that
    actually ran are judged — a suppression for an unselected rule is left
    alone."""

    id = "PL100"
    name = "unused-suppression"
    description = ("This `# privlint: disable=` comment suppresses nothing; "
                   "either the finding was fixed (delete the comment) or the "
                   "rule id is wrong (the real finding is escaping).")
    severity = "warning"


UNUSED_SUPPRESSION_RULE = _UnusedSuppressionRule()


def _apply_suppressions(raw: Iterable[Finding],
                        suppressions: dict[int, set[str]],
                        used: dict[int, set[str]],
                        findings: list[Finding],
                        suppressed: list[Finding]) -> None:
    for finding in raw:
        disabled = suppressions.get(finding.line, ())
        if "all" in disabled or finding.rule in disabled:
            suppressed.append(finding)
            bucket = used.setdefault(finding.line, set())
            if finding.rule in disabled:
                bucket.add(finding.rule)
            if "all" in disabled:
                bucket.add("all")
        else:
            findings.append(finding)


def _unused_suppression_findings(
        path: str, suppressions: dict[int, set[str]],
        used: dict[int, set[str]], active_ids: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    for line, declared in sorted(suppressions.items()):
        used_ids = used.get(line, set())
        if "all" in declared:
            unused = set() if used_ids else {"all"}
        else:
            unused = {i for i in declared & active_ids if i not in used_ids}
        if not unused:
            continue
        ids = ", ".join(sorted(unused))
        finding = Finding(
            path=path, line=line, rule=UNUSED_SUPPRESSION_RULE.id,
            severity=UNUSED_SUPPRESSION_RULE.severity,
            message=f"unused suppression ({ids}): no matching finding on "
                    f"this line — delete the comment or fix the rule id")
        disabled = suppressions.get(line, ())
        if UNUSED_SUPPRESSION_RULE.id not in disabled:
            findings.append(finding)
    return findings


def lint_source(source: str, path: str, rules: Sequence[Rule], *,
                report_unused: bool = False) -> LintResult:
    """Lint one in-memory module (the seam the tests and quickstart use)."""
    return _lint({path: source}, rules, (), report_unused, None, [])


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Iterable[str | Path], rules: Sequence[Rule], *,
               project_rules: Sequence[ProjectRule] = (),
               report_unused: bool = False,
               cache_path: str | Path | None = None) -> LintResult:
    """Lint every ``*.py`` under ``paths`` (files or directories).

    A file reached through several of ``paths`` is linted once.  Module
    rules run file-by-file; ``project_rules`` (PL007–PL010) run once over the
    whole file set through the interprocedural dataflow analysis, with
    per-module facts cached at ``cache_path`` when given.  With
    ``report_unused``, suppression comments that silenced nothing become
    PL100 warnings.
    """
    sources: dict[str, str] = {}
    errors: list[str] = []
    for posix in dict.fromkeys(p.as_posix() for p in iter_python_files(paths)):
        try:
            sources[posix] = Path(posix).read_text(encoding="utf-8")
        except OSError as exc:
            errors.append(f"{posix}: {exc}")
    return _lint(sources, rules, project_rules, report_unused, cache_path,
                 errors)


def _lint(sources: Mapping[str, str], rules: Sequence[Rule],
          project_rules: Sequence[ProjectRule], report_unused: bool,
          cache_path: str | Path | None, errors: list[str]) -> LintResult:
    """Parse each ``{path: source}`` once; that one parse feeds the module
    rules and the dataflow facts the project rules are checked against."""
    from . import dataflow

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    suppressions: dict[str, dict[int, set[str]]] = {}
    usage: dict[str, dict[int, set[str]]] = {}
    facts: dict[str, dataflow.ModuleFacts] = {}
    cache = dataflow.FactsCache(cache_path) if project_rules else None
    for path, source in sources.items():
        try:
            module = ModuleContext(path, source)
        except SyntaxError as exc:
            errors.append(f"{path}: syntax error: {exc}")
            continue
        suppressions[path] = module.suppressions
        usage[path] = {}
        for rule in rules:
            _apply_suppressions(rule.check(module), module.suppressions,
                                usage[path], findings, suppressed)
        # Facts are taken now, so only one parsed tree is alive at a time.
        if project_rules:
            facts[path] = dataflow.module_facts(path, module, cache)
    if facts:
        # Looked up on the module at call time, so a wrapped
        # ``dataflow.analyze_sources`` (tracing) sees this call.
        analysis = dataflow.analyze_sources(facts, cache=cache)
        for project_rule in project_rules:
            for finding in project_rule.check_project(analysis):
                _apply_suppressions(
                    [finding], suppressions[finding.path],
                    usage[finding.path], findings, suppressed)
    if report_unused:
        active = {rule.id for rule in (*rules, *project_rules)}
        for path, declared in suppressions.items():
            findings.extend(_unused_suppression_findings(
                path, declared, usage[path], active))
    findings.sort()
    suppressed.sort()
    return LintResult(findings, suppressed, errors)
