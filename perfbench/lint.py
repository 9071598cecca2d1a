"""``lint``: a cold in-process privlint run over the repository's own tree.

One pass lints ``src`` against ``privlint-baseline.json`` and ``benchmarks``
plus ``tests`` against ``privlint-test-baseline.json``, exactly as CI does but
without the summary cache, so every pass parses and analyses every file.
Both runs must exit 0.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

from .common import PassResult, no_tick

RUNS = (
    (("src",), "privlint-baseline.json"),
    (("benchmarks", "tests"), "privlint-test-baseline.json"),
)


class LintWorkload:
    name = "lint"
    imports = "import repro.privlint.cli"
    unit = "klines"

    def __init__(self, seed: int, out_dir: Path, runs=RUNS):
        from repro.privlint.engine import iter_python_files

        # The seed is unused: the input is the repository's own source tree.
        self.runs = runs
        self.files = sum(1 for paths, _ in runs for _ in iter_python_files(paths))
        self.findings = 0
        self.klines = sum(
            path.read_text(encoding="utf-8").count("\n")
            for paths, _ in runs for path in iter_python_files(paths)) / 1e3

    def run_pass(self, tracer=None, tick=no_tick) -> PassResult:
        from repro.privlint.cli import main

        result = PassResult(attempted=len(self.runs), work=self.klines)
        outputs = []
        for paths, baseline in self.runs:
            tick()
            out = io.StringIO()
            start = time.perf_counter()
            status = main([*paths, "--baseline", baseline, "--format", "json"], out=out)
            result.seconds += time.perf_counter() - start
            outputs.append(out.getvalue())
            if status != 0:
                result.fail(f"privlint {' '.join(paths)} exited {status}")
        result.add_op(result.seconds)
        # Findings the rules reported, before baseline filtering.
        self.findings = sum(counts["findings"] + counts["baselined"]
                            for counts in (json.loads(o)["counts"] for o in outputs if o))
        return result

    def layer_metrics(self, tracer, passes: int) -> dict[str, float]:
        return {
            "lint.module_rules_s": tracer.self_seconds("lint.lint_paths") / passes,
            "lint.dataflow_s": tracer.self_seconds("lint.dataflow") / passes,
            "lint.files": self.files,
            "lint.findings": self.findings,
        }

    def report(self, tracer=None) -> list[str]:
        return [f"lint: {self.files} files, {self.klines:.1f} klines, "
                f"{self.findings} findings before baselines"]
