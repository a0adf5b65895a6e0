"""Benchmark-suite infrastructure.

Every benchmark regenerates one table or figure of the paper and registers
its formatted rows through :func:`record_result`. A terminal-summary hook
prints all registered outputs at the end of the run (so the regenerated
series appear in ``pytest benchmarks/ --benchmark-only`` output even with
stdout capture active) and writes them under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
from pathlib import Path

_RESULTS: list[tuple[str, str]] = []
_RESULTS_DIR = Path(__file__).parent / "results"
_REPO_ROOT = Path(__file__).parent.parent


def record_result(name: str, text: str) -> None:
    """Register a regenerated table/figure for the end-of-run report."""
    _RESULTS.append((name, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def record_json(name: str, payload: dict,
                section: str | None = None) -> None:
    """Write a machine-readable summary to ``BENCH_<name>.json`` at the
    repo root.

    The pytest-benchmark ``--benchmark-json`` dumps only ever lived as
    workflow artifacts, which expire — so perf history was invisible
    across PRs. These compact summaries are committed with the change
    that produced them, giving every scale point a tracked trajectory
    in plain git log. With ``section`` the payload replaces only that
    top-level key, so several gates can share one file.
    """
    path = _REPO_ROOT / f"BENCH_{name}.json"
    if section is not None:
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
        payload = {**existing, section: payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("regenerated paper tables and figures")
    for name, text in _RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"==== {name} ====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
