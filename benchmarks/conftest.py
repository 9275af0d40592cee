"""Benchmark-suite configuration.

Every benchmark reproduces one figure/table of the paper (see DESIGN.md's
experiment index), prints the corresponding rows/series, and asserts the
paper's shape claims.  Each runs its experiment exactly once, as a plain
pytest test; timing is ``benchmarks/suite``'s job.

:func:`emit` both prints an experiment's output (bypassing pytest's
capture, so the tables appear in the normal benchmark run) and writes it
to ``benchmarks/results/<slug>.txt`` as a durable artifact.
"""

from __future__ import annotations

import re
from pathlib import Path

_CAPTURE_MANAGER = None
RESULTS_DIR = Path(__file__).parent / "results"


def pytest_configure(config):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = config.pluginmanager.getplugin("capturemanager")


def emit(title: str, body: str) -> None:
    """Print an experiment's output block and save it under results/."""
    bar = "=" * 72
    text = f"\n{bar}\n{title}\n{bar}\n{body}\n"

    RESULTS_DIR.mkdir(exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:60]
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")

    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(text)
    else:
        print(text)
