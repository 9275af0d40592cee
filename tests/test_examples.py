"""Smoke tests: every example script runs to completion.

Each takes about two seconds or less.  ``churn_and_loss.py`` is the one
program outside the tests that drives ``GilbertElliottLoss``, on the
``SendForget`` object path.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = [
    "quickstart.py",
    "gossip_aggregation.py",
    "churn_and_loss.py",
    "deployment_sizing.py",
]


class TestExamplesExist:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_present_and_parseable(self, name):
        path = EXAMPLES_DIR / name
        assert path.exists()
        source = path.read_text()
        compile(source, str(path), "exec")  # syntax check
        assert '"""' in source  # documented
        assert "def main()" in source

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_without_running(self, name):
        spec = importlib.util.spec_from_file_location(
            name.removesuffix(".py"), EXAMPLES_DIR / name
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # guarded by __main__, so no run
        assert hasattr(module, "main")


class TestFastExamplesRun:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_runs_successfully(self, name):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip()
