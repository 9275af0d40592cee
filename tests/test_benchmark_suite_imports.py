"""Every ``repro`` name the benchmark workloads import still exists.

``benchmarks/suite/`` defines the gated metrics, so its files change only
with its metric vocabulary, and its own smoke test lives outside
``testpaths``.  This reads each ``wl_*.py`` — module-level and
function-local ``from repro… import …`` statements alike — and resolves
every name, so retiring a name the suite still imports fails in tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.kernel import jit_available

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "suite"


def _suite_imports():
    found = set()
    for path in sorted(SUITE.glob("wl_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module.partition(".")[0] == "repro":
                found.update((path.name, node.module, a.name) for a in node.names)
    return sorted(found)


IMPORTS = _suite_imports()


def test_the_workload_imports_are_found():
    assert ("wl_sim_array.py", "repro.kernel", "jit_available") in IMPORTS


@pytest.mark.parametrize(
    "path,module,name", IMPORTS, ids=[f"{p}:{m}.{n}" for p, m, n in IMPORTS]
)
def test_imported_name_resolves(path, module, name):
    parent = importlib.import_module(module)
    if not hasattr(parent, name):
        importlib.import_module(f"{module}.{name}")  # a submodule


def test_retired_jit_backend_reports_unavailable():
    """``wl_sim_array.py`` times a ``jit`` sibling only when this is true."""
    assert jit_available() is False
