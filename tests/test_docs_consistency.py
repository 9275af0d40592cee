"""The prose and the committed artifacts describe the code that exists.

Three kinds of reference rot, each checked per file so a failure names
the file to fix:

* a module path (`core/sandf.py`) or dotted name (`repro.net.wire.encode`)
  quoted in a document that no longer resolves;
* a ``repro run <id>`` in a document or in CI naming no registered
  experiment;
* a committed ``benchmarks/results/*.txt`` that no benchmark writes any
  more, or a benchmark whose output was never committed.

``CHANGES.md`` and ``ROADMAP.md`` are history: they may name what has
since been deleted, so they are not read here.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments import registry

REPO = Path(__file__).resolve().parent.parent
DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    *sorted((REPO / "docs").glob("*.md")),
]
BENCHMARKS = REPO / "benchmarks"
RESULTS = BENCHMARKS / "results"

#: `core/sandf.py`, `src/repro/net/loss.py`, `benchmarks/test_invariants.py`
FILE_REF = re.compile(r"`([A-Za-z_][\w./-]*\.py)\b")
#: `repro.net.wire`, `repro.kernel.array.ROW_BLOCK`
DOTTED_REF = re.compile(r"`(repro(?:\.\w+)+)")
RUN_REF = re.compile(r"repro run (\w[\w.-]*)")
#: An experiment a document declares itself, as a worked example.
EXAMPLE_SPEC = re.compile(r"registry\.experiment\(\s*\"([\w.-]+)\"")


def _doc_id(path: Path) -> str:
    return str(path.relative_to(REPO))


def _resolves(dotted: str) -> bool:
    """The longest importable prefix, then attributes for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=_doc_id)
def test_quoted_file_paths_exist(doc):
    """Paths are relative to the repo, to ``src/`` or to ``src/repro/``."""
    bases = (REPO, REPO / "src", REPO / "src" / "repro")
    missing = [
        ref
        for ref in sorted(set(FILE_REF.findall(doc.read_text(encoding="utf-8"))))
        if not any((base / ref).exists() for base in bases)
    ]
    assert not missing, f"{_doc_id(doc)} quotes files that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=_doc_id)
def test_quoted_dotted_names_resolve(doc):
    refs = sorted(set(DOTTED_REF.findall(doc.read_text(encoding="utf-8"))))
    missing = [ref for ref in refs if not _resolves(ref)]
    assert not missing, f"{_doc_id(doc)} quotes names that do not resolve: {missing}"


@pytest.mark.parametrize(
    "doc", [*DOCS, REPO / ".github" / "workflows" / "ci.yml"], ids=_doc_id
)
def test_run_commands_name_registered_experiments(doc):
    text = doc.read_text(encoding="utf-8")
    known = set(registry.names(include_aliases=True)) | set(EXAMPLE_SPEC.findall(text))
    unknown = sorted(set(RUN_REF.findall(text)) - known)
    assert not unknown, f"{_doc_id(doc)} runs unknown experiments: {unknown}"


# ----------------------------------------------------------------------
# benchmarks/results/ ↔ benchmarks/test_*.py
# ----------------------------------------------------------------------


def _load_benchmark_conftest():
    loader = importlib.util.spec_from_file_location(
        "benchmarks_conftest", BENCHMARKS / "conftest.py"
    )
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _emit_titles(path: Path) -> list:
    """The literal titles a benchmark file passes to ``emit``."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "emit"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


BENCHMARK_FILES = sorted(BENCHMARKS.glob("test_*.py"))
RESULT_FILES = sorted(RESULTS.glob("*.txt"))


@pytest.fixture(scope="module")
def written_results(tmp_path_factory):
    """``{benchmark file name: [result file names its emit calls write]}``,
    computed by ``benchmarks/conftest.emit`` itself into a scratch dir."""
    conftest = _load_benchmark_conftest()
    written = {}
    for path in BENCHMARK_FILES:
        conftest.RESULTS_DIR = tmp_path_factory.mktemp(path.stem)
        for title in _emit_titles(path):
            conftest.emit(title, "")
        written[path.name] = sorted(p.name for p in conftest.RESULTS_DIR.iterdir())
    return written


@pytest.mark.parametrize("bench_file", BENCHMARK_FILES, ids=lambda p: p.name)
def test_benchmark_output_is_committed(bench_file, written_results):
    names = written_results[bench_file.name]
    assert names, f"{bench_file.name} emits no result"
    missing = [name for name in names if not (RESULTS / name).exists()]
    assert not missing, f"{bench_file.name} writes uncommitted results: {missing}"


@pytest.mark.parametrize("result", RESULT_FILES, ids=lambda p: p.name)
def test_committed_result_has_a_benchmark(result, written_results):
    writers = [name for name, files in written_results.items() if result.name in files]
    assert writers, f"no benchmark writes {result.name}: delete it with its benchmark"
    assert len(writers) == 1, f"{result.name} is written by {writers}"
