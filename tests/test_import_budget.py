"""The start-up budget, as a property of ``sys.modules`` rather than a timing.

``python -m repro list`` is what a user waits for first; it must not pay
for ``scipy.stats``, ``scipy.linalg``, ``scipy.sparse`` or ``networkx``,
which only three groups of functions call.  A child interpreter (this file, run as a
script) imports the package, the CLI and every experiment module and
reports which of those libraries it holds; it then makes one call into
each deferred library and reports the values, which must equal what this
process — where all three are imported up front, as they were at module
level before — computes for the same calls.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys

DEFERRED = ("scipy", "networkx")


def _deferred_loaded():
    return sorted(name for name in sys.modules if name.startswith(DEFERRED))


def _probe():
    """One call through each deferred import, as JSON-safe values."""
    from repro.core.params import SFParams
    from repro.markov.degree_mc import DegreeMarkovChain
    from repro.metrics.graph_stats import graph_statistics
    from repro.model.membership_graph import MembershipGraph
    from repro.util.stats import binomial_pmf

    solved = DegreeMarkovChain(SFParams(view_size=8, d_low=2), 0.05).solve(cache=False)
    overlay = MembershipGraph.from_edges(
        [(u, (u + k) % 7) for u in range(7) for k in (1, 2)]
    )
    return {
        "binomial_pmf": binomial_pmf(3, 10, 0.3),
        "stationary": solved.stationary.tolist(),
        "graph_statistics": dataclasses.asdict(graph_statistics(overlay)),
    }


def _child():
    import repro  # noqa: F401
    from repro import cli
    from repro.experiments import registry

    registry.list_specs()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["list"]) == 0
    at_startup = _deferred_loaded()
    from repro.core.params import SFParams
    from repro.markov.degree_mc import DegreeMarkovChain

    DegreeMarkovChain(SFParams(view_size=8, d_low=2), 0.05).solve(cache=False)
    after_solve = _deferred_loaded()
    values = _probe()
    print(json.dumps({
        "at_startup": at_startup,
        "after_solve": after_solve,
        "after_use": _deferred_loaded(),
        "values": values,
    }))


def test_listing_imports_no_scipy_or_networkx_and_first_use_loads_them(child_env):
    import networkx  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.stats  # noqa: F401

    done = subprocess.run(
        [sys.executable, __file__],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["at_startup"] == []
    # A degree-MC solve is banded ``scipy.linalg`` calls and nothing else
    # of scipy: no ``scipy.sparse``, whose direct solver it used to load.
    assert "scipy.linalg" in report["after_solve"]
    assert [
        name for name in report["after_solve"]
        if name.startswith(("scipy.sparse", "scipy.stats", "networkx"))
    ] == []
    for module in ("scipy.stats", "scipy.linalg", "networkx"):
        assert module in report["after_use"]
    assert report["values"] == _probe()


def test_repro_list_command_holds_no_scipy_module(child_env):
    """The real command, not ``cli.main`` in a prepared interpreter."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "list"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "repro.markov.degree_mc" in imported
    assert [name for name in imported if name.startswith(DEFERRED)] == []


def test_no_runtime_or_command_imports_the_failure_detector(child_env):
    """A crash is a silent leave (section 4.1): the live cluster arms no
    detector, so ``repro.failure`` stays a library only the benchmark
    suite's probes load."""
    code = (
        "import sys, repro.cli, repro.runtime\n"
        "from repro.experiments import registry\n"
        "registry.list_specs()\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.failure')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


if __name__ == "__main__":
    _child()
