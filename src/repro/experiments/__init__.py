"""Per-figure/table experiment runners.

Each module reproduces one artifact of the paper's evaluation and
declares it as an :class:`repro.experiments.registry.ExperimentSpec`
(paper anchor, ``points(...)`` builder, ``fast`` preset, per-point cell,
aggregate): the registry — which finds the modules by importing this
package — is the single index the CLI's ``list``/``run``/``report``
build on, and execution always routes through
:class:`repro.runner.SweepRunner`.
Every result object carries the raw series plus a ``format()`` method
printing the same rows/series the paper reports.
:func:`repro.experiments.registry.execute` is the only entry point
(every module exposes one public ``points(...)`` builder for its
``points=`` argument); the acceptance tests under
``benchmarks/`` are thin printing wrappers around it.  See
``docs/paper_map.md`` ("Experiment registry")
for the index and ``EXPERIMENTS.md`` for the add-an-experiment
walkthrough.
"""

from repro.experiments.common import build_sf_system, warm_up

__all__ = ["build_sf_system", "warm_up"]
