"""Declarative experiment registry: every experiment as data, not code.

The paper's evaluation is a catalog of parameterized experiments
(Figures 6.1–6.4, Tables 6.3/6.4, the section 7 lemmas).  Instead of one
hand-written CLI shim per experiment, each experiment module declares an
:class:`ExperimentSpec` — *what* to run, not *how* to run it:

* ``points(**kwargs)`` — the module's public grid builder: called bare
  it returns the full preset, and its keyword arguments are what a
  caller may vary.  Points are plain picklable values (dicts of
  primitives by convention); a point carrying a ``"seed"`` key seeds
  its cell.
* ``fast`` — the CI-sized preset as data: the keyword arguments that
  turn ``points`` into the ``--fast`` grid (``spec.grid(fast)``).
* ``cell(point, seed, *, backend)`` — one unit of work: a pure function
  of its point (and seed/backend), returning a picklable record.
* ``aggregate(points, records)`` — assemble the per-cell records into
  the experiment's result object.  :func:`execute` hands it only the
  cells that produced a record (see the skip rule there).

Execution always goes through :class:`repro.runner.SweepRunner`, so
*every* experiment — the analytic one-cell ones included — inherits
``--jobs``, ``--on-error``, ``--cell-timeout``, and ``--checkpoint-dir``
for free.  Registration is one decorator, and the
registry finds the module by importing all of :mod:`repro.experiments`::

    @experiment(
        "fig-9.9",
        anchor="Figure 9.9",
        description="one-line summary for `repro list`",
        points=points,
        fast=dict(n=100, rounds=50),
        aggregate=_aggregate,
        backend_sensitive=True,
    )
    def _cell(point, seed, *, backend="reference"):
        ...

Results follow a uniform protocol: every aggregate returns an object
with ``format() -> str`` (the paper-style text report), and
:meth:`ExperimentSpec.to_json` wraps any result in a versioned JSON
envelope (``schema_version`` guards artifact compatibility) for the
CLI's ``--artifacts-dir`` / ``report`` outputs.

Workers resolve specs *by name* inside the worker process (the registry
imports the experiment modules lazily), so cells fan out over a process
pool without any of the spec's callables needing to be pickled.
"""

from __future__ import annotations

import importlib
import pkgutil
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.obs import get_telemetry
from repro.obs.profile import phase
from repro.runner import GridCell, SweepRunner


@runtime_checkable
class Result(Protocol):
    """What every experiment's aggregate must return."""

    def format(self) -> str:
        """The human-readable report (the paper-style rows/series)."""
        ...  # pragma: no cover - protocol


#: ``cell(point, seed, *, backend) -> record``.
CellFn = Callable[..., Any]
#: ``aggregate(points, records) -> Result`` over the cells that produced
#: a record (never ``None``, never empty).
AggregateFn = Callable[[Sequence[Any], Sequence[Any]], Any]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of the paper's catalog, as data.

    Attributes:
        name: canonical CLI id (e.g. ``"fig-6.3"``).
        anchor: where in the paper this experiment lives (e.g.
            ``"Figure 6.3 / §6.4 in-text table"``).
        description: one-line summary shown by ``repro list``.
        points: the module's ``points(**kwargs)`` builder (bare: the full preset).
        cell: ``cell(point, seed, *, backend)`` — the per-point worker.
        aggregate: ``aggregate(points, records)`` building the result.
        fast: keyword arguments turning ``points`` into the ``--fast`` preset.
        schema_version: version stamped into the JSON artifact envelope;
            bump when the result's serialized shape changes.
        aliases: alternative CLI names resolving to this spec (e.g. the
            §6.4 in-text table is Figure 6.3's moment summary).
        backend_sensitive: whether ``cell`` actually uses the simulation
            ``backend``.  A non-default ``--backend`` on an insensitive
            experiment warns instead of silently no-oping.
    """

    name: str
    anchor: str
    description: str
    points: Callable[..., Sequence[Any]]
    cell: CellFn
    aggregate: AggregateFn
    fast: Mapping[str, Any] = field(default_factory=dict)
    schema_version: int = 1
    aliases: Tuple[str, ...] = ()
    backend_sensitive: bool = False

    @property
    def module(self) -> str:
        """The module defining this experiment's cell."""
        return self.cell.__module__

    def grid(self, fast: bool) -> Sequence[Any]:
        """The parameter points of the full or the ``fast`` preset."""
        return self.points(**self.fast) if fast else self.points()

    def to_json(
        self, result: Any, runner: Optional[SweepRunner] = None
    ) -> Dict[str, Any]:
        """Wrap ``result`` in the versioned JSON artifact envelope.

        With ``runner``, the envelope also carries a ``sweep`` section —
        the runner's :attr:`~repro.runner.SweepRunner.last_stats` and
        :attr:`~repro.runner.SweepRunner.last_failures` — so an artifact
        records not just the result but how its sweep went (skips,
        timeouts, pool rebuilds).
        """
        from repro.util.serialization import to_jsonable

        envelope = {
            "experiment": self.name,
            "anchor": self.anchor,
            "schema_version": self.schema_version,
            "result": to_jsonable(result),
        }
        if runner is not None:
            envelope["sweep"] = {
                "last_stats": to_jsonable(runner.last_stats),
                "last_failures": [
                    to_jsonable(failure) for failure in runner.last_failures
                ],
            }
        return envelope

    def describe(self) -> Dict[str, Any]:
        """Registry metadata as a JSON-safe dict (``repro list --json``)."""
        return {
            "name": self.name,
            "anchor": self.anchor,
            "description": self.description,
            "aliases": list(self.aliases),
            "schema_version": self.schema_version,
            "backend_sensitive": self.backend_sensitive,
            "module": self.module,
        }


class UnknownExperimentError(KeyError):
    """No registered experiment (or alias) has the requested name."""


_SPECS: Dict[str, ExperimentSpec] = {}
_ALIASES: Dict[str, str] = {}
_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry; name and alias collisions raise."""
    for name in (spec.name, *spec.aliases):
        owner = _SPECS.get(name) or (
            _SPECS.get(_ALIASES[name]) if name in _ALIASES else None
        )
        if owner is not None and owner.name != spec.name:
            raise ValueError(
                f"experiment name {name!r} already registered by "
                f"{owner.module}:{owner.name}"
            )
    _SPECS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def experiment(
    name: str,
    *,
    anchor: str,
    points: Callable[..., Sequence[Any]],
    aggregate: AggregateFn,
    fast: Optional[Mapping[str, Any]] = None,
    description: str = "",
    schema_version: int = 1,
    aliases: Sequence[str] = (),
    backend_sensitive: bool = False,
) -> Callable[[CellFn], CellFn]:
    """Register the decorated cell function as experiment ``name``.

    Returns the cell unchanged, so modules can keep calling it directly.
    """

    def decorate(cell: CellFn) -> CellFn:
        register(
            ExperimentSpec(
                name=name,
                anchor=anchor,
                description=description
                or (cell.__doc__ or "").strip().splitlines()[0].rstrip("."),
                points=points,
                cell=cell,
                aggregate=aggregate,
                fast=fast or {},
                schema_version=schema_version,
                aliases=tuple(aliases),
                backend_sensitive=backend_sensitive,
            )
        )
        return cell

    return decorate


def _load_all() -> None:
    """Import every module of this package, in name order, so their
    decorators have run (``common`` and this module register nothing)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    package = importlib.import_module(__package__)
    for name in sorted(info.name for info in pkgutil.iter_modules(package.__path__)):
        importlib.import_module(f"{__package__}.{name}")


def get(name: str) -> ExperimentSpec:
    """The spec registered under ``name`` (aliases resolve)."""
    _load_all()
    spec = _SPECS.get(name)
    if spec is None and name in _ALIASES:
        spec = _SPECS[_ALIASES[name]]
    if spec is None:
        raise UnknownExperimentError(name)
    return spec


def names(include_aliases: bool = False) -> List[str]:
    """Sorted canonical experiment names (optionally plus aliases)."""
    _load_all()
    all_names = list(_SPECS)
    if include_aliases:
        all_names.extend(_ALIASES)
    return sorted(all_names)


def aliases() -> Dict[str, str]:
    """``alias -> canonical name`` for every registered alias."""
    _load_all()
    return dict(_ALIASES)


def list_specs() -> List[ExperimentSpec]:
    """Every registered spec, sorted by canonical name."""
    _load_all()
    return [_SPECS[name] for name in sorted(_SPECS)]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _CellContext:
    """Shared per-sweep configuration handed to every worker call."""

    experiment: str
    backend: str = "reference"


def _spec_worker(cell: GridCell, context: _CellContext) -> Any:
    """Sweep worker: resolve the spec by name and run one cell.

    Module-level (picklable); resolution happens *inside* the worker
    process, so spec callables never cross the process boundary.
    """
    spec = get(context.experiment)
    return spec.cell(cell.point, cell.seed, backend=context.backend)


def _point_seed(point: Any, replication: int) -> Optional[int]:
    """Default seed derivation: a dict point's ``"seed"`` key, else none.

    Experiments embed per-cell seeds in their points (including derived
    ones such as ``seed + replication``), which keeps
    every point self-contained — the property checkpoint keys and
    process-pool workers rely on.
    """
    if isinstance(point, dict):
        seed = point.get("seed")
        return None if seed is None else int(seed)
    return None


def execute(
    name_or_spec: Any,
    *,
    fast: bool = False,
    backend: Optional[str] = None,
    runner: Optional[SweepRunner] = None,
    jobs: Optional[int] = None,
    executor: str = "auto",
    points: Optional[Sequence[Any]] = None,
) -> Any:
    """Run one experiment end to end: grid → cells → aggregate.

    The only way in.  ``points`` overrides the spec's ``grid(fast)`` —
    usually the module's ``points(...)`` builder with other keyword
    values (any list of points is legal) — e.g.::

        execute("fig-6.3", points=fig_6_3.points(losses=(0.01,)))

    Cells run through a :class:`SweepRunner` in grid order.  A cell that
    comes back ``None`` — skipped under ``on_error="skip"``, or its own
    "no row" — is dropped with its point before the aggregate runs;
    when none survive this raises ``RuntimeError``.  A preconfigured
    ``runner`` (jobs, ``on_error``, timeout, checkpoint, executor)
    overrides ``jobs``/``executor`` (``auto``/``inline``/``process``/
    ``thread``) and stays open for the caller's next experiment; a runner
    built here is closed before returning.
    """
    spec = name_or_spec if isinstance(name_or_spec, ExperimentSpec) else get(
        name_or_spec
    )
    backend = backend or "reference"
    if backend != "reference" and not spec.backend_sensitive:
        warnings.warn(
            f"experiment {spec.name!r} is analytic: backend={backend!r} "
            "does not affect it",
            RuntimeWarning,
            stacklevel=2,
        )
    tel = get_telemetry()
    tel.event("experiment.start", experiment=spec.name, fast=fast)
    if points is None:
        with phase("grid_build"):
            points = spec.grid(fast)
    points = list(points)
    if not points:
        raise ValueError(f"experiment {spec.name!r} produced an empty grid")
    with (
        nullcontext(runner)
        if runner is not None
        else SweepRunner(jobs=jobs, executor=executor)
    ) as active:
        records = active.run(
            _spec_worker,
            points,
            seed_fn=_point_seed,
            context=_CellContext(experiment=spec.name, backend=backend),
        )
    kept = [index for index, record in enumerate(records) if record is not None]
    if not kept:
        raise RuntimeError(
            f"every cell of experiment {spec.name!r} was skipped; "
            "nothing to report"
        )
    with phase("aggregate"):
        result = spec.aggregate(
            [points[index] for index in kept], [records[index] for index in kept]
        )
    tel.event("experiment.end", experiment=spec.name, cells=len(points))
    return result


def single_record(points: Sequence[Any], records: Sequence[Any]) -> Any:
    """Aggregate for one-cell experiments: the lone record, verbatim."""
    return records[0]
