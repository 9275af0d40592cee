"""Registry completeness: every experiment is a well-formed, runnable spec.

The contract tested here is what the CLI and CI rely on:

* every experiment module registers a spec (none left behind);
* every spec names its paper anchor and carries a CI-runnable fast grid
  of picklable points;
* execution always routes through :class:`repro.runner.SweepRunner`
  (so --jobs/--on-error/--cell-timeout/--checkpoint-dir apply to all);
* the JSON artifact envelope round-trips under the declared schema
  version;
* ``registry.execute`` is the only way in (no module-level ``run``), and
  no grid point of either preset ever moves: checkpoint keys hash
  ``repr(point)`` and ``--fast`` output is a function of the points, so
  ``tests/data/grid_points.json`` pins a digest of every point list;
* no checkpoint key moves either: ``tests/data/checkpoint_keys.json``
  pins a digest of every spec's cell keys, so a journal written by an
  earlier tree resumes, whatever else is registered beside the spec;
* docs/paper_map.md ties every spec's module to a paper item.

To regenerate the digests after an *intentional* grid change::

    PYTHONPATH=src:tests python -c \
        "import test_experiments_registry as t; t.write_grid_golden()"

and after an intentional change of the checkpoint key (which orphans
every journal)::

    PYTHONPATH=src:tests python -c \
        "import test_experiments_registry as t; t.write_checkpoint_golden()"
"""

import hashlib
import importlib
import importlib.util
import inspect
import json
import pickle
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments
from repro import cli
from repro.experiments import registry
from repro.runner import SweepRunner
from repro.runner.checkpoint import CheckpointStore

ALL_SPECS = registry.list_specs()

#: Every module the registry's discovery imports, minus the two that are
#: scaffolding (they register nothing).
DISCOVERED_MODULES = [
    f"repro.experiments.{info.name}"
    for info in pkgutil.iter_modules(repro.experiments.__path__)
    if info.name not in ("common", "registry")
]

#: Specs cheap enough to execute end-to-end in the test suite (analytic
#: or tiny: no steady-state simulation in their fast grid).
CHEAP_FAST = [
    "fig-6.1",
    "fig-6.2",
    "table-6.3",
    "fig-6.3",
    "fig-6.4",
    "mixing-exact",
    "loss-sweep",
    "parameter-sweep",
    "connectivity",
]


GRID_GOLDEN_PATH = Path(__file__).parent / "data" / "grid_points.json"
PAPER_MAP = Path(__file__).resolve().parent.parent / "docs" / "paper_map.md"


def _grid_digests() -> dict:
    """``{spec: {preset: sha256}}`` over the canonical JSON of each grid.

    Keys are *not* sorted: ``repr(point)`` (what a checkpoint key hashes)
    depends on insertion order, so the digest must too.
    """
    return {
        spec.name: {
            preset: hashlib.sha256(
                json.dumps(
                    list(spec.grid(fast)), separators=(",", ":"), allow_nan=False
                ).encode("utf-8")
            ).hexdigest()
            for preset, fast in (("fast", True), ("full", False))
        }
        for spec in ALL_SPECS
    }


def write_grid_golden() -> None:
    GRID_GOLDEN_PATH.write_text(
        json.dumps(_grid_digests(), indent=2, sort_keys=True) + "\n"
    )


CHECKPOINT_GOLDEN_PATH = Path(__file__).parent / "data" / "checkpoint_keys.json"


def _checkpoint_digest(spec, fast: bool) -> str:
    """sha256 over the journal keys ``registry.execute`` gives the cells of
    ``spec.grid(fast)`` on the default backend, in grid order."""
    store = CheckpointStore(Path("unused"))  # cell_key touches no file
    context = registry._CellContext(experiment=spec.name)
    cells = SweepRunner._build_cells(
        list(spec.grid(fast)), 1, None, registry._point_seed
    )
    keys = [store.cell_key(registry._spec_worker, cell, context) for cell in cells]
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


def write_checkpoint_golden() -> None:
    CHECKPOINT_GOLDEN_PATH.write_text(
        json.dumps(
            {
                spec.name: {
                    preset: _checkpoint_digest(spec, fast)
                    for preset, fast in (("fast", True), ("full", False))
                }
                for spec in ALL_SPECS
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


class RecordingRunner(SweepRunner):
    """A serial runner that counts how often the registry invokes it."""

    def __init__(self):
        super().__init__(jobs=1)
        self.calls = 0

    def run(self, worker, points, **kwargs):
        self.calls += 1
        return super().run(worker, points, **kwargs)


class TestRegistryShape:
    def test_every_experiment_module_registers(self):
        registered = {spec.module for spec in ALL_SPECS}
        assert registered == set(DISCOVERED_MODULES)
        assert len(DISCOVERED_MODULES) == 20

    def test_dropped_in_module_is_discovered(self, tmp_path, monkeypatch):
        """New experiment: one file — nothing in ``registry.py`` lists it."""
        (tmp_path / "zz_dropped_in.py").write_text(
            "from repro.experiments import registry\n"
            "def points():\n"
            "    return [{'x': 1}]\n"
            "@registry.experiment('zz-dropped-in', anchor='nowhere',\n"
            "                     description='found by discovery', points=points,\n"
            "                     aggregate=registry.single_record)\n"
            "def _cell(point, seed, *, backend='reference'):\n"
            "    return point['x']\n"
        )
        monkeypatch.setattr(
            repro.experiments, "__path__",
            [*repro.experiments.__path__, str(tmp_path)],
        )
        monkeypatch.setattr(registry, "_SPECS", dict(registry._SPECS))
        monkeypatch.setattr(registry, "_LOADED", False)
        try:
            assert "zz-dropped-in" in registry.names()
            assert registry.execute("zz-dropped-in") == 1
        finally:
            sys.modules.pop("repro.experiments.zz_dropped_in", None)
            vars(repro.experiments).pop("zz_dropped_in", None)

    def test_docs_table_matches_registry(self):
        """The check CI's ``registry-docs`` job runs, in tier-1."""
        repo = Path(__file__).resolve().parent.parent
        loader = importlib.util.spec_from_file_location(
            "check_registry_docs", repo / "tools" / "check_registry_docs.py"
        )
        check = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(check)
        expected = check.registry_entries([spec.describe() for spec in ALL_SPECS])
        documented = check.parse_docs_table(
            (repo / "docs" / "paper_map.md").read_text(encoding="utf-8")
        )
        assert check.diff(expected, documented) == []

    def test_every_spec_has_anchor_description_and_schema(self):
        for spec in ALL_SPECS:
            assert spec.anchor.strip(), spec.name
            assert spec.description.strip(), spec.name
            assert spec.schema_version >= 1

    def test_names_are_unique_canonical_ids(self):
        names = registry.names()
        assert len(names) == len(set(names)) == len(ALL_SPECS)

    def test_grids_nonempty_and_picklable(self):
        for spec in ALL_SPECS:
            for fast in (True, False):
                points = list(spec.grid(fast))
                assert points, f"{spec.name} grid(fast={fast}) is empty"
                pickle.dumps(points)  # process-pool workers require this

    def test_fast_grid_never_larger_than_full(self):
        for spec in ALL_SPECS:
            assert len(list(spec.grid(True))) <= len(list(spec.grid(False)))

    def test_alias_resolves_to_canonical_spec(self):
        assert registry.get("table-6.4") is registry.get("fig-6.3")
        assert registry.aliases() == {"table-6.4": "fig-6.3"}
        assert "table-6.4" not in registry.names()
        assert "table-6.4" in registry.names(include_aliases=True)

    def test_unknown_name_raises(self):
        with pytest.raises(registry.UnknownExperimentError):
            registry.get("fig-0.0")

    def test_duplicate_registration_rejected(self):
        spec = registry.get("fig-6.1")
        clash = registry.ExperimentSpec(
            name="brand-new",
            anchor="nowhere",
            description="clashes via alias",
            points=spec.points,
            cell=spec.cell,
            aggregate=spec.aggregate,
            aliases=("fig-6.1",),
        )
        with pytest.raises(ValueError):
            registry.register(clash)

    def test_point_seed_convention(self):
        assert registry._point_seed({"seed": 7}, 0) == 7
        assert registry._point_seed({"loss": 0.1}, 0) is None
        assert registry._point_seed((1, 2), 0) is None

    def test_registry_is_the_only_way_in(self):
        """No module keeps a second, keyword-argument spelling of its grid."""
        for module_name in DISCOVERED_MODULES:
            module = importlib.import_module(module_name)
            for shim in ("run", "run_decay", "run_empirical", "_grid"):
                assert not hasattr(module, shim), f"{module_name}.{shim}"
        assert not hasattr(registry, "run_cells")

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_presets_are_the_builder_called_with_data(self, spec):
        """Both presets are ``points`` calls; ``fast`` is plain keyword data."""
        builder = importlib.import_module(spec.module).points
        assert spec.points is builder
        assert spec.grid(False) == builder()
        assert spec.grid(True) == builder(**spec.fast)
        assert set(spec.fast) <= set(inspect.signature(builder).parameters)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_checkpoint_keys_match_golden(self, spec):
        golden = json.loads(CHECKPOINT_GOLDEN_PATH.read_text())
        assert sorted(golden) == registry.names()
        for preset, fast in (("fast", True), ("full", False)):
            assert _checkpoint_digest(spec, fast) == golden[spec.name][preset], (
                f"{spec.name} {preset}: checkpoint keys moved, old journals "
                "would recompute every cell"
            )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_paper_map_ties_the_module_to_a_paper_item(self, spec):
        """A spec earns its place through a row of a section table."""
        code_rows = [
            line
            for line in PAPER_MAP.read_text(encoding="utf-8").split(
                "## Experiment registry"
            )[0].splitlines()
            if line.startswith("| ") and not line.startswith("| Paper item")
        ]
        path = f"`experiments/{spec.module.rpartition('.')[2]}.py`"
        assert any(path in row for row in code_rows), (
            f"docs/paper_map.md names no paper item for {path}"
        )

    @pytest.mark.parametrize("preset", ["fast", "full"])
    def test_grid_points_match_golden(self, preset):
        golden = json.loads(GRID_GOLDEN_PATH.read_text())
        digests = _grid_digests()
        assert sorted(digests) == sorted(golden)
        moved = [
            name for name in digests if digests[name][preset] != golden[name][preset]
        ]
        assert not moved, f"{preset} grid points moved: {moved}"


class TestExecution:
    def test_execute_routes_through_given_runner(self):
        recorder = RecordingRunner()
        result = registry.execute("table-6.3", fast=True, runner=recorder)
        assert recorder.calls == 1
        assert result.format()

    @pytest.mark.parametrize("name", CHEAP_FAST)
    def test_fast_grid_executes_and_formats(self, name):
        result = registry.execute(name, fast=True)
        text = result.format()
        assert isinstance(text, str) and text

    def test_jobs_bit_identical(self):
        serial = registry.execute("table-6.3", fast=True).format()
        pooled = registry.execute("table-6.3", fast=True, jobs=2).format()
        assert serial == pooled

    def test_backend_warning_on_analytic_spec(self):
        with pytest.warns(RuntimeWarning, match="analytic"):
            registry.execute("fig-6.2", fast=True, backend="array")

    def test_simulation_spec_with_tiny_points(self):
        result = registry.execute(
            "message-load",
            points=[
                {
                    "view_size": 12,
                    "d_low": 4,
                    "loss": 0.02,
                    "seed": 37,
                    "n": 40,
                    "warmup_rounds": 5.0,
                    "measure_rounds": 10.0,
                    "snapshots": 2,
                }
            ],
        )
        assert result.n == 40
        assert result.rounds == 10.0

    def test_simulation_sweep_with_tiny_points(self):
        result = registry.execute(
            "load-balance",
            points=[
                {
                    "topology": "ring",
                    "n": 60,
                    "view_size": 12,
                    "d_low": 2,
                    "loss": 0.05,
                    "rounds": 10,
                    "sample_every": 5,
                    "seed": 55,
                }
            ],
        )
        assert list(result.variance_curves) == ["ring"]
        assert result.rounds == [0.0, 5.0, 10.0]


#: Specs whose ``--fast`` grid has more than one cell (one can be lost).
MULTI_CELL = [spec for spec in ALL_SPECS if len(spec.grid(True)) > 1]


def _failing_on(spec, doomed):
    """``spec`` with its cell raising on every point in ``doomed``."""

    def cell(point, seed, *, backend="reference"):
        if point in doomed:
            raise ValueError("injected cell failure")
        return spec.cell(point, seed, backend=backend)

    return replace(spec, cell=cell)


class TestSkippedCells:
    """One rule for all 20 specs, applied in ``registry.execute``: a cell
    without a record is dropped with its point, and a sweep in which no
    cell survives raises instead of reporting an empty table."""

    @pytest.mark.parametrize("spec", MULTI_CELL, ids=lambda spec: spec.name)
    def test_one_skipped_cell_still_reports(self, spec, monkeypatch):
        # The last point: ``lemma-7.15`` / ``lemma-7.6`` lead with the one
        # cell their bundle cannot do without.
        doomed = [spec.grid(True)[-1]]
        monkeypatch.setitem(registry._SPECS, spec.name, _failing_on(spec, doomed))
        runner = SweepRunner(on_error="skip")
        result = registry.execute(spec.name, fast=True, runner=runner)
        assert result.format()
        assert runner.last_stats.skipped == 1
        assert len(runner.last_failures) == 1

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_every_cell_skipped_raises(self, spec, monkeypatch):
        doomed = spec.grid(True)
        monkeypatch.setitem(registry._SPECS, spec.name, _failing_on(spec, doomed))
        runner = SweepRunner(on_error="skip")
        with pytest.raises(RuntimeError, match="was skipped; nothing to report"):
            registry.execute(spec.name, fast=True, runner=runner)
        assert runner.last_stats.skipped == len(doomed)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_cli_archives_nothing_when_every_cell_skipped(
        self, spec, monkeypatch, tmp_path
    ):
        doomed = spec.grid(True)
        monkeypatch.setitem(registry._SPECS, spec.name, _failing_on(spec, doomed))
        with pytest.raises(RuntimeError, match="was skipped; nothing to report"):
            cli.main(
                ["run", spec.name, "--fast", "--on-error", "skip",
                 "--artifacts-dir", str(tmp_path)]
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["lemma-7.15", "lemma-7.6"])
    def test_two_part_bundle_needs_a_cell_of_each_part(self, name):
        """The bounds / exact cell alone (every decay / replication cell
        lost) is half a report: one check, one error."""
        lead = registry.get(name).grid(True)[:1]
        with pytest.raises(RuntimeError, match="to report"):
            registry.execute(name, points=lead)

    def test_cell_returning_none_is_a_skipped_cell(self):
        """``table-6.3``'s unsatisfiable corner: no row, and no error."""
        runner = SweepRunner()
        with pytest.raises(RuntimeError, match="'table-6.3' was skipped"):
            registry.execute(
                "table-6.3", points=[{"d_hat": 4, "delta": 0.001}], runner=runner
            )
        assert runner.last_stats.skipped == 0
        result = registry.execute(
            "table-6.3",
            points=[{"d_hat": 4, "delta": 0.001}, {"d_hat": 30, "delta": 0.01}],
        )
        assert [sel.d_hat for sel in result.selections] == [30]


class TestJsonEnvelope:
    @pytest.mark.parametrize("name", ["fig-6.1", "table-6.3", "mixing-exact"])
    def test_round_trip_under_schema_version(self, name):
        spec = registry.get(name)
        result = registry.execute(spec, fast=True)
        decoded = json.loads(json.dumps(spec.to_json(result)))
        assert decoded["experiment"] == spec.name
        assert decoded["anchor"] == spec.anchor
        assert decoded["schema_version"] == spec.schema_version
        assert decoded["result"]

    def test_no_runner_keeps_legacy_shape(self):
        spec = registry.get("fig-6.1")
        envelope = spec.to_json(registry.execute(spec, fast=True))
        assert "sweep" not in envelope

    def test_runner_adds_sweep_stats_section(self):
        from repro.runner import SweepRunner

        spec = registry.get("table-6.3")
        runner = SweepRunner(jobs=1)
        result = registry.execute(spec, fast=True, runner=runner)
        decoded = json.loads(json.dumps(spec.to_json(result, runner=runner)))
        stats = decoded["sweep"]["last_stats"]
        assert stats["completed"] == stats["total"] >= 1
        assert stats["skipped"] == 0
        assert decoded["sweep"]["last_failures"] == []

    def test_runner_section_records_failures(self):
        from repro.runner import SweepRunner

        spec = registry.get("table-6.3")
        runner = SweepRunner(jobs=1, on_error="skip")
        result = registry.execute(
            spec, points=[{"d_hat": 30, "delta": 0.01}, {"bogus": True}],
            runner=runner,
        )
        decoded = json.loads(json.dumps(spec.to_json(result, runner=runner)))
        stats = decoded["sweep"]["last_stats"]
        assert stats["skipped"] == 1
        # The envelope as docs/observability.md lists it (trace schema v4).
        assert sorted(stats) == sorted(
            "__dataclass__ total completed resumed skipped timeouts "
            "pool_rebuilds backend".split()
        )
        failures = decoded["sweep"]["last_failures"]
        assert len(failures) == 1
        assert sorted(failures[0]) == ["__dataclass__", "cell", "error", "wall_time"]
        assert failures[0]["cell"]["index"] == 1
        assert "d_hat" in failures[0]["error"]
