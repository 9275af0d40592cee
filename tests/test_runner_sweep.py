"""Tests for the parallel sweep runner (repro.runner.sweep)."""

import pytest

from repro.core.params import SFParams
from repro.markov import degree_mc
from repro.markov.degree_mc import DegreeMarkovChain
from repro.markov.solve_cache import SolveCache
from repro.runner import (
    GridCell,
    SweepError,
    SweepRunner,
    default_jobs,
    derive_seeds,
)

EXECUTORS = ["inline", "thread", "process"]

# Workers must be module-level so jobs > 1 can pickle them.

def _echo_cell(cell: GridCell, context):
    return (cell.index, cell.point, cell.replication, cell.seed, context)


def _square(cell: GridCell, context):
    return cell.point * cell.point + (cell.seed or 0) % 1000


def _boom(cell: GridCell, context):
    if cell.point == "bad":
        raise ValueError("worker exploded")
    return cell.point


def _solve_tiny(cell: GridCell, context):
    chain = DegreeMarkovChain(SFParams(view_size=12, d_low=2), loss_rate=cell.point)
    return chain.solve().expected_outdegree()


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(7, 5) == derive_seeds(7, 5)

    def test_distinct_across_cells_and_bases(self):
        seeds = derive_seeds(7, 8)
        assert len(set(seeds)) == 8
        assert seeds != derive_seeds(8, 8)

    def test_none_propagates(self):
        assert derive_seeds(None, 3) == [None, None, None]

    def test_prefix_stable(self):
        # Cell i's seed depends only on (base, i), not on the grid size.
        assert derive_seeds(7, 10)[:4] == derive_seeds(7, 4)


class TestGridConstruction:
    def test_grid_order_points_outer_replications_inner(self):
        rows = SweepRunner().run(
            _echo_cell, ["a", "b"], replications=2, seed=1, context="ctx"
        )
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (0, "a", 0), (1, "a", 1), (2, "b", 0), (3, "b", 1),
        ]
        assert all(r[4] == "ctx" for r in rows)

    def test_seed_fn_override(self):
        rows = SweepRunner().run(
            _echo_cell,
            [10, 20],
            replications=2,
            seed_fn=lambda point, replication: point + replication,
        )
        assert [r[3] for r in rows] == [10, 11, 20, 21]

    def test_empty_points(self):
        assert SweepRunner(jobs=4).run(_square, []) == []

    def test_replications_must_be_positive(self):
        with pytest.raises(ValueError, match="replications"):
            SweepRunner().run(_square, [1], replications=0)


class TestExecution:
    def test_jobs_1_and_jobs_4_identical(self):
        kwargs = dict(points=[1, 2, 3, 4, 5], replications=2, seed=42)
        serial = SweepRunner(jobs=1).run(_square, **kwargs)
        parallel = SweepRunner(jobs=4).run(_square, **kwargs)
        assert serial == parallel  # bit-identical, in grid order

    def test_results_in_grid_order_despite_completion_order(self):
        points = list(range(12))
        assert SweepRunner(jobs=4).run(_square, points, seed=None) == [
            p * p for p in points
        ]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_worker_error_wrapped(self, executor):
        with pytest.raises(SweepError, match="point='bad'") as info:
            SweepRunner(jobs=2, executor=executor).run(_boom, ["ok", "bad"])
        assert "worker exploded" in str(info.value)
        assert info.value.cell.point == "bad"
        assert info.value.cell.index == 1

    def test_default_jobs_bounds(self):
        assert 1 <= default_jobs() <= 8


class TestSolveCacheThroughSweep:
    POINTS = [0.0, 0.05]

    def test_inline_rerun_hits_the_memo(self, monkeypatch):
        cache = SolveCache()
        monkeypatch.setattr(degree_mc, "DEFAULT_CACHE", cache)
        first = SweepRunner(jobs=1).run(_solve_tiny, self.POINTS)
        assert SweepRunner(jobs=1).run(_solve_tiny, self.POINTS) == first
        assert (cache.stats.misses, cache.stats.hits()) == (2, 2)

    def test_process_pool_matches_inline(self):
        pooled = SweepRunner(jobs=2, executor="process").run(_solve_tiny, self.POINTS)
        assert pooled == SweepRunner(jobs=1).run(_solve_tiny, self.POINTS)
