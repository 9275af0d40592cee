"""Tests for the per-process degree-MC solve memo."""

import copy
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core.params import SFParams
from repro.markov import degree_mc, solve_cache
from repro.markov.degree_mc import DegreeMarkovChain
from repro.markov.solve_cache import SolveCache
from repro.obs import Registry, Telemetry, Tracer, activated


@pytest.fixture
def cache(monkeypatch):
    """A fresh memo in place of the process-wide one."""
    fresh = SolveCache()
    monkeypatch.setattr(degree_mc, "DEFAULT_CACHE", fresh)
    return fresh


def _solve(s=12, d_low=2, loss=0.05, cache=True):
    chain = DegreeMarkovChain(SFParams(view_size=s, d_low=d_low), loss_rate=loss)
    return chain.solve(cache=cache)


class TestSolveKey:
    def test_sensitive_to_every_input(self, cache):
        _solve()
        _solve(s=14)
        _solve(d_low=4)
        _solve(loss=0.1)
        assert (cache.stats.misses, cache.stats.hits()) == (4, 0)
        _solve()
        assert cache.stats.hits() == 1

    def test_conserved_line_is_in_the_key(self, cache):
        for dm in (8, 10, 8):
            DegreeMarkovChain(SFParams(12, 0), 0.0, conserved_sum_degree=dm).solve()
        assert (cache.stats.misses, cache.stats.hits()) == (2, 1)

    @pytest.mark.parametrize("name, value", [("MAX_ITERATIONS", 150), ("DAMPING", 0.6)])
    def test_solver_setting_is_in_the_key(self, cache, monkeypatch, name, value):
        _solve()
        monkeypatch.setattr(degree_mc, name, value)
        _solve()
        assert (cache.stats.misses, cache.stats.hits()) == (2, 0)

    def test_distinct_doubles_get_distinct_entries(self, cache):
        _solve(loss=0.1)
        _solve(loss=float(np.nextafter(0.1, 1.0)))
        assert (cache.stats.misses, cache.stats.hits()) == (2, 0)

    def test_numpy_double_shares_the_entry(self, cache):
        plain = _solve(loss=0.05)
        numpy = _solve(loss=np.float64(0.05))
        assert (cache.stats.misses, cache.stats.hits()) == (1, 1)
        np.testing.assert_array_equal(numpy.stationary, plain.stationary)


class TestSolveCacheLayers:
    def test_memory_hit(self):
        cache = SolveCache()
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.hits() == 1
        assert cache.stats.misses == 0

    def test_miss_counted(self):
        cache = SolveCache()
        assert cache.get("absent") is None
        assert cache.stats.misses == 1
        assert cache.stats.hits() == 0

    def test_clear_memory_forgets(self):
        cache = SolveCache()
        cache.put("k", 1)
        cache.clear_memory()
        assert cache.get("k") is None

    def test_each_hit_is_a_fresh_copy(self):
        cache = SolveCache()
        cache.put("k", [1, 2])
        first, second = cache.get("k"), cache.get("k")
        assert first == second == [1, 2] and first is not second

    def test_put_copies_the_value(self):
        cache = SolveCache()
        value = [1, 2]
        cache.put("k", value)
        value.append(3)
        assert cache.get("k") == [1, 2]

    def test_counters_and_records(self, tmp_path):
        registry, cache = Registry(), SolveCache()
        tracer = Tracer(tmp_path / "trace.jsonl")
        with activated(Telemetry(registry=registry, tracer=tracer)):
            cache.get("k")
            cache.put("k", 1)
            cache.get("k")
        tracer.close()
        assert [registry.counter(f"solve_cache.{name}")
                for name in ("misses", "writes", "hits")] == [1, 1, 1]
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()[1:]
        assert [json.loads(line)["type"] for line in lines] == [
            "solve_cache.miss", "solve_cache.store", "solve_cache.hit"
        ]


class TestSolveIntegration:
    def test_cache_hit_returns_equal_result(self, cache):
        cold = _solve()
        assert cache.stats.misses == 1 and cache.stats.writes == 1
        warm = _solve()
        assert cache.stats.hits() == 1
        np.testing.assert_array_equal(cold.stationary, warm.stationary)
        assert cold.outdegree_pmf == warm.outdegree_pmf
        assert cold.iterations == warm.iterations

    def test_key_covers_solver_settings(self, cache, monkeypatch):
        _solve()
        monkeypatch.setattr("repro.markov.degree_mc.TOLERANCE", 1e-8)
        _solve()  # different settings: no false hit
        assert cache.stats.misses == 2
        assert cache.stats.hits() == 0

    @pytest.mark.parametrize(
        "s, d_low, loss, dm", [(12, 2, 0.05, None), (12, 0, 0.0, 10), (16, 6, 0.5, None)]
    )
    def test_hit_equals_an_uncached_solve(self, cache, s, d_low, loss, dm):
        def chain():
            return DegreeMarkovChain(SFParams(s, d_low), loss, conserved_sum_degree=dm)

        chain().solve()
        hit, fresh = chain().solve(), chain().solve(cache=False)
        assert cache.stats.hits() == 1
        np.testing.assert_array_equal(hit.stationary, fresh.stationary)
        assert vars(hit).keys() == vars(fresh).keys()
        for name in vars(fresh).keys() - {"stationary"}:
            assert getattr(hit, name) == getattr(fresh, name), name

    def test_failed_solve_is_not_memoized(self, cache, monkeypatch):
        monkeypatch.setattr(degree_mc, "MAX_ITERATIONS", 2)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="did not converge"):
                _solve()
        assert (cache.stats.misses, cache.stats.writes) == (2, 0)

    def test_reducible_grid_raises_before_the_memo(self, cache):
        with pytest.raises(ValueError, match="Lemma 6.2"):
            _solve(d_low=0, loss=0.0)
        assert cache.stats.misses == 0

    def test_cached_result_is_mutation_isolated(self, cache):
        first = _solve()
        first.stationary[:] = -1.0
        first.outdegree_pmf.clear()
        second = _solve()
        assert (second.stationary >= 0.0).all()
        assert second.outdegree_pmf  # untouched by the caller's mutation

    def test_hit_result_is_mutation_isolated(self, cache):
        """A result a hit returned is the caller's own, as a miss's is."""
        reference = _solve()
        hit = _solve()
        hit.stationary[:] = -1.0
        hit.outdegree_pmf.clear()
        hit.indegree_pmf[0] = 7.0
        again = _solve()
        assert cache.stats.hits() == 2
        np.testing.assert_array_equal(again.stationary, reference.stationary)
        assert again.outdegree_pmf == reference.outdegree_pmf
        assert again.indegree_pmf == reference.indegree_pmf

    def test_solve_fills_the_process_memo(self):
        """The memo whose stats callers read is the one ``solve`` fills."""
        solve_cache.DEFAULT_CACHE.clear_memory()
        writes = solve_cache.DEFAULT_CACHE.stats.writes
        _solve()
        _solve()
        assert solve_cache.DEFAULT_CACHE.stats.writes == writes + 1

    def test_cache_false_disables(self, cache):
        _solve(cache=False)
        assert (cache.stats.hits(), cache.stats.misses, cache.stats.writes) == (0, 0, 0)

    def test_deepcopyable_and_picklable_result(self, cache):
        result = _solve()
        clone = copy.deepcopy(result)
        np.testing.assert_array_equal(clone.stationary, result.stationary)
        assert pickle.loads(pickle.dumps(result)).iterations == result.iterations


def test_cli_run_writes_nothing_under_home(tmp_path, child_env):
    """A CLI run keeps its solves in memory: nothing lands in ``~/.cache``."""
    home = tmp_path / "home"
    home.mkdir()
    env = {**child_env, "HOME": str(home)}
    for name in ("XDG_CACHE_HOME", "REPRO_SOLVE_CACHE_DIR"):
        env.pop(name, None)  # no cache location comes from the environment
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig-6.1", "--fast"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    written = [
        os.path.join(root, name)
        for root, dirs, files in os.walk(home)
        for name in dirs + files
    ]
    assert not [path for path in written if "repro-gossip" in path]
