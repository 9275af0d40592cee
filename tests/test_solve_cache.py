"""Tests for the content-addressed degree-MC solve cache."""

import copy
import logging
import pickle

import numpy as np
import pytest

from repro.core.params import SFParams
from repro.markov import solve_cache
from repro.markov.degree_mc import DegreeMarkovChain
from repro.markov.solve_cache import (
    SOLVE_SCHEMA_VERSION,
    SolveCache,
    solve_key,
)


def _solve(cache, s=12, d_low=2, loss=0.05):
    chain = DegreeMarkovChain(SFParams(view_size=s, d_low=d_low), loss_rate=loss)
    return chain.solve(cache=cache)


class TestSolveKey:
    def test_deterministic(self):
        assert solve_key(a=1, b=0.5) == solve_key(a=1, b=0.5)

    def test_order_independent(self):
        assert solve_key(a=1, b=2) == solve_key(b=2, a=1)

    def test_sensitive_to_every_input(self):
        base = solve_key(view_size=40, d_low=18, loss_rate=0.01, tolerance=1e-10)
        assert base != solve_key(view_size=40, d_low=18, loss_rate=0.01, tolerance=1e-8)
        assert base != solve_key(view_size=40, d_low=16, loss_rate=0.01, tolerance=1e-10)
        assert base != solve_key(view_size=40, d_low=18, loss_rate=0.02, tolerance=1e-10)

    def test_float_repr_distinguishes_distinct_doubles(self):
        # repr round-trips IEEE doubles: adjacent doubles get distinct keys.
        x = 0.1
        y = np.nextafter(0.1, 1.0)
        assert solve_key(loss_rate=x) != solve_key(loss_rate=y)

    def test_schema_version_embedded(self):
        # The canonical payload embeds the schema version, so bumping it
        # invalidates all old entries.  2: the banded stationary solve.
        assert SOLVE_SCHEMA_VERSION == 2

    def test_schema_version_changes_every_key(self, monkeypatch):
        current = solve_key(view_size=40, d_low=18, loss_rate=0.01)
        monkeypatch.setattr(solve_cache, "SOLVE_SCHEMA_VERSION", 1)
        assert solve_key(view_size=40, d_low=18, loss_rate=0.01) != current


class TestSolveCacheLayers:
    def test_memory_hit(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 0

    def test_disk_hit_from_fresh_instance(self, tmp_path):
        SolveCache(directory=tmp_path).put("k", [1, 2, 3])
        other = SolveCache(directory=tmp_path)  # simulates another process
        assert other.get("k") == [1, 2, 3]
        assert other.stats.disk_hits == 1
        # Promoted to memory: second get is a memory hit.
        assert other.get("k") == [1, 2, 3]
        assert other.stats.memory_hits == 1

    def test_miss_counted(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1
        assert cache.stats.hits() == 0

    def test_value_that_does_not_pickle_stays_in_memory(self, tmp_path, caplog):
        """A put the disk cannot take is logged once, never raised, and
        leaves no file behind; the memory layer still serves it."""
        cache = SolveCache(directory=tmp_path)
        value = lambda: 42  # noqa: E731 - a local function does not pickle
        with caplog.at_level(logging.DEBUG, logger="repro.markov.solve_cache"):
            cache.put("k", value)
            cache.put("j", value)
        assert cache.get("k") is value
        assert list(tmp_path.iterdir()) == []
        assert SolveCache(directory=tmp_path).get("k") is None
        assert [r.levelname for r in caplog.records] == ["WARNING", "DEBUG"]
        assert "does not pickle" in caplog.records[0].getMessage()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cache.put("k", 42)
        path = tmp_path / "k.pkl"
        path.write_bytes(pickle.dumps(42)[:3])  # truncate
        fresh = SolveCache(directory=tmp_path)
        assert fresh.get("k") is None
        assert fresh.stats.misses == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path, caplog):
        import logging

        cache = SolveCache(directory=tmp_path)
        cache.put("k", 42)
        (tmp_path / "k.pkl").write_bytes(b"not a pickle at all")
        fresh = SolveCache(directory=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.markov.solve_cache"):
            assert fresh.get("k") is None
        # The bad file is moved aside, so the next read is a clean miss that
        # a put() can repair — not a parse failure forever.
        assert not (tmp_path / "k.pkl").exists()
        assert any("quarantined" in r.message for r in caplog.records)
        fresh.put("k", 43)
        assert SolveCache(directory=tmp_path).get("k") == 43

    def test_quarantine_warns_once_then_debug(self, tmp_path, caplog):
        import logging

        for name in ("a", "b"):
            (tmp_path / f"{name}.pkl").write_bytes(b"garbage")
        cache = SolveCache(directory=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.markov.solve_cache"):
            assert cache.get("a") is None
            assert cache.get("b") is None
        warnings = [
            r for r in caplog.records
            if r.levelno == logging.WARNING and "quarantined" in r.message
        ]
        assert len(warnings) == 1  # first at WARNING, the rest at DEBUG
        assert not list(tmp_path.glob("*.pkl"))

    def test_missing_file_is_not_quarantine_logged(self, tmp_path, caplog):
        import logging

        cache = SolveCache(directory=tmp_path)
        with caplog.at_level(logging.DEBUG, logger="repro.markov.solve_cache"):
            assert cache.get("never-written") is None
        assert not caplog.records

    def test_unwritable_directory_warns_once_and_keeps_memory(self, tmp_path, caplog):
        (tmp_path / "a-file").write_text("not a directory")
        cache = SolveCache(directory=tmp_path / "a-file" / "cache")
        with caplog.at_level("DEBUG", logger="repro.markov.solve_cache"):
            cache.put("a", 1)
            cache.put("b", 2)
        assert cache.get("a") == 1
        assert [r.levelname for r in caplog.records] == ["WARNING", "DEBUG"]
        assert str(cache.directory) in caplog.records[0].getMessage()
        assert "errno" in caplog.records[0].getMessage()

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        for i in range(5):
            cache.put(f"k{i}", i)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.pkl"))) == 5

    def test_clear_memory_falls_back_to_disk(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cache.put("k", 1)
        cache.clear_memory()
        assert cache.get("k") == 1
        assert (cache.stats.memory_hits, cache.stats.disk_hits) == (0, 1)


class TestConfiguration:
    def test_directory_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path / "alt"))
        assert SolveCache().resolve_directory() == tmp_path / "alt"

    def test_explicit_directory_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path / "alt"))
        cache = SolveCache(directory=tmp_path / "explicit")
        assert cache.resolve_directory() == tmp_path / "explicit"


class TestSolveIntegration:
    def test_cache_hit_returns_equal_result(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        cold = _solve(cache)
        assert cache.stats.misses == 1 and cache.stats.writes == 1
        warm = _solve(cache)
        assert cache.stats.hits() == 1
        np.testing.assert_array_equal(cold.stationary, warm.stationary)
        assert cold.outdegree_pmf == warm.outdegree_pmf
        assert cold.iterations == warm.iterations

    def test_disk_shared_across_instances(self, tmp_path):
        _solve(SolveCache(directory=tmp_path))
        other = SolveCache(directory=tmp_path)
        _solve(other)
        assert other.stats.disk_hits == 1
        assert other.stats.writes == 0

    def test_key_covers_solver_settings(self, tmp_path, monkeypatch):
        cache = SolveCache(directory=tmp_path)
        _solve(cache)
        monkeypatch.setattr("repro.markov.degree_mc.TOLERANCE", 1e-8)
        _solve(cache)  # different settings: no false hit
        assert cache.stats.misses == 2
        assert cache.stats.hits() == 0

    def test_schema_1_entry_is_a_quiet_miss(self, tmp_path, monkeypatch, caplog):
        """A ``REPRO_SOLVE_CACHE_DIR`` the parent commit (schema 1, sparse
        LU) filled: its entry for the same chain is never read — not as a
        hit, not as a corrupt file to quarantine — and stays as it was."""
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path))
        with monkeypatch.context() as parent:
            parent.setattr(solve_cache, "SOLVE_SCHEMA_VERSION", 1)
            stale = _solve(SolveCache())
        (stale_path,) = tmp_path.iterdir()
        stale.iterations = -1  # a hit on this entry would show
        stale_path.write_bytes(pickle.dumps(stale))
        stale_bytes = stale_path.read_bytes()

        cache = SolveCache()
        with caplog.at_level(logging.DEBUG, logger="repro"):
            fresh = _solve(cache)
        assert fresh.iterations > 0
        assert (cache.stats.hits(), cache.stats.misses, cache.stats.writes) == (0, 1, 1)
        assert caplog.records == []
        assert stale_path.read_bytes() == stale_bytes
        entries = sorted(path.name for path in tmp_path.iterdir())
        assert len(entries) == 2 and all(name.endswith(".pkl") for name in entries)

    def test_cached_result_is_mutation_isolated(self, tmp_path):
        cache = SolveCache(directory=tmp_path)
        first = _solve(cache)
        first.stationary[:] = -1.0
        first.outdegree_pmf.clear()
        second = _solve(cache)
        assert (second.stationary >= 0.0).all()
        assert second.outdegree_pmf  # untouched by the caller's mutation

    @staticmethod
    def _spoil(result):
        result.stationary[:] = -1.0
        result.outdegree_pmf.clear()
        result.indegree_pmf[0] = 7.0

    @pytest.mark.parametrize("layer", ["memory", "disk"])
    def test_hit_result_is_mutation_isolated(self, tmp_path, layer):
        """A result a hit returned is the caller's own, as a miss's is."""
        reference = _solve(SolveCache(directory=tmp_path))
        cache = SolveCache(directory=tmp_path)  # a disk hit fills its memory
        hit = _solve(cache)
        assert cache.stats.disk_hits == 1
        if layer == "memory":
            hit = _solve(cache)
            assert cache.stats.memory_hits == 1
        self._spoil(hit)
        again = _solve(cache)
        assert cache.stats.hits() == (3 if layer == "memory" else 2)
        np.testing.assert_array_equal(again.stationary, reference.stationary)
        assert again.outdegree_pmf == reference.outdegree_pmf
        assert again.indegree_pmf == reference.indegree_pmf

    def test_cache_false_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path))
        _solve(False)
        assert list(tmp_path.glob("*.pkl")) == []

    def test_deepcopyable_and_picklable_result(self, tmp_path):
        result = _solve(SolveCache(directory=tmp_path))
        clone = copy.deepcopy(result)
        np.testing.assert_array_equal(clone.stationary, result.stationary)
        assert pickle.loads(pickle.dumps(result)).iterations == result.iterations
