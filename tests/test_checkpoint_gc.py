"""Tests for checkpoint garbage collection (library and CLI)."""

import pickle

from repro.cli import main
from repro.runner import CheckpointStore, GridCell, gc_store
from repro.runner.checkpoint import CHECKPOINT_SCHEMA_VERSION, QUARANTINE_DIR


def _cell(index=0):
    return GridCell(index=index, point=index, replication=0, seed=None)


def _journal(store, key, result, token=None):
    store.store(key, _cell(), result, token=token)


class TestGcStore:
    def test_missing_directory_is_noop(self, tmp_path):
        report = gc_store(tmp_path / "never-created")
        assert report.scanned == 0
        assert report.pruned == 0

    def test_healthy_entries_kept(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _journal(store, "a", 1, token="worker.one")
        _journal(store, "b", 2)
        report = gc_store(tmp_path)
        assert report.scanned == 2
        assert report.kept == 2
        assert report.pruned == 0
        assert len(store) == 2

    def test_unreadable_entry_pruned(self, tmp_path):
        (tmp_path / "junk.pkl").write_bytes(b"not a pickle")
        report = gc_store(tmp_path)
        assert report.reasons == {"unreadable": 1}
        assert report.reclaimed_bytes > 0
        assert not (tmp_path / "junk.pkl").exists()

    def test_stale_schema_pruned(self, tmp_path):
        payload = {"schema": CHECKPOINT_SCHEMA_VERSION + 99, "result": 1}
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(payload))
        report = gc_store(tmp_path)
        assert report.reasons == {"stale-schema": 1}

    def test_worker_filter_prunes_mismatch_and_tokenless(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _journal(store, "keep", 1, token="worker.keep")
        _journal(store, "drop", 2, token="worker.gone")
        _journal(store, "untagged", 3)  # pre-token entry
        report = gc_store(tmp_path, workers=["worker.keep"])
        assert report.kept == 1
        assert report.reasons == {"worker-mismatch": 2}
        assert len(store) == 1

    def test_no_filter_keeps_all_tokens(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _journal(store, "a", 1, token="worker.any")
        _journal(store, "b", 2)
        assert gc_store(tmp_path).pruned == 0

    def test_orphan_tmp_pruned(self, tmp_path):
        (tmp_path / "abc123.tmp").write_bytes(b"half-written")
        report = gc_store(tmp_path)
        assert report.reasons == {"orphan-tmp": 1}

    def test_quarantine_emptied(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"corrupt")
        assert store.load("bad") == (False, None)  # quarantines the file
        quarantined = tmp_path / QUARANTINE_DIR / "bad.pkl"
        assert quarantined.exists()
        report = gc_store(tmp_path)
        assert report.reasons == {"quarantined": 1}
        assert not quarantined.exists()

    def test_dry_run_reports_without_deleting(self, tmp_path):
        (tmp_path / "junk.pkl").write_bytes(b"not a pickle")
        (tmp_path / "orphan.tmp").write_bytes(b"x")
        report = gc_store(tmp_path, dry_run=True)
        assert report.dry_run
        assert report.pruned == 2
        assert report.reclaimed_bytes > 0
        assert (tmp_path / "junk.pkl").exists()
        assert (tmp_path / "orphan.tmp").exists()

    def test_reclaimed_bytes_sum_file_sizes(self, tmp_path):
        (tmp_path / "a.pkl").write_bytes(b"x" * 100)
        (tmp_path / "b.tmp").write_bytes(b"y" * 50)
        report = gc_store(tmp_path)
        assert report.reclaimed_bytes == 150


class TestCheckpointGcCli:
    def test_subcommand_prints_report(self, tmp_path, capsys):
        store = CheckpointStore(tmp_path)
        _journal(store, "a", 1, token="worker.one")
        (tmp_path / "junk.pkl").write_bytes(b"not a pickle")
        assert main(["checkpoint-gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"checkpoint-gc {tmp_path}:" in out
        assert "scanned=2" in out
        assert "pruned=1" in out
        assert "kept=1" in out
        assert "unreadable: 1" in out

    def test_subcommand_dry_run(self, tmp_path, capsys):
        (tmp_path / "junk.pkl").write_bytes(b"garbage")
        assert main(["checkpoint-gc", str(tmp_path), "--dry-run"]) == 0
        assert "would reclaim" in capsys.readouterr().out
        assert (tmp_path / "junk.pkl").exists()

    def test_subcommand_worker_filter(self, tmp_path, capsys):
        store = CheckpointStore(tmp_path)
        _journal(store, "keep", 1, token="w.keep")
        _journal(store, "drop", 2, token="w.gone")
        assert main([
            "checkpoint-gc", str(tmp_path), "--worker", "w.keep",
        ]) == 0
        assert "worker-mismatch: 1" in capsys.readouterr().out
        assert len(store) == 1
