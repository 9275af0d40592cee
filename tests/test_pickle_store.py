"""The checkpoint journal driven through its failure modes.

One state machine stores and loads :class:`repro.runner.CheckpointStore`
entries under a few keys while it truncates entries, plants foreign
bytes, pickled non-entries and orphan ``*.tmp`` files, and swaps the
directory for a regular file (the unwritable directory any uid can
make).  A model of the disk says what every load must return:

* ``load`` never raises;
* a hit returns exactly the last value stored under that key;
* a corrupt entry is quarantined once, counted in
  ``checkpoint.quarantined``, and is a miss from then on;
* a ``*.tmp`` file is never a hit, and no store operation leaves one.
"""

import os
import pickle
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.obs import Registry, Telemetry, activated
from repro.runner import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    SweepRunner,
    worker_token,
)

KEYS = st.sampled_from(["a", "b", "c"])
VALUES = st.one_of(
    st.integers(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
)


class _Checkpoint:
    """:class:`CheckpointStore` behind the machine's verbs."""

    name = "checkpoint"

    def __init__(self, directory: Path):
        self.store = CheckpointStore(directory)

    def put(self, key, value):
        self.store.store(key, value)

    def get(self, key):
        return self.store.load(key)

    @staticmethod
    def decode(payload):
        """``(value,)`` if a file holding ``payload`` is a sound entry."""
        if isinstance(payload, dict) and "result" in payload:
            return (payload["result"],)
        return None


def _not_picklable():
    return lambda: None


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="pickle-store-"))
        self.directory = self.root / "store"
        self.directory.mkdir()
        self.aside = self.root / "aside"
        self.subject = _Checkpoint(self.directory)
        self.registry = Registry()
        self.telemetry = activated(Telemetry(self.registry))
        self.telemetry.__enter__()
        # key -> ``(value,)`` for a sound entry, ``None`` for a corrupt one;
        # a key with no file is absent.
        self.disk = {}
        self.orphans = set()
        self.quarantined = 0
        self.blocked = False

    def teardown(self):
        self.telemetry.__exit__(None, None, None)
        shutil.rmtree(self.root, ignore_errors=True)

    def _plant(self, key, data: bytes):
        (self.directory / f"{key}.pkl").write_bytes(data)

    # -- the store's own verbs -------------------------------------------

    @rule(key=KEYS, value=VALUES)
    def store(self, key, value):
        self.subject.put(key, value)
        if not self.blocked:
            self.disk[key] = (value,)

    @rule(key=KEYS)
    def store_what_does_not_pickle(self, key):
        self.subject.put(key, _not_picklable())  # the old entry, if any, stays

    @rule(key=KEYS)
    def load(self, key):
        hit, value = self.subject.get(key)
        entry = None if self.blocked else self.disk.get(key, ())
        if entry:
            assert hit
            assert type(value) is type(entry[0]) and value == entry[0]
            return
        assert (hit, value) == (False, None)
        if entry is None and not self.blocked:
            del self.disk[key]
            self.quarantined += 1

    # -- what crashes, other writers and other code leave behind ---------

    @precondition(lambda self: not self.blocked and self.disk)
    @rule(data=st.data())
    def truncate(self, data):
        key = data.draw(st.sampled_from(sorted(self.disk)))
        path = self.directory / f"{key}.pkl"
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, max(len(raw) - 1, 0)))])
        self.disk[key] = None  # no strict prefix of a pickle unpickles

    @precondition(lambda self: not self.blocked)
    @rule(key=KEYS, junk=st.binary(max_size=16))
    def write_foreign_bytes(self, key, junk):
        self._plant(key, b"\x00" + junk)  # 0x00 is no pickle opcode
        self.disk[key] = None

    @precondition(lambda self: not self.blocked)
    @rule(key=KEYS, value=VALUES)
    def write_pickled_non_dict(self, key, value):
        self._plant(key, pickle.dumps(value))
        self.disk[key] = self.subject.decode(value)

    @precondition(lambda self: not self.blocked)
    @rule(key=KEYS, value=VALUES)
    def write_dict_without_result(self, key, value):
        payload = {"value": value}
        self._plant(key, pickle.dumps(payload))
        self.disk[key] = self.subject.decode(payload)

    @precondition(lambda self: not self.blocked)
    @rule(key=KEYS, value=VALUES)
    def leave_orphan_tmp(self, key, value):
        """A writer killed between its temp file and the rename."""
        name = f"{key}.tmp"
        (self.directory / name).write_bytes(pickle.dumps({"result": value}))
        self.orphans.add(name)

    @precondition(lambda self: not self.blocked)
    @rule()
    def make_directory_unwritable(self):
        os.replace(self.directory, self.aside)
        self.directory.write_text("a regular file where the store expects a directory")
        self.blocked = True

    @precondition(lambda self: self.blocked)
    @rule()
    def restore_directory(self):
        self.directory.unlink()
        os.replace(self.aside, self.directory)
        self.blocked = False

    # -- invariants --------------------------------------------------------

    @invariant()
    def quarantined_once_each(self):
        counter = f"{self.subject.name}.quarantined"
        assert self.registry.counter(counter) == self.quarantined

    @invariant()
    def files_match_the_model(self):
        if self.blocked:
            return
        assert {p.stem for p in self.directory.glob("*.pkl")} == set(self.disk)
        assert {p.name for p in self.directory.glob("*.tmp")} == self.orphans


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestFailureModes_checkpoint = StoreMachine.TestCase


class _Interrupts:
    """Pickling this is a Ctrl-C arriving mid-write."""

    def __reduce__(self):
        raise KeyboardInterrupt


def test_interrupt_while_pickling_propagates_and_leaves_no_temp_file(tmp_path):
    """A payload is pickled before the store touches the disk, so not even
    the store's directory is made."""
    with pytest.raises(KeyboardInterrupt):
        _Checkpoint(tmp_path / "checkpoint").put("k", [1, _Interrupts()])
    assert sorted(p.name for p in tmp_path.rglob("*")) == []


# ----------------------------------------------------------------------
# Cross-version
# ----------------------------------------------------------------------


def test_entry_holds_the_result_only(tmp_path):
    """``load`` reads ``result`` and nothing else, so nothing else is
    written."""
    CheckpointStore(tmp_path).store("k", {"rows": [1, 2]})
    payload = pickle.loads((tmp_path / "k.pkl").read_bytes())
    assert payload == {"result": {"rows": [1, 2]}}


def _triple(cell, context):
    return {"point": cell.point, "tripled": 3 * cell.point}


def test_entry_in_the_older_layout_loads_as_a_hit(tmp_path):
    """Entries once carried ``schema`` / ``cell`` / ``worker`` beside the
    ``result``; ``load`` reads ``result`` only, so such a journal still
    resumes every cell."""
    journal = tmp_path / "journal"
    fresh = SweepRunner(checkpoint=CheckpointStore(journal)).run(
        _triple, [1, 2, 3], replications=2, seed=5
    )
    for path in journal.glob("*.pkl"):
        result = pickle.loads(path.read_bytes())["result"]
        path.write_bytes(pickle.dumps({
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "cell": {"index": 0, "point": result["point"], "replication": 0, "seed": 5},
            "result": result,
            "worker": worker_token(_triple),
        }))
    resumed = SweepRunner(checkpoint=CheckpointStore(journal))
    assert resumed.run(_triple, [1, 2, 3], replications=2, seed=5) == fresh
    assert resumed.last_stats.resumed == 6
