"""Seeded churned runs on the per-action engine are pinned, digest by digest.

The scheduler picks ``members[engine.draws.integers(n)]``; any change to
the order of that sequence, to when the population is read, or to the
draw order moves every later pick.  The legacy-run tests cover no
churned run, so each protocol class is pinned here under
``ChurnProcess(join=2, leave=2)`` per-round hooks:
SHA-256 over the views in canonical node order, over the per-node
transport load, and the full ``EngineStats``.

``tests/data/membership_goldens.json`` was first recorded at the commit
*before* the engine stopped copying ``node_ids()`` per action, and
re-recorded once, on purpose, when the engine began serving every draw
of the per-pick path from one :class:`~repro.util.rng.BlockDraws`
(``int(u * k)`` off a block of uniforms where ``Generator.integers``
runs Lemire's method on 32-bit words, so equal seeds pick differently;
the laws of the runs are unchanged).
``PYTHONPATH=src python tests/test_membership_bit_identity.py`` prints
it; it is never regenerated to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.net.loss import UniformLoss
from repro.protocols.base import GossipProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol

GOLDENS = Path(__file__).parent / "data" / "membership_goldens.json"

PARAMS = SFParams(view_size=12, d_low=2)
N = 60
ROUNDS = 12
EXTRA_ACTIONS = 37  # the run_actions loop reads the population too

CASES: Dict[str, Callable[[], GossipProtocol]] = {
    "sandf": lambda: SendForget(PARAMS),
    "push": lambda: PushProtocol(view_size=8),
    "pushpull": lambda: PushPullProtocol(view_size=8),
    "shuffle": lambda: ShuffleProtocol(view_size=8),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def run_case(name: str) -> Dict[str, object]:
    """One seeded churned run; everything a moved pick would disturb."""
    protocol = CASES[name]()
    for u in range(N):
        protocol.add_node(u, [(u + k) % N for k in range(1, 7)])
    engine = SequentialEngine(protocol, UniformLoss(0.05), seed=11)
    churn = ChurnProcess(protocol, 2.0, 2.0, seed=12)
    engine.add_round_hook(1, lambda _engine, _round: churn.apply_round())
    engine.run_rounds(ROUNDS)
    engine.run_actions(EXTRA_ACTIONS)
    return {
        "views": _sha(
            [(u, sorted(protocol.view_of(u).items())) for u in protocol.node_ids()]
        ),
        "load": _sha(
            tuple(sorted(engine.load_counts(k).items()) for k in ("received", "sent"))
        ),
        "churn": _sha((churn.joined, churn.left)),
        "rounds_completed": repr(engine.rounds_completed),
        "stats": asdict(engine.stats),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_churned_run_matches_the_parent_commit(name):
    golden = json.loads(GOLDENS.read_text())[name]
    assert run_case(name) == golden


def test_the_runs_exercise_churn():
    """A golden that never joined or left a node would pin nothing."""
    for name, golden in json.loads(GOLDENS.read_text()).items():
        assert golden["stats"]["messages_to_departed"] > 0, name
        assert golden["churn"] != _sha(([], [])), name


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1))
