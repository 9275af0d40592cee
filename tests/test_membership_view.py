"""``GossipProtocol.members``: an O(1) pick that can never go stale.

Two properties, neither measured with a clock:

* **complexity** — on the default backend the per-action loop never
  calls ``node_ids()``; the number of calls across a run is bounded by
  the number of joins and leaves, not by the number of actions;
* **staleness** — under arbitrary interleavings of joins, leaves and
  engine steps, made on the protocol or through the DES engine,
  ``members`` equals ``tuple(node_ids())`` (dict insertion order),
  ``population`` its length, and ``has_node`` agrees — for every
  protocol class.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.engine.sequential import SequentialEngine
from repro.experiments.common import build_sf_system
from repro.net.loss import UniformLoss
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol

PARAMS = SFParams(view_size=12, d_low=2)


# ----------------------------------------------------------------------
# Complexity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("with_churn", [False, True])
def test_node_ids_calls_follow_membership_changes_not_actions(monkeypatch, with_churn):
    n, rounds = 300, 3
    protocol, engine = build_sf_system(n, PARAMS, loss_rate=0.05, seed=3)
    calls = []
    original = SendForget.node_ids

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(SendForget, "node_ids", counted)
    changes = 0
    if with_churn:
        churn = ChurnProcess(protocol, 2.0, 2.0, seed=4)
        engine.add_round_hook(1, lambda _engine, _round: churn.apply_round())
    engine.run_rounds(rounds)
    if with_churn:
        changes = len(churn.joined) + len(churn.left)
        assert changes > 0
    assert engine.stats.actions >= rounds * (n - changes)
    # A join reads the list once to pick its bootstrap peer; every join or
    # leave costs at most one rebuild; the constant covers the first read.
    assert len(calls) <= 2 * changes + 2


def test_churn_still_drives_a_kernel_backend():
    """Kernels are not protocols, but churn reads ``members`` on both."""
    kernel, engine = build_sf_system(100, PARAMS, seed=1, backend="array")
    churn = ChurnProcess(kernel, 2.0, 2.0, seed=1)
    engine.add_round_hook(1, lambda _engine, _round: churn.apply_round())
    engine.run_rounds(5)
    assert churn.joined and churn.left
    assert kernel.members == tuple(kernel.node_ids())
    kernel.check_invariant()


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------

# dL above ChurnProcess's fallback bootstrap size of 2, so a join sized
# from ``params`` is told apart from the fallback.
JOIN_PARAMS = SFParams(view_size=12, d_low=6)
PROTOCOLS = {
    "sandf": lambda: SendForget(JOIN_PARAMS),
    "push": lambda: PushProtocol(view_size=6),
    "pushpull": lambda: PushPullProtocol(view_size=6),
    "shuffle": lambda: ShuffleProtocol(view_size=6),
}
SEED_NODES = 4


class MembershipMachine(RuleBasedStateMachine):
    """Joins, leaves and engine steps against a model of the node order."""

    make_protocol = None

    def __init__(self):
        super().__init__()
        self.protocol = self.make_protocol()
        self.model = []  # expected canonical order: insertion, minus leavers
        self.departed = []
        self.next_id = 0
        for _ in range(SEED_NODES):
            self._join(self.protocol, self.next_id)
        self.engine = SequentialEngine(self.protocol, UniformLoss(0.1), seed=1)
        self.des = DiscreteEventEngine(self.protocol, UniformLoss(0.1), seed=2)

    def _join(self, through, node_id):
        # Six ids (S&F needs an even bootstrap of at least d_low); they may
        # repeat or point at departed nodes, which is just more traffic to
        # nowhere.
        through.add_node(node_id, [(node_id + k) % SEED_NODES for k in range(1, 7)])
        self.model.append(node_id)
        self.next_id = max(self.next_id, node_id + 1)

    def _target(self, via):
        return {"protocol": self.protocol, "des": self.des}[via]

    @rule(via=st.sampled_from(["protocol", "des"]))
    def join_fresh(self, via):
        self._join(self._target(via), self.next_id)

    @precondition(lambda self: self.departed)
    @rule(via=st.sampled_from(["protocol", "des"]), pick=st.integers(0))
    def rejoin_departed(self, via, pick):
        """A returning id re-enters at the *end* of the canonical order."""
        node_id = self.departed.pop(pick % len(self.departed))
        self._join(self._target(via), node_id)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0))
    def leave(self, pick):
        node_id = self.model.pop(pick % len(self.model))
        self.protocol.remove_node(node_id)
        self.departed.append(node_id)

    @precondition(lambda self: self.model)
    @rule(seed=st.integers(0, 3))
    def churn_join(self, seed):
        """A join sized by ``ChurnProcess`` itself, from ``params.d_low``."""
        node_id = ChurnProcess(self.protocol, 0.0, 0.0, seed=seed).join_one()
        if node_id in self.departed:
            self.departed.remove(node_id)
        self.model.append(node_id)
        self.next_id = max(self.next_id, node_id + 1)

    @precondition(lambda self: self.model)
    @rule()
    def step(self):
        self.engine.step()

    @rule(count=st.integers(1, 5))
    def run_des_events(self, count):
        self.des.run_events(count)

    @invariant()
    def view_is_never_stale(self):
        ids = self.protocol.node_ids()
        assert ids == self.model
        assert self.protocol.members == tuple(ids)
        assert self.protocol.population == len(ids)
        for node_id in range(self.next_id):
            assert self.protocol.has_node(node_id) == (node_id in ids)

    def teardown(self):
        self.engine.stats.check_conservation()


for _protocol_name, _make_protocol in PROTOCOLS.items():
    _machine = type(
        _protocol_name,
        (MembershipMachine,),
        {"make_protocol": staticmethod(_make_protocol)},
    )
    _machine.TestCase.settings = settings(
        max_examples=20, stateful_step_count=25, deadline=None
    )
    globals()[f"TestMembership_{_protocol_name}"] = _machine.TestCase
