"""Tests for repro.engine.des (asynchronous discrete-event engine)."""

from collections import Counter

import pytest

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import _INITIATE, DiscreteEventEngine
from repro.net.delay import ConstantDelay, DelayModel, ExponentialDelay, UniformDelay
from repro.net.loss import UniformLoss
from repro.protocols.pushpull import PushPullProtocol


def make_protocol(n=20, view_size=12, d_low=2):
    protocol = SendForget(SFParams(view_size=view_size, d_low=d_low))
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 7)])
    return protocol


def never_received(stats):
    """Sends lost in the network or addressed to a departed node, both kinds."""
    return (
        stats.messages_lost
        + stats.replies_lost
        + stats.messages_to_departed
        + stats.replies_to_departed
    )


def make_pushpull(n=12, view_size=6):
    protocol = PushPullProtocol(view_size=view_size)
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 4)])
    return protocol


class TestScheduling:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            DiscreteEventEngine(make_protocol(), rate=0.0)

    def test_time_advances(self):
        engine = DiscreteEventEngine(make_protocol(), seed=0)
        engine.run_until(5.0)
        assert engine.now >= 5.0 or engine.queue_size() == 0

    def test_actions_scale_with_time_and_rate(self):
        engine = DiscreteEventEngine(make_protocol(n=30), rate=2.0, seed=1)
        engine.run_until(20.0)
        expected = 30 * 2.0 * 20.0
        assert abs(engine.stats.actions - expected) / expected < 0.15

    def test_run_events_exact_count(self):
        engine = DiscreteEventEngine(make_protocol(), seed=2)
        engine.run_events(50)
        # initiations + deliveries processed; queue never empties (clocks).
        assert engine.stats.actions > 0

    def test_deterministic_given_seed(self):
        protocol_a = make_protocol()
        protocol_b = make_protocol()
        DiscreteEventEngine(protocol_a, seed=7).run_until(10.0)
        DiscreteEventEngine(protocol_b, seed=7).run_until(10.0)
        assert protocol_a.export_graph() == protocol_b.export_graph()


class TestOverlap:
    def test_messages_overlap_in_flight(self):
        engine = DiscreteEventEngine(
            make_protocol(n=40), delay=ConstantDelay(2.0), seed=3
        )
        engine.run_until(30.0)
        # With 40 nodes at rate 1 and 2-time-unit latency, many messages
        # coexist — the nonatomic regime the paper targets.
        assert engine.max_in_flight > 5

    def test_invariant_holds_under_overlap(self):
        protocol = make_protocol(n=30)
        engine = DiscreteEventEngine(
            protocol, delay=ExponentialDelay(3.0), loss=UniformLoss(0.1), seed=4
        )
        engine.run_until(40.0)
        protocol.check_invariant()

    def test_in_flight_messages_to_departed_nodes_dropped(self):
        protocol = make_protocol(n=10)
        engine = DiscreteEventEngine(protocol, delay=ConstantDelay(5.0), seed=5)
        engine.run_until(4.0)
        victim = protocol.node_ids()[0]
        protocol.remove_node(victim)
        engine.run_until(30.0)
        protocol.check_invariant()


class TestChurnIntegration:
    def test_add_node_starts_clock(self):
        protocol = make_protocol(n=10)
        engine = DiscreteEventEngine(protocol, seed=6)
        engine.run_until(5.0)
        engine.add_node(99, [0, 1])
        before = protocol.stats.actions
        engine.run_until(30.0)
        assert protocol.stats.actions > before
        assert protocol.has_node(99)

    def test_rejoined_id_runs_on_one_clock(self):
        """An id that leaves and rejoins initiates at rate 1 like its peers
        (section 4.1): the clock armed before it left must not keep firing
        beside the one armed at the rejoin."""
        n = 20
        protocol = make_protocol(n=n)
        engine = DiscreteEventEngine(protocol, seed=3)
        initiations = Counter()
        step = protocol.initiate_effects

        def counted(node, rng):
            initiations[node] += 1
            return step(node, rng)

        protocol.initiate_effects = counted
        for _ in range(10):
            protocol.remove_node(0)
            engine.add_node(0, [1, 2, 3, 4, 5, 6])
        engine.run_until(200.0)

        armed = Counter(
            event.node
            for event in engine._queue
            if event.kind == _INITIATE
            and engine._armed.get(event.node) == event.sequence
        )
        assert armed == Counter(protocol.node_ids())  # one clock per live node
        peers = [initiations[u] for u in range(1, n)]
        mean = sum(peers) / len(peers)
        assert 150 < mean < 250  # rate 1 for 200 time units
        assert abs(initiations[0] - mean) < 5 * mean**0.5

    def test_rounds_elapsed(self):
        engine = DiscreteEventEngine(make_protocol(), rate=2.0, seed=7)
        engine.run_until(10.0)
        assert engine.rounds_elapsed() == pytest.approx(20.0)


class TestLoss:
    def test_full_loss_no_deliveries(self):
        protocol = make_protocol(n=10, d_low=2)
        engine = DiscreteEventEngine(protocol, loss=UniformLoss(1.0), seed=8)
        engine.run_until(20.0)
        assert protocol.stats.deliveries == 0
        assert engine.stats.messages_lost > 0


class _ScriptedDelay(DelayModel):
    """Cycles through a fixed list of latencies — lets a test force the
    n-th send to overtake the (n-1)-th in flight."""

    def __init__(self, delays):
        self._delays = list(delays)
        self._next = 0

    def sample(self, sender, target, rng):
        delay = self._delays[self._next % len(self._delays)]
        self._next += 1
        return delay


def pair_engine(delay=None):
    """Two push-pull nodes and an engine whose Poisson clocks are parked
    far in the future, so tests hand-crank the seam one event at a time."""
    protocol = PushPullProtocol(view_size=4)
    protocol.add_node(0, [1])
    protocol.add_node(1, [0])
    engine = DiscreteEventEngine(
        protocol,
        delay=delay if delay is not None else ConstantDelay(1.0),
        rate=1e-9,
        seed=0,
    )
    return protocol, engine


class TestSeamInterleavings:
    """Loss/delay/churn interleavings driven through the event seam.

    The regression of record: a push-pull reply whose initiator departed
    while the reply was in flight must be accounted as churn
    (``replies_to_departed``), not double-counted as network loss.
    """

    def test_reply_in_flight_across_initiator_departure(self):
        protocol, engine = pair_engine()
        engine._handle_initiate(0)  # request 0 -> 1 now in flight
        assert engine.stats.messages_sent == 1
        engine.run_events(1)  # request delivered; reply 1 -> 0 in flight
        assert engine.stats.replies_sent == 1
        assert engine.messages_in_flight == 1
        protocol.remove_node(0)  # initiator leaves before its pull returns
        engine.run_events(1)  # the reply arrives at a ghost
        assert engine.stats.replies_to_departed == 1
        assert engine.stats.replies_lost == 0  # churn, not network loss
        assert engine.stats.replies_delivered == 0
        engine.stats.check_conservation()
        # It is the one send that never reached a receive step...
        assert never_received(engine.stats) == 1
        # ...but the network-loss fraction must not count it (the old
        # double-count).
        assert engine.stats.loss_fraction() == 0.0

    def test_request_in_flight_across_target_departure(self):
        protocol, engine = pair_engine()
        engine._handle_initiate(0)
        protocol.remove_node(1)  # replier leaves with the request airborne
        engine.run_events(1)
        assert engine.stats.messages_to_departed == 1
        assert engine.stats.replies_sent == 0  # no ghost reply was produced
        engine.stats.check_conservation()
        assert engine.stats.loss_fraction() == 0.0

    def test_reordered_delivery_preserves_accounting(self):
        # First send rides a slow link (5.0), second a fast one (0.5): the
        # later send overtakes the earlier one in flight.
        protocol, engine = pair_engine(delay=_ScriptedDelay([5.0, 0.5]))
        engine._handle_initiate(0)
        engine._handle_initiate(1)
        assert engine.messages_in_flight == 2
        engine.run_events(1)  # the *second* request lands first
        assert engine.now == pytest.approx(0.5)
        assert engine.stats.messages_delivered == 1
        first_in_flight = engine._queue[0].message
        assert first_in_flight.sender == 0  # the slow one is still airborne
        engine.run_until(20.0)  # drain both requests and both replies
        assert engine.stats.messages_delivered == 2
        assert engine.stats.replies_delivered == 2
        engine.stats.check_conservation()

    def test_sandf_conservation_under_loss_delay_churn(self):
        protocol = make_protocol(n=30)
        engine = DiscreteEventEngine(
            protocol,
            delay=UniformDelay(0.1, 5.0),
            loss=UniformLoss(0.15),
            seed=11,
        )
        engine.run_until(10.0)
        for victim in protocol.node_ids()[:5]:
            protocol.remove_node(victim)
        engine.run_until(40.0)
        protocol.check_invariant()
        # Flush the network: with every node gone the clocks die and any
        # airborne message lands at a ghost, so the books close exactly.
        for victim in protocol.node_ids():
            protocol.remove_node(victim)
        engine.run_until(50.0)
        assert engine.messages_in_flight == 0
        engine.stats.check_conservation()
        assert engine.stats.messages_to_departed > 0
        # S&F is fire-and-forget: the reply channel must stay silent.
        assert engine.stats.replies_sent == 0
        assert engine.stats.loss_fraction() == pytest.approx(0.15, abs=0.05)

    def test_pushpull_conservation_under_loss_delay_churn(self):
        protocol = make_pushpull(n=16)
        engine = DiscreteEventEngine(
            protocol,
            delay=UniformDelay(0.5, 3.0),
            loss=UniformLoss(0.1),
            seed=12,
        )
        engine.run_until(15.0)
        for victim in protocol.node_ids()[:4]:
            protocol.remove_node(victim)
        engine.run_until(40.0)
        for victim in protocol.node_ids():
            protocol.remove_node(victim)
        engine.run_until(50.0)  # flush in-flight traffic into the churn bins
        assert engine.messages_in_flight == 0
        engine.stats.check_conservation()
        assert engine.stats.replies_sent > 0
        assert engine.stats.replies_delivered > 0
        # Every send that never reached a receive step is in exactly one of
        # the four bins.
        stats = engine.stats
        assert never_received(stats) == (stats.messages_sent + stats.replies_sent) - (
            stats.messages_delivered + stats.replies_delivered
        )

    def test_loss_strikes_reply_after_request_survives(self):
        # Lossless on the way out, total loss on the way back: the push
        # half succeeds, the pull half silently fails (§3.1's nonatomic
        # degradation) — and the books still balance per kind.
        protocol, engine = pair_engine()
        engine._handle_initiate(0)
        engine.loss = UniformLoss(1.0)
        engine.run_events(1)  # request delivered; reply eaten at the seam
        assert engine.stats.messages_delivered == 1
        assert engine.stats.replies_sent == 1
        assert engine.stats.replies_lost == 1
        assert engine.messages_in_flight == 0
        engine.stats.check_conservation()
        assert engine.stats.loss_fraction() == pytest.approx(0.5)
