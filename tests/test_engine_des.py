"""Tests for repro.engine.des (asynchronous discrete-event engine).

``tests/data/des_golden.json`` pins five seeded DES runs — S&F under
uniform loss and exponential delay, S&F and push-pull at zero delay
(where deliveries tie with the step that sent them), bursty
Gilbert-Elliott loss, and remove/rejoin through ``engine.add_node`` —
by a slot-exact SHA-256 of the views (dependence flags included), every
``EngineStats`` field, the clock and the in-flight counters.  It was
first written by the engine whose queue held ``@dataclass(order=True)``
events, and re-recorded once, on purpose, when the engine began serving
its clock gaps, loss coins, delays and protocol steps from one
:class:`~repro.util.rng.BlockDraws` instead of scalar ``Generator``
calls (other values at equal seeds, the same laws).
``PYTHONPATH=src python tests/test_engine_des.py`` prints it; it is
never regenerated to make a change pass.
"""

import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.net.delay import ConstantDelay, DelayModel, ExponentialDelay, UniformDelay
from repro.net.loss import GilbertElliottLoss, UniformLoss
from repro.protocols.pushpull import PushPullProtocol

GOLDEN = Path(__file__).parent / "data" / "des_golden.json"


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

    def test_infinite_rate_rejected(self):
        # Every gap would be 0, so ``run_until`` would never return.
        with pytest.raises(ValueError):
            DiscreteEventEngine(make_protocol(), rate=math.inf)

    def test_nan_rate_rejected(self):
        # Every clock tick would be due at NaN, so no event would ever run.
        with pytest.raises(ValueError):
            DiscreteEventEngine(make_protocol(), rate=math.nan)

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
            node
            for _time, sequence, node, effect in engine._queue
            if effect is None and engine._armed.get(node) == sequence
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
        _time, _sequence, _node, effect = engine._queue[0]
        first_in_flight = effect.message
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


class _RecordingLoss(UniformLoss):
    """Uniform loss that logs each verdict, in routing order."""

    def __init__(self, rate):
        super().__init__(rate)
        self.verdicts = []

    def is_lost(self, sender, target, rng):
        lost = super().is_lost(sender, target, rng)
        self.verdicts.append(lost)
        return lost


class _Trace:
    """Wraps an engine's step seams to log every send, popped event and
    delivery; the engine itself is untouched."""

    def __init__(self, engine):
        self.engine = engine
        self.sends = []  # (message, send time), in routing order
        self.deliveries = []  # (message, time), in processing order
        self.events = 0
        self.event_times = []
        protocol = engine.protocol
        for name in ("initiate_effects", "deliver_effects"):
            setattr(protocol, name, self._logging_sends(getattr(protocol, name)))
        engine._handle_initiate = self._counting(engine._handle_initiate)
        handle_delivery = self._counting(engine._handle_delivery)

        def delivery(message, reply):
            self.deliveries.append((message, engine.now))
            handle_delivery(message, reply)

        engine._handle_delivery = delivery

    def _logging_sends(self, step):
        def logged(*args):
            effects = step(*args)
            self.sends.extend((effect.message, self.engine.now) for effect in effects)
            return effects

        return logged

    def _counting(self, handler):
        def counted(*args):
            self.events += 1
            self.event_times.append(self.engine.now)
            handler(*args)

        return counted


@given(
    kind=st.sampled_from(["pushpull", "sandf"]),
    delays=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=6),
    loss=st.sampled_from([0.0, 0.25]),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("events"), st.integers(0, 12)),
            st.tuples(st.just("until"), st.sampled_from([0.0, 0.25, 0.5, 2.0])),
            st.tuples(st.just("leave"), st.integers(0, 15)),
            st.tuples(st.just("join"), st.just(0)),
            st.tuples(st.just("burst"), st.integers(1, 8)),
        ),
        max_size=20,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_event_order_and_per_kind_conservation(kind, delays, loss, steps, seed):
    """Scripted delays with zeros and exact ties: deliveries come in
    (arrival time, send order) order, ``run_events(k)`` pops exactly ``k``
    events while any remain, ``run_until(t)`` pops nothing later than ``t``
    and everything up to it, and each kind's sends balance against the
    queue's in-flight entries after every step.  A burst routes several
    sends at one instant, so equal delays make exact arrival ties.  Joins
    use fresh ids, so no clock tick goes stale and every popped event
    reaches a handler."""
    protocol = make_pushpull(n=8, view_size=4) if kind == "pushpull" else make_protocol(n=8)
    scripted = _ScriptedDelay(delays)
    lossy = _RecordingLoss(loss)
    engine = DiscreteEventEngine(protocol, loss=lossy, delay=scripted, rate=2.0, seed=seed)
    trace = _Trace(engine)
    fresh = itertools.count(100)

    for op, arg in steps:
        events0, times0 = trace.events, len(trace.event_times)
        if op == "events":
            engine.run_events(arg)
            assert trace.events - events0 == arg or not engine._queue
        elif op == "until":
            end = engine.now + arg
            engine.run_until(end)
            assert all(t <= end for t in trace.event_times[times0:])
            assert not engine._queue or engine._queue[0][0] > end
        elif op == "burst":
            for node in protocol.node_ids()[:arg]:
                for effect in protocol.initiate_effects(node, engine.draws):
                    engine._route(effect)
        elif op == "leave":
            live = protocol.node_ids()
            if len(live) > 2:
                protocol.remove_node(live[arg % len(live)])
        else:
            live = protocol.node_ids()
            if len(live) >= 2:
                engine.add_node(next(fresh), live[:2])

        # Every send was routed: one loss verdict each, one delay per survivor.
        assert len(lossy.verdicts) == len(trace.sends)
        assert scripted._next == lossy.verdicts.count(False)
        in_flight = Counter(
            effect.reply for _t, _s, _n, effect in engine._queue if effect is not None
        )
        assert engine.messages_in_flight == sum(in_flight.values())
        stats = engine.stats
        assert stats.messages_sent == (
            stats.messages_delivered
            + stats.messages_lost
            + stats.messages_to_departed
            + in_flight[False]
        )
        assert stats.replies_sent == (
            stats.replies_delivered
            + stats.replies_lost
            + stats.replies_to_departed
            + in_flight[True]
        )

    # Each delivered message arrived at its send time plus its scripted
    # delay, and (arrival time, send order) strictly increases.
    arrivals = {}
    routed = 0
    for order, ((message, sent_at), lost) in enumerate(zip(trace.sends, lossy.verdicts)):
        if not lost:
            delay = delays[routed % len(delays)]
            arrivals[id(message)] = (sent_at + delay, order)
            routed += 1
    keys = []
    for message, at in trace.deliveries:
        arrival, order = arrivals[id(message)]
        assert at == arrival
        keys.append((arrival, order))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _slots(protocol, node):
    """``node``'s view slot by slot: ``(id, dependent)`` or ``None`` for an
    S&F view, the id list of a list-view protocol."""
    if hasattr(protocol, "raw_view"):
        return [
            None if entry is None else (entry.node_id, entry.dependent)
            for entry in protocol.raw_view(node)
        ]
    return list(protocol._views[node])


def _churn_rejoin(engine):
    """Remove/rejoin ids mid-run.  Sends to a removed id land at a ghost;
    each rejoin arms a fresh clock and leaves the old one stale in the
    queue, and the last rejoin leaves its stale clock there at the end."""
    protocol = engine.protocol
    engine.run_until(5.0)
    for round_ in range(6):
        victim = protocol.node_ids()[round_ % 3]
        protocol.remove_node(victim)
        engine.run_until(6.0 + 3 * round_)
        engine.add_node(victim, [(victim + k) % 24 for k in range(1, 7)])
        engine.run_events(7)
    engine.run_until(30.0)
    protocol.remove_node(0)
    engine.add_node(0, [1, 2, 3, 4, 5, 6])
    engine.run_events(5)


# name -> (protocol, engine keyword arguments, driver)
GOLDEN_RUNS = {
    "sandf-uniform-exponential": (
        lambda: make_protocol(n=40),
        dict(loss=UniformLoss(0.05), delay=ExponentialDelay(1.0), seed=21),
        lambda engine: engine.run_until(30.0),
    ),
    "sandf-zero-delay": (
        lambda: make_protocol(n=30),
        dict(loss=UniformLoss(0.1), delay=ConstantDelay(0.0), seed=22),
        lambda engine: engine.run_until(30.0),
    ),
    "pushpull-zero-delay": (
        lambda: make_pushpull(n=16),
        dict(loss=UniformLoss(0.05), delay=ConstantDelay(0.0), seed=23),
        lambda engine: engine.run_until(30.0),
    ),
    "sandf-gilbert-elliott": (
        lambda: make_protocol(n=30),
        dict(
            loss=GilbertElliottLoss(0.05, 0.3, 0.0, 0.6),
            delay=UniformDelay(0.2, 2.0),
            seed=24,
        ),
        lambda engine: engine.run_until(30.0),
    ),
    "sandf-remove-rejoin": (
        lambda: make_protocol(n=24),
        dict(loss=UniformLoss(0.05), delay=ExponentialDelay(0.5), seed=25),
        _churn_rejoin,
    ),
}


def run_golden(name):
    make, kwargs, drive = GOLDEN_RUNS[name]
    protocol = make()
    engine = DiscreteEventEngine(protocol, **kwargs)
    drive(engine)
    views = [(u, _slots(protocol, u)) for u in sorted(protocol.node_ids())]
    return {
        "views_sha256": hashlib.sha256(repr(views).encode("utf-8")).hexdigest(),
        "stats": asdict(engine.stats),
        "now": engine.now,
        "max_in_flight": engine.max_in_flight,
        "messages_in_flight": engine.messages_in_flight,
        "queue_size": engine.queue_size(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_matches_golden(name):
    assert run_golden(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: run_golden(name) for name in sorted(GOLDEN_RUNS)}, indent=1))
