"""Tests for the simulation-side failure-detection layer.

The load-bearing guarantees:

* **RNG transparency** — the layer draws no randomness, so a seeded run
  with the layer installed is bit-identical to one without it (the
  "detector disabled ⇒ identical" acceptance bar);
* **kill-wave detection** — crashed nodes end up FAILED at a quorum of
  survivors, with zero false positives among the living;
* **conservation under suppression** — sends dropped toward FAILED
  peers are counted, keeping the transport identity exact;
* **drop-in for any protocol** — over S&F and each §3.1 baseline alike,
  the layer owns no table or counters of its own, so ``stats``,
  ``params``, the node table and every population observer are the
  wrapped protocol's.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.failure import DetectorConfig, FailureDetectorLayer, PeerState
from repro.net.loss import UniformLoss
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol

#: Dense regime: steady-state degree well above d_low keeps p_send (and
#: with it the liveness-rumor refresh rate) high; timeouts sized with
#: ~3x margin over the measured worst-pair refresh age (~24 periods).
DENSE = dict(view_size=24, d_low=16)
DETECT = dict(suspect_after=48.0, fail_after=24.0, piggyback_limit=64)


#: Every protocol the layer can wrap, sized so the ring bootstrap below
#: (d_low ids per node) fits each view.
INNER = {
    "sandf": lambda: SendForget(SFParams(**DENSE)),
    "push": lambda: PushProtocol(view_size=DENSE["view_size"]),
    "pushpull": lambda: PushPullProtocol(view_size=DENSE["view_size"]),
    "shuffle": lambda: ShuffleProtocol(view_size=DENSE["view_size"]),
}
QUIET = dict(suspect_after=1e9, fail_after=1e9, piggyback_limit=8)


def build_over(name, n=30, *, layered=True, loss=0.05, seed=42, config=None):
    """``(inner, driven, engine)``: ``driven`` is the layer, or ``inner``."""
    inner = INNER[name]()
    for u in range(n):
        inner.add_node(u, [(u + k) % n for k in range(1, DENSE["d_low"] + 1)])
    driven = inner
    if layered:
        driven = FailureDetectorLayer(inner, DetectorConfig(**(config or DETECT)))
    return inner, driven, SequentialEngine(driven, UniformLoss(loss), seed=seed)


def build(n=30, *, layered=True, loss=0.05, seed=42, config=None, **params):
    merged = dict(DENSE, **params)
    protocol = SendForget(SFParams(**merged))
    init = merged["d_low"]
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, init + 1)])
    if layered:
        protocol = FailureDetectorLayer(
            protocol, DetectorConfig(**(config or DETECT))
        )
    engine = SequentialEngine(protocol, UniformLoss(loss), seed=seed)
    return protocol, engine


def views_of(protocol):
    return {u: sorted(protocol.view_of(u).elements()) for u in protocol.node_ids()}


# ----------------------------------------------------------------------
# Bit-identity: installing the layer must not perturb a single RNG draw
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_layer_is_rng_transparent_for_any_seed(seed):
    """With timeouts that never fire, layered and bare runs are identical."""
    quiet = dict(suspect_after=1e9, fail_after=1e9, piggyback_limit=8)
    bare, engine_bare = build(n=12, layered=False, seed=seed)
    layered, engine_layered = build(n=12, layered=True, seed=seed, config=quiet)
    engine_bare.run_rounds(40)
    engine_layered.run_rounds(40)
    assert views_of(bare) == views_of(layered)
    assert engine_bare.stats == engine_layered.stats


def test_no_crash_run_is_bit_identical_and_suspicion_free():
    """At production timeouts, a healthy run diverges in nothing."""
    bare, engine_bare = build(layered=False)
    layered, engine_layered = build(layered=True)
    engine_bare.run_rounds(120)
    engine_layered.run_rounds(120)
    assert views_of(bare) == views_of(layered)
    assert engine_bare.stats == engine_layered.stats
    summary = layered.summary()
    assert summary["suspected"] == 0
    assert summary["failed"] == 0
    assert summary["suppressed_sends"] == 0


# ----------------------------------------------------------------------
# Kill wave: completeness and accuracy
# ----------------------------------------------------------------------


def test_kill_wave_detected_by_quorum_with_zero_false_positives():
    layer, engine = build(n=30)
    engine.run_rounds(20)
    victims = [3, 7, 11, 19, 23]
    for victim in victims:
        layer.remove_node(victim)
    engine.run_rounds(120)
    assert layer.failed_by_quorum(quorum=0.5) == sorted(victims)
    survivors = set(layer.node_ids())
    for survivor in survivors:
        for detector in layer.detectors.values():
            assert detector.state_of(survivor) is not PeerState.FAILED


def test_every_failed_verdict_passed_through_suspected():
    layer, engine = build(n=30)
    engine.run_rounds(20)
    for victim in (0, 1):
        layer.remove_node(victim)
    engine.run_rounds(120)
    suspected_seen = set()
    for observer, peer, old, new, _inc, _now in layer.transitions:
        if new is PeerState.SUSPECTED:
            suspected_seen.add((observer, peer))
        if new is PeerState.FAILED:
            assert old is PeerState.SUSPECTED
            assert (observer, peer) in suspected_seen


def test_conservation_holds_under_suppression():
    """inner messages produced == engine transported + fd_suppressed."""
    layer, engine = build(n=30)
    engine.run_rounds(20)
    layer.stats.reset()
    engine.stats.__init__()
    for victim in (2, 9, 17):
        layer.remove_node(victim)
    engine.run_rounds(120)
    engine.stats.check_conservation()
    suppressed = layer.stats.extra.get("fd_suppressed", 0)
    assert suppressed > 0  # FAILED verdicts did suppress traffic
    assert layer.stats.messages_sent == (
        engine.stats.messages_sent + engine.stats.replies_sent + suppressed
    )


def test_restart_resurrects_via_higher_incarnation():
    layer, engine = build(n=30)
    engine.run_rounds(20)
    layer.remove_node(5)
    engine.run_rounds(120)
    assert 5 in layer.failed_by_quorum()
    # The node comes back: its detector seeds one incarnation above the
    # grave, so its ALIVE gossip resurrects the FAILED records.
    layer.add_node(5, [(5 + k) % 30 for k in range(1, DENSE["d_low"] + 1) if (5 + k) % 30 != 5])
    assert layer.detector_of(5).incarnation >= 1
    engine.run_rounds(120)
    assert 5 not in layer.failed_by_quorum()
    resurrected = sum(
        detector.counters["resurrected"] for detector in layer.detectors.values()
    )
    assert resurrected > 0


def test_verdicts_and_summary_shapes():
    layer, engine = build(n=12, loss=0.0)
    engine.run_rounds(10)
    verdicts = layer.verdicts_on(3)
    assert set(verdicts) == set(layer.node_ids()) - {3}
    summary = layer.summary()
    for key in ("refutations", "suspected", "failed", "suppressed_sends"):
        assert key in summary


# ----------------------------------------------------------------------
# Any inner protocol: S&F and the §3.1 baselines
# ----------------------------------------------------------------------

over_any_inner = pytest.mark.parametrize("name", sorted(INNER))


@over_any_inner
def test_layer_is_rng_transparent_over(name):
    bare, _, engine_bare = build_over(name, layered=False)
    _, layered, engine_layered = build_over(name, config=QUIET)
    engine_bare.run_rounds(40)
    engine_layered.run_rounds(40)
    assert views_of(bare) == views_of(layered)
    assert engine_bare.stats == engine_layered.stats


@over_any_inner
def test_layer_owns_no_table_or_counters_over(name):
    inner, layer, engine = build_over(name)
    assert "_views" not in vars(layer) and "stats" not in vars(layer)
    assert layer.stats is inner.stats
    assert getattr(layer, "params", None) is getattr(inner, "params", None)
    engine.run_rounds(5)
    assert layer.members is inner.members
    assert layer.population == inner.population == 30
    inner.remove_node(4)  # behind the layer's back
    assert not layer.has_node(4) and 4 not in layer.node_ids()


@over_any_inner
def test_population_observers_match_inner_over(name):
    inner, layer, engine = build_over(name)
    engine.run_rounds(30)
    assert layer.indegrees() == inner.indegrees()
    assert [layer.outdegree(u) for u in layer.node_ids()] == [
        inner.outdegree(u) for u in inner.node_ids()
    ]
    ours, theirs = layer.export_graph(), inner.export_graph()
    assert sorted(ours.edges()) == sorted(theirs.edges())


@over_any_inner
def test_conservation_holds_under_suppression_over(name):
    """Replies (push-pull, shuffle) count on both sides of the identity."""
    _, layer, engine = build_over(name)
    engine.run_rounds(20)
    layer.stats.reset()
    engine.stats.__init__()
    for victim in (2, 9, 17):
        layer.remove_node(victim)
    engine.run_rounds(120)
    engine.stats.check_conservation()
    assert layer.stats.messages_sent == (
        engine.stats.messages_sent
        + engine.stats.replies_sent
        + layer.summary()["suppressed_sends"]
    )


@pytest.mark.parametrize("name", ["pushpull", "push", "sandf"])
def test_kill_wave_detected_without_false_positives_over(name):
    """Shuffle is left out: under loss its views lose ids (§3.1) until
    traffic, and with it every liveness refresh, dries up."""
    _, layer, engine = build_over(name)
    engine.run_rounds(20)
    victims = [2, 9, 17]
    for victim in victims:
        layer.remove_node(victim)
    engine.run_rounds(120)
    assert layer.failed_by_quorum(quorum=0.5) == victims
    assert layer.summary()["suppressed_sends"] > 0
    for survivor in layer.node_ids():
        for detector in layer.detectors.values():
            assert detector.state_of(survivor) is not PeerState.FAILED


@over_any_inner
def test_restart_comes_back_above_its_grave_over(name):
    inner, layer, _ = build_over(name)
    ids = [(5 + k) % 30 for k in range(1, DENSE["d_low"] + 1)]
    for incarnation in (1, 2):
        layer.remove_node(5)
        assert not inner.has_node(5) and 5 not in layer.detectors
        layer.add_node(5, ids)
        assert inner.has_node(5)
        assert layer.detector_of(5).incarnation == incarnation


@over_any_inner
def test_churn_join_through_the_layer_gets_a_detector_over(name):
    inner, layer, _ = build_over(name)
    joiner = ChurnProcess(layer, 0.0, 0.0, seed=1).join_one()
    assert inner.has_node(joiner) and layer.members[-1] == joiner
    detector = layer.detector_of(joiner)
    assert detector.incarnation == 0
    known = {peer for peer in inner.view_of(joiner) if peer != joiner}
    assert known and all(detector.state_of(peer) is PeerState.ALIVE for peer in known)
