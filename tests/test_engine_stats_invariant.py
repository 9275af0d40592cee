"""Hypothesis property: EngineStats conservation across backends and loss.

The transport must lose nothing silently — every send is accounted for::

    messages_sent == messages_delivered + messages_lost + messages_to_departed
    replies_sent  == replies_delivered  + replies_lost  + replies_to_departed

(:meth:`repro.engine.sequential.EngineStats.check_conservation`).  The
property is exercised under uniform loss on all three simulation
backends, under bursty Gilbert-Elliott and partition loss on the object
path (kernels run uniform loss only), and with mid-run node departures —
the case that routes sends into ``messages_to_departed``.
Reply accounting is driven by the push-pull protocol, the only stack
member that sends replies.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.experiments.common import build_sf_system
from repro.net.loss import GilbertElliottLoss, PartitionLoss, UniformLoss
from repro.protocols.pushpull import PushPullProtocol
from repro.engine.sequential import SequentialEngine

BACKENDS = ("reference", "reference-kernel", "array")
SETUPS = [(backend, "uniform") for backend in BACKENDS] + [
    ("reference", "gilbert"),
    ("reference", "partition"),
]


def _loss_model(kind: str, rate: float):
    if kind == "uniform":
        return UniformLoss(rate)
    if kind == "gilbert":
        return GilbertElliottLoss(
            p_good_to_bad=0.2, p_bad_to_good=0.3, good_loss=0.0, bad_loss=rate
        )
    return PartitionLoss(
        group_of={u: u % 2 for u in range(64)}, cross_loss=rate, base_loss=0.0
    )


@given(
    setup=st.sampled_from(SETUPS),
    rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    departures=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_sf_message_conservation(setup, rate, seed, departures):
    backend, loss_kind = setup
    protocol, _ = build_sf_system(
        24, SFParams(view_size=12, d_low=2), init_outdegree=6, backend=backend
    )
    engine = SequentialEngine(protocol, _loss_model(loss_kind, rate), seed=seed)
    engine.run_rounds(2)
    # Mid-run departures: in-view ids of departed nodes now route sends
    # into messages_to_departed instead of delivered.
    for u in range(departures):
        protocol.remove_node(u)
    engine.run_rounds(2)
    engine.stats.check_conservation()
    assert engine.stats.replies_sent == 0  # S&F never replies
    assert engine.stats.actions > 0


@given(
    rate=st.sampled_from([0.0, 0.1, 0.9]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    departures=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_pushpull_reply_conservation(rate, seed, departures):
    n = 20
    protocol = PushPullProtocol(view_size=8)
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 5)])
    engine = SequentialEngine(protocol, UniformLoss(rate), seed=seed)
    engine.run_actions(3 * n)
    for u in range(departures):
        protocol.remove_node(u)
    engine.run_actions(3 * n)
    stats = engine.stats
    stats.check_conservation()
    if rate == 0.0 and departures == 0:
        # Lossless, churn-free: every request both arrives and is replied to.
        assert stats.messages_delivered == stats.messages_sent
        assert stats.replies_sent > 0
        assert stats.replies_delivered == stats.replies_sent
