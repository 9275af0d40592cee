"""O5.1 — Observation 5.1 under a hostile long run.

Outdegrees stay even and inside [dL, s] through sustained churn, bursty
loss, and overlapping asynchronous actions — the protocol's structural
invariant holds in every regime, not only the analyzed one.
"""

from conftest import emit

from repro.churn.process import ChurnProcess
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.des import DiscreteEventEngine
from repro.engine.sequential import SequentialEngine
from repro.net.delay import ExponentialDelay
from repro.net.loss import GilbertElliottLoss, UniformLoss


def run_hostile():
    params = SFParams(view_size=16, d_low=4)

    # Serial engine with bursty loss and churn.
    serial = SendForget(params)
    for u in range(150):
        serial.add_node(u, [(u + k) % 150 for k in range(1, 9)])
    engine = SequentialEngine(
        serial,
        GilbertElliottLoss(p_good_to_bad=0.05, p_bad_to_good=0.2, bad_loss=0.6),
        seed=51,
    )
    churn = ChurnProcess(serial, join_rate=1.0, leave_rate=1.0, seed=52)
    for _ in range(150):
        churn.apply_round()
        engine.run_rounds(1)
    serial.check_invariant()

    # Asynchronous engine with heavy overlap and uniform loss.
    asynchronous = SendForget(params)
    for u in range(150):
        asynchronous.add_node(u, [(u + k) % 150 for k in range(1, 9)])
    des = DiscreteEventEngine(
        asynchronous,
        loss=UniformLoss(0.1),
        delay=ExponentialDelay(4.0),
        seed=53,
    )
    des.run_until(150.0)
    asynchronous.check_invariant()

    return serial, asynchronous, des


def test_invariants():
    serial, asynchronous, des = run_hostile()
    live = len(serial.node_ids())
    emit(
        "Observation 5.1 — invariant under churn + bursty loss + overlap",
        f"serial: {live} live nodes after 150 churn rounds, invariant holds\n"
        f"async: {len(asynchronous.node_ids())} nodes, "
        f"max in-flight messages {des.max_in_flight}, invariant holds",
    )
    assert live > 8
    assert des.max_in_flight > 10
