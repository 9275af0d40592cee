"""Tests for repro.net.transport (loopback and UDP transports)."""

import asyncio
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.loss import UniformLoss
from repro.net.transport import AsyncioUdpTransport, LoopbackTransport
from repro.net.wire import JoinRequest, encode
from repro.protocols.base import Message, SendEffect
from repro.util.rng import make_rng

from test_net_wire import HOSTILE, V1_DATAGRAMS


def effect(sender=1, target=2, kind="sandf", reply=False):
    return SendEffect(
        Message(sender=sender, target=target, payload=[(sender, False)], kind=kind),
        reply=reply,
    )


class TestLoopback:
    def test_fifo_order(self):
        transport = LoopbackTransport()
        rng = make_rng(0)
        first, second = effect(sender=1), effect(sender=2)
        assert transport.send(first, rng)
        assert transport.send(second, rng)
        assert transport.poll() is first
        assert transport.poll() is second
        assert transport.poll() is None

    def test_loss_applied_at_send_seam(self):
        transport = LoopbackTransport(UniformLoss(1.0))
        assert not transport.send(effect(), make_rng(0))
        assert transport.poll() is None
        assert transport.sent == 1 and transport.dropped == 1

    def test_lossless_counts(self):
        transport = LoopbackTransport()
        rng = make_rng(1)
        for _ in range(10):
            transport.send(effect(), rng)
        assert transport.sent == 10 and transport.dropped == 0
        assert transport.pending() == 10


def run(coro):
    return asyncio.run(coro)


#: A destination the OS refuses synchronously (EACCES), for socket_errors.
REFUSED_ADDRESS = ("255.255.255.255", 9)


class TestUdp:
    def test_send_and_receive_record(self):
        async def scenario():
            inbox = []
            receiver = await AsyncioUdpTransport.create(
                lambda record, ts, addr: inbox.append(record)
            )
            sender = await AsyncioUdpTransport.create(lambda *a: None)
            message = Message(sender=1, target=2, payload=[(1, True)], kind="sandf")
            sender.send_record(message, receiver.address, timestamp=time.monotonic())
            await asyncio.sleep(0.05)
            sender.close()
            receiver.close()
            return inbox, receiver

        inbox, receiver = run(scenario())
        assert inbox == [Message(sender=1, target=2, payload=[(1, True)], kind="sandf")]
        assert receiver.delivered == 1
        assert receiver.latency_samples  # timestamp -> one latency sample

    def test_receiver_side_drop(self):
        async def scenario():
            inbox = []
            receiver = await AsyncioUdpTransport.create(
                lambda record, ts, addr: inbox.append(record),
                drop_rate=1.0,
                rng=make_rng(0),
            )
            sender = await AsyncioUdpTransport.create(lambda *a: None)
            for _ in range(5):
                sender.send_record(JoinRequest(node=1, port=9), receiver.address)
            await asyncio.sleep(0.05)
            sender.close()
            receiver.close()
            return inbox, receiver

        inbox, receiver = run(scenario())
        assert inbox == []
        assert receiver.datagrams_received == 5
        assert receiver.dropped == 5  # read off the socket, then discarded

    def test_inbound_filter(self):
        async def scenario():
            inbox = []
            receiver = await AsyncioUdpTransport.create(
                lambda record, ts, addr: inbox.append(record),
                inbound_filter=lambda record: not isinstance(record, JoinRequest),
            )
            sender = await AsyncioUdpTransport.create(lambda *a: None)
            sender.send_record(JoinRequest(node=1, port=9), receiver.address)
            sender.send_record(
                Message(sender=1, target=2, payload=[], kind="sandf"),
                receiver.address,
            )
            await asyncio.sleep(0.05)
            sender.close()
            receiver.close()
            return inbox, receiver

        inbox, receiver = run(scenario())
        assert len(inbox) == 1 and isinstance(inbox[0], Message)
        assert receiver.filtered == 1

    def test_undecodable_datagram_counted_not_raised(self):
        async def scenario():
            receiver = await AsyncioUdpTransport.create(lambda *a: None)
            loop = asyncio.get_running_loop()
            probe = await AsyncioUdpTransport.create(lambda *a: None)
            probe._socket.sendto(b"\xff garbage", receiver.address)
            await asyncio.sleep(0.05)
            probe.close()
            receiver.close()
            del loop
            return receiver

        receiver = run(scenario())
        assert receiver.decode_errors == 1
        assert receiver.delivered == 0

    def test_seam_send_resolves_target(self):
        async def scenario():
            inbox = []
            receiver = await AsyncioUdpTransport.create(
                lambda record, ts, addr: inbox.append(record)
            )
            book = {2: receiver.address}
            sender = await AsyncioUdpTransport.create(
                lambda *a: None, resolve=book.get
            )
            rng = make_rng(0)
            assert sender.send(effect(target=2), rng)
            assert not sender.send(effect(target=99), rng)  # unroutable
            await asyncio.sleep(0.05)
            sender.close()
            receiver.close()
            return inbox, sender

        inbox, sender = run(scenario())
        assert len(inbox) == 1
        assert sender.unroutable == 1
        assert sender.datagrams_sent == 1

    def test_invalid_drop_rate_rejected(self):
        with pytest.raises(ValueError):
            AsyncioUdpTransport(lambda *a: None, drop_rate=1.5)

    def test_unbound_send_raises(self):
        transport = AsyncioUdpTransport(lambda *a: None)
        with pytest.raises(RuntimeError, match="not bound"):
            transport.send_record(JoinRequest(node=1, port=2), ("127.0.0.1", 1))
        with pytest.raises(RuntimeError, match="not bound"):
            transport.address

    def test_send_to_a_closed_port_is_fire_and_forget(self):
        """A crashed peer's port: the send neither raises nor blocks, and
        whatever the OS reports back lands in ``socket_errors``.  (Linux
        keeps ICMP port-unreachable from unconnected UDP sockets, so the
        count it reports here is 0; the refused send below is the
        deterministic way into the counter.)"""

        async def scenario():
            dead = await AsyncioUdpTransport.create(lambda *a: None)
            closed_address = dead.address
            dead.close()
            await asyncio.sleep(0.01)  # let the loop really close the socket
            sender = await AsyncioUdpTransport.create(lambda *a: None)
            for _ in range(3):
                sender.send_record(JoinRequest(node=1, port=9), closed_address)
                await asyncio.sleep(0.01)
            sender.close()
            return sender

        sender = run(scenario())
        assert sender.datagrams_sent == 3

    def test_refused_send_counts_a_socket_error(self):
        async def scenario():
            sender = await AsyncioUdpTransport.create(lambda *a: None)
            # Broadcast without SO_BROADCAST: the OS refuses the sendto.
            sender.send_record(JoinRequest(node=1, port=9), REFUSED_ADDRESS)
            sender.send_record(JoinRequest(node=1, port=9), REFUSED_ADDRESS)
            await asyncio.sleep(0.01)
            sender.close()
            return sender

        sender = run(scenario())
        assert sender.socket_errors == 2


#: One datagram apiece that must cost exactly one ``decode_errors``: the
#: codec suite's lying v2 headers and the parent's v1 JSON, over a socket.
HOSTILE_DATAGRAMS = [
    b"\xff garbage",
    *(HOSTILE[name] for name in sorted(HOSTILE)),
    *(V1_DATAGRAMS[name] for name in sorted(V1_DATAGRAMS)),
]
MESSAGE = Message(sender=1, target=2, payload=[(1, False)], kind="sandf")
VALID_MESSAGE = encode(MESSAGE)  # the ledger scenario stamps it at send time
VALID_JOIN = encode(JoinRequest(node=1, port=9))  # refused by the filter below


class TestLedger:
    @settings(max_examples=15, deadline=None)
    @given(
        plan=st.lists(
            st.one_of(
                st.just(VALID_MESSAGE),
                st.just(VALID_JOIN),
                st.sampled_from(HOSTILE_DATAGRAMS),
                st.binary(max_size=64),
            ),
            min_size=1,
            max_size=40,
        ),
        drop_rate=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_every_datagram_lands_in_exactly_one_column(self, plan, drop_rate, seed):
        """received == delivered + dropped + filtered + decode_errors, over
        a real socket, whatever mix of honest and hostile bytes arrives."""

        async def scenario():
            inbox = []
            receiver = await AsyncioUdpTransport.create(
                lambda record, ts, addr: inbox.append(record),
                drop_rate=drop_rate,
                rng=make_rng(seed),
                inbound_filter=lambda record: not isinstance(record, JoinRequest),
            )
            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for datagram in plan:
                    if datagram == VALID_MESSAGE:
                        datagram = encode(MESSAGE, timestamp=time.monotonic())
                    raw.sendto(datagram, receiver.address)
                    await asyncio.sleep(0)  # drain as we go: no kernel-buffer loss
                for _ in range(200):
                    if receiver.datagrams_received == len(plan):
                        break
                    await asyncio.sleep(0.005)
            finally:
                raw.close()
                receiver.close()
            return inbox, receiver

        inbox, receiver = run(scenario())
        assert receiver.datagrams_received == len(plan)
        assert receiver.datagrams_received == (
            receiver.delivered + receiver.dropped + receiver.filtered
            + receiver.decode_errors
        )
        hostile = sum(datagram in HOSTILE_DATAGRAMS for datagram in plan)
        assert receiver.decode_errors >= hostile  # random bytes add their own
        assert len(inbox) == receiver.delivered
        # Every honest stamp is sampled, and lies between zero and the run.
        assert len(receiver.latency_samples) == receiver.delivered
        assert all(0.0 <= sample < 60.0 for sample in receiver.latency_samples)
        if drop_rate == 0.0:
            assert receiver.delivered == plan.count(VALID_MESSAGE)
            assert receiver.filtered == plan.count(VALID_JOIN)
        if drop_rate == 1.0:
            assert receiver.delivered == receiver.filtered == 0

    @pytest.mark.parametrize("index", range(len(HOSTILE_DATAGRAMS)))
    def test_hostile_datagram_costs_one_decode_error(self, index):
        async def scenario():
            receiver = await AsyncioUdpTransport.create(lambda *a: None)
            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                raw.sendto(HOSTILE_DATAGRAMS[index], receiver.address)
                raw.sendto(VALID_MESSAGE, receiver.address)  # and the node lives on
                for _ in range(200):
                    if receiver.datagrams_received == 2:
                        break
                    await asyncio.sleep(0.005)
            finally:
                raw.close()
                receiver.close()
            return receiver

        receiver = run(scenario())
        assert (receiver.datagrams_received, receiver.decode_errors) == (2, 1)
        assert receiver.delivered == 1


class TestTimestampAdmission:
    def test_impossible_timestamps_are_delivered_but_not_sampled(self):
        """A finite ``ts`` from before the socket existed, or from the
        future, is still the sender's word only: the record is delivered,
        the latency percentiles never see it."""

        async def scenario():
            inbox = []
            receiver = await AsyncioUdpTransport.create(
                lambda record, ts, addr: inbox.append(record)
            )
            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                raw.sendto(encode(MESSAGE, timestamp=-1e300), receiver.address)
                raw.sendto(
                    encode(MESSAGE, timestamp=time.monotonic() + 3600.0),
                    receiver.address,
                )
                for _ in range(200):
                    if receiver.datagrams_received == 2:
                        break
                    await asyncio.sleep(0.005)
            finally:
                raw.close()
                receiver.close()
            return inbox, receiver

        inbox, receiver = run(scenario())
        assert inbox == [MESSAGE, MESSAGE]
        assert (receiver.delivered, receiver.decode_errors) == (2, 0)
        assert list(receiver.latency_samples) == []
