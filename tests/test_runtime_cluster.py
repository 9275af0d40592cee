"""Tests for repro.runtime.cluster (localhost UDP cluster harness).

Small clusters and short durations: these tests prove the machinery
(boot, join, kill/restart, reporting, obs streaming), not the
steady-state statistics — the §6.2 comparison lives in the paper tier.
"""

import asyncio
import math
import re
import socket
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core.sandf import SendForget
from repro.net.transport import AsyncioUdpTransport
from repro.net.wire import JoinRequest, Welcome, encode
from repro.protocols.base import Message, SendEffect
from repro.runtime.cluster import (
    ClusterConfig,
    ClusterNode,
    ClusterReport,
    LocalCluster,
    _percentile,
    run_cluster,
)

from test_net_wire import HOSTILE, V1_DATAGRAMS, ext_message


def tiny_config(**overrides):
    base = dict(
        n=8,
        view_size=8,
        d_low=2,
        drop_rate=0.0,
        rate=80.0,
        duration_s=0.6,
        seed=123,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestConfig:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            LocalCluster(tiny_config(n=2))

    def test_invalid_params_rejected_eagerly(self):
        with pytest.raises(ValueError):
            LocalCluster(tiny_config(view_size=8, d_low=4))

    def test_partition_knob_is_gone(self):
        with pytest.raises(TypeError, match="partition_groups"):
            tiny_config(partition_groups=2)

    @pytest.mark.parametrize(
        "knob", ["failure_detection", "suspect_after_s", "fail_after_s"]
    )
    def test_failure_detection_knobs_are_gone(self, knob):
        """A crash is a leave nobody announces (section 4.1): the cluster
        arms no failure detector and has nothing to configure for one."""
        with pytest.raises(TypeError, match=knob):
            tiny_config(**{knob: True})

    @pytest.mark.parametrize(
        "n, kill_wave, accepted",
        [(3, 0, True), (3, 1, False), (5, 2, True), (5, 3, False),
         (50, 47, True), (50, 48, False)],
    )
    def test_kill_wave_leaves_three_survivors_or_is_rejected(
        self, n, kill_wave, accepted
    ):
        """A ``kill_wave`` above ``n - 3`` is refused up front, never
        clamped at run time into a smaller wave than asked for."""
        if accepted:
            assert tiny_config(n=n, kill_wave=kill_wave).kill_wave == kill_wave
        else:
            with pytest.raises(ValueError, match="kill_wave"):
                tiny_config(n=n, kill_wave=kill_wave)

    def test_bootstrap_degree_even_and_in_bounds(self):
        for s, d_low in [(8, 2), (12, 4), (16, 2)]:
            cfg = tiny_config(view_size=s, d_low=d_low)
            degree = cfg.bootstrap_degree()
            assert degree % 2 == 0
            assert d_low <= degree <= s

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("drop_rate", -0.1), ("drop_rate", 1.5), ("drop_rate", math.nan),
            ("rate", 0.0), ("rate", -1.0), ("rate", math.inf), ("rate", math.nan),
            ("duration_s", -0.1), ("duration_s", math.inf), ("duration_s", math.nan),
            ("kill_restart", -1),
        ],
    )
    def test_out_of_range_value_is_rejected_before_any_socket(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            tiny_config(**{knob: value})


def make_report(**overrides):
    """A hand-built report: every count distinct, so a field read in place
    of another shows."""
    base = dict(
        n=12, live_nodes=9, duration_s=1.5, drop_rate=0.05, actions=101,
        datagrams_sent=103, datagrams_received=97, datagrams_dropped=5,
        datagrams_filtered=7, decode_errors=11, unroutable=13, restarts=2,
        degree_counts={4: 6, 6: 2, 8: 1}, degree_violations=[], errors=[],
        socket_errors=17, join_retry_timeouts=19, join_failures=23,
    )
    base.update(overrides)
    return ClusterReport(**base)


class TestReport:
    @pytest.mark.parametrize(
        "at_kill, now", [(0, 0), (160, 4), (160, 160)],
        ids=["drained-to-zero", "drained", "not-drained"],
    )
    def test_departed_counts_are_a_reading_not_a_verdict(self, at_kill, now):
        """However far the killed ids have drained, the run is clean."""
        report = make_report(
            killed_nodes=[3, 7], departed_instances_at_kill=at_kill,
            departed_instances=now,
        )
        assert report.ok()

    @pytest.mark.parametrize("killed", [[], [3, 7]], ids=["no-kill", "kill"])
    def test_departed_rows_follow_the_killed_nodes(self, killed):
        report = make_report(
            killed_nodes=killed, departed_instances_at_kill=147,
            departed_instances=4,
        )
        rows = dict(
            re.split(r"\s{2,}", line.strip(), maxsplit=1)
            for line in report.format().splitlines()[3:]
        )
        expected = (
            {"killed nodes": "2", "departed id instances at kill": "147",
             "departed id instances": "4"}
            if killed else {}
        )
        assert {k: v for k, v in rows.items() if "killed" in k or "departed" in k} == expected

    @pytest.mark.parametrize(
        "field",
        ["fd_enabled", "fd_detected", "fd_missed", "fd_false_positives", "fd_suppressed"],
    )
    def test_detector_fields_are_gone(self, field):
        with pytest.raises(TypeError, match=field):
            make_report(**{field: []})

    @pytest.mark.parametrize(
        "owner, name",
        [
            (ClusterReport, "detection_ok"),
            (LocalCluster, "detection_verdict"),
            (LocalCluster, "_grave_suppressed"),
        ],
        ids=lambda x: getattr(x, "__name__", x),
    )
    def test_detector_hooks_are_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_a_node_holds_a_view_and_no_detector(self):
        cluster = LocalCluster(tiny_config())
        node = ClusterNode(cluster, 0)
        assert not hasattr(node, "detector")
        with pytest.raises(TypeError, match="incarnation"):
            ClusterNode(cluster, 0, incarnation=1)

    def test_degree_pmf_is_normalised_and_sorted(self):
        report = make_report(degree_counts={6: 1, 4: 3})
        pmf = report.degree_pmf()
        assert list(pmf) == [4, 6]
        assert pmf == {4: 0.75, 6: 0.25}
        assert make_report(degree_counts={}).degree_pmf() == {}

    def test_drop_fraction_is_over_what_was_received(self):
        assert make_report().observed_drop_fraction() == 5 / 97
        assert make_report(datagrams_received=0).observed_drop_fraction() == 0.0

    @pytest.mark.parametrize(
        "sample, q, expected",
        [([], 0.5, 0.0), ([5.0], 0.99, 5.0), (range(1, 101), 0.5, 51.0),
         (range(1, 101), 0.99, 100.0)],
        ids=["empty", "one", "median-of-100", "p99-of-100"],
    )
    def test_percentile_is_nearest_rank(self, sample, q, expected):
        ordered = np.array(list(sample), dtype=np.float64)
        assert _percentile(ordered, q) == expected


class TestPublishMetrics:
    """``publish_metrics`` without a run: a hand-built report in, the
    ``cluster.*`` names out."""

    @staticmethod
    def publish(report, latency=()):
        registry = obs.Registry()
        with obs.activated(obs.Telemetry(registry=registry)):
            LocalCluster(tiny_config()).publish_metrics(
                report, np.array(latency, dtype=np.float64)
            )
        return registry.snapshot()

    @pytest.mark.parametrize(
        "field",
        ["actions", "datagrams_sent", "datagrams_received", "datagrams_dropped",
         "datagrams_filtered", "decode_errors", "socket_errors", "restarts",
         "join_retry_timeouts", "join_failures"],
    )
    def test_each_counter_is_its_report_field(self, field):
        report = make_report()
        counters = self.publish(report)["counters"]
        assert counters[f"cluster.{field}"] == getattr(report, field)

    def test_gauges_read_the_live_degrees(self):
        gauges = self.publish(make_report())["gauges"]
        assert gauges == {
            "cluster.live_nodes": 9,
            "cluster.outdegree_max": 8,
            "cluster.outdegree_mean": (4 * 6 + 6 * 2 + 8 * 1) / 9,
            "cluster.outdegree_min": 4,
        }

    def test_no_live_degree_no_degree_gauges(self):
        gauges = self.publish(make_report(live_nodes=0, degree_counts={}))["gauges"]
        assert gauges == {"cluster.live_nodes": 0}

    def test_every_latency_sample_is_observed(self):
        histograms = self.publish(make_report(), [0.002, 0.001, 0.004])["histograms"]
        assert histograms == {
            "cluster.delivery_latency_s": {
                "count": 3, "total": pytest.approx(0.007), "min": 0.001, "max": 0.004,
            }
        }

    def test_the_names_are_the_cluster_counters_and_nothing_else(self):
        """No detector metric, and the departed counts stay in the report."""
        snap = self.publish(
            make_report(killed_nodes=[3], departed_instances_at_kill=9,
                        departed_instances=2),
            [0.001],
        )
        names = {name for kind in ("counters", "gauges", "histograms") for name in snap[kind]}
        assert all(name.startswith("cluster.") for name in names)
        assert not any(name.startswith("cluster.fd_") or "departed" in name for name in names)
        assert len(snap["counters"]) == 10


class TestBasicRun:
    def test_clean_run_degrees_in_bounds(self):
        report = run_cluster(tiny_config())
        assert report.ok(), (report.degree_violations, report.errors)
        assert report.live_nodes == 8
        assert report.actions > 0
        assert report.datagrams_sent > 0
        # Observation 5.1 on every live view.
        for degree in report.degree_counts:
            assert degree % 2 == 0
            assert 2 <= degree <= 8

    def test_seeded_runs_share_structure(self):
        report = run_cluster(tiny_config())
        assert sum(report.degree_counts.values()) == report.live_nodes
        assert report.datagrams_received <= report.datagrams_sent

    def test_drop_injection_counted(self):
        report = run_cluster(tiny_config(drop_rate=0.5, duration_s=0.9))
        assert report.ok(), (report.degree_violations, report.errors)
        assert report.datagrams_dropped > 0
        assert 0.0 < report.observed_drop_fraction() < 1.0

    def test_report_format_renders(self):
        report = run_cluster(tiny_config())
        text = report.format()
        assert "UDP cluster" in text and "outdegree" in text

    def test_every_datagram_is_an_sf_pair(self):
        report = run_cluster(tiny_config(drop_rate=0.2))
        assert report.ok(), (report.degree_violations, report.errors)
        assert report.datagrams_filtered == 0
        assert "filtered (not [u, w])" in report.format()


class TestScenarios:
    def test_kill_restart_via_introducer(self):
        report = run_cluster(tiny_config(n=10, kill_restart=2, duration_s=1.0))
        assert report.ok(), (report.degree_violations, report.errors)
        assert report.restarts == 2
        assert report.live_nodes == 10  # everyone came back

    def test_manual_scenario_controls(self):
        async def scenario():
            cluster = LocalCluster(tiny_config(n=6))
            await cluster.start()
            await asyncio.sleep(0.15)
            await cluster.kill(3)
            assert 3 not in cluster.nodes
            await cluster.restart(3)
            assert cluster.nodes[3].running
            await asyncio.sleep(0.15)
            report = cluster.report()
            await cluster.shutdown()
            return report

        report = asyncio.run(scenario())
        assert report.restarts == 1
        assert report.live_nodes == 6

    def test_departed_instances_count_killed_ids_in_live_views(self):
        """``kill`` then ``report``: the count is the killed ids' instances
        summed slot by slot over the live views.  A crash is announced to
        nobody, so only the protocol drains them (section 6.5.2)."""

        async def scenario():
            # Clocks this slow never tick: the views stay the ring bootstrap.
            cluster = LocalCluster(tiny_config(n=8, rate=1e-6))
            await cluster.start()
            await cluster.kill(2)
            await cluster.kill(5)
            slots = [
                slot
                for node in cluster.live_nodes()
                for slot in node.protocol.raw_view(node.node_id).slots()
            ]
            report = cluster.report()
            await cluster.shutdown()
            return report, slots

        report, slots = asyncio.run(scenario())
        held = sum(slot is not None and slot[0] in (2, 5) for slot in slots)
        assert report.killed_nodes == [2, 5]
        assert report.departed_instances == held > 0
        assert report.departed_instances_at_kill == 0  # no wave ran
        assert report.ok(), (report.degree_violations, report.errors)
        assert "departed id instances" in report.format()

    @staticmethod
    def held(cluster, ids):
        """Instances of ``ids`` in live views, counted slot by slot."""
        return sum(
            slot is not None and slot[0] in ids
            for node in cluster.live_nodes()
            for slot in node.protocol.raw_view(node.node_id).slots()
        )

    def test_a_restart_takes_its_id_off_the_departed_count(self):
        """The rejoined id is live again; only the one still dead counts."""

        async def scenario():
            cluster = LocalCluster(tiny_config(n=8, rate=1e-6))
            await cluster.start()
            await cluster.kill(2)
            await cluster.kill(5)
            assert await cluster.restart(2)
            held = self.held(cluster, {5}), self.held(cluster, {2})
            report = cluster.report()
            await cluster.shutdown()
            return report, held

        report, (held_5, held_2) = asyncio.run(scenario())
        assert report.killed_nodes == [5]
        assert report.departed_instances == held_5 > 0
        assert held_2 > 0  # still in views, but no longer departed
        assert report.restarts == 1 and report.live_nodes == 7

    def test_a_failed_rejoin_leaves_the_id_departed(self):
        async def scenario():
            cluster = LocalCluster(
                tiny_config(n=8, rate=1e-6, join_timeout_s=0.02, join_retries=2,
                            join_backoff_cap_s=0.04)
            )
            await cluster.start()
            await cluster.kill(2)
            cluster._introducer.close()  # black-hole the join path
            assert not await cluster.restart(2)
            held = self.held(cluster, {2})
            report = cluster.report()
            await cluster.shutdown()
            return report, held

        report, held = asyncio.run(scenario())
        assert report.killed_nodes == [2]
        assert report.departed_instances == held > 0
        assert (report.restarts, report.join_failures) == (0, 1)


class TestObservability:
    def test_metrics_stream_into_obs(self):
        registry = obs.Registry()
        with obs.activated(obs.Telemetry(registry=registry)):
            report = run_cluster(tiny_config())
        snap = registry.snapshot()
        assert snap["counters"]["cluster.actions"] == report.actions
        assert snap["counters"]["cluster.datagrams_sent"] == report.datagrams_sent
        assert snap["gauges"]["cluster.live_nodes"] == report.live_nodes
        assert "cluster.outdegree_mean" in snap["gauges"]

    def test_latency_percentiles_sampled(self):
        report = run_cluster(tiny_config(rate=120.0))
        assert report.latency_p50_ms > 0.0
        assert report.latency_p99_ms >= report.latency_p50_ms


class TestJoinBackoff:
    def test_unreachable_introducer_exhausts_bounded_retries(self):
        """A dead introducer costs exactly ``join_retries`` timeouts and
        one counted join failure — never an exception out of restart()."""

        async def scenario():
            cluster = LocalCluster(
                tiny_config(
                    n=6,
                    join_timeout_s=0.05,
                    join_retries=3,
                    join_backoff_cap_s=0.1,
                )
            )
            await cluster.start()
            await asyncio.sleep(0.1)
            await cluster.kill(2)
            cluster._introducer.close()  # black-hole the join path
            rejoined = await cluster.restart(2)
            report_data = (
                rejoined,
                cluster.join_retry_timeouts,
                cluster.join_failures,
            )
            await cluster.shutdown()
            return report_data

        rejoined, retry_timeouts, join_failures = asyncio.run(scenario())
        assert rejoined is False
        assert retry_timeouts == 3
        assert join_failures == 1

    def test_rejoin_with_fewer_live_peers_than_the_bootstrap(self, monkeypatch):
        """n=4, s=12, dL=6: three survivors against a bootstrap outdegree
        of 8, so the introducer repeats live ids.  The run reports instead
        of raising, and every socket it bound is closed."""
        created = []
        create = AsyncioUdpTransport.create.__func__

        async def recording_create(cls, *args, **kwargs):
            created.append(await create(cls, *args, **kwargs))
            return created[-1]

        monkeypatch.setattr(
            AsyncioUdpTransport, "create", classmethod(recording_create)
        )
        report = run_cluster(
            tiny_config(n=4, view_size=12, d_low=6, kill_restart=1, drop_rate=0.05)
        )
        assert report.restarts + report.join_failures == 1
        assert report.ok(), (report.degree_violations, report.errors)
        assert len(created) == 4 + 1 + 1  # nodes, introducer, the rejoin
        assert all(transport._socket is None for transport in created)

    def test_short_welcome_is_a_counted_failure(self, monkeypatch):
        """A Welcome with fewer than dL ids fails the join, closes the
        joiner's socket and leaves no address behind."""

        def short_welcome(cluster, record, timestamp, addr):
            if isinstance(record, JoinRequest):
                welcome = Welcome(node=record.node, bootstrap=[0, 1])
                cluster._introducer.send_record(welcome, addr)

        async def scenario():
            cluster = LocalCluster(tiny_config(view_size=10, d_low=4))
            monkeypatch.setattr(LocalCluster, "_on_introducer", short_welcome)
            await cluster.start()
            await cluster.kill(2)
            rejoined = await cluster.restart(2)
            outcome = (rejoined, cluster.join_failures, 2 in cluster.address_book)
            await cluster.shutdown()
            return outcome

        assert asyncio.run(scenario()) == (False, 1, False)

    def test_restart_through_introducer_still_succeeds(self):
        report = run_cluster(
            tiny_config(n=10, kill_restart=2, duration_s=1.0, drop_rate=0.1)
        )
        assert report.restarts == 2
        assert report.join_failures == 0


def clock_timers(cluster):
    """Live (uncancelled) loop callbacks that belong to ``cluster`` or to one
    of its nodes: timers in the loop's heap plus those due and queued to run."""
    loop = asyncio.get_running_loop()
    owners = [cluster, *cluster.nodes.values()]
    return [
        handle
        for handle in [*loop._scheduled, *loop._ready]
        if not handle.cancelled()
        and any(getattr(handle._callback, "__self__", None) is o for o in owners)
    ]


def action_counts(nodes):
    return [node.protocol.stats.actions for node in nodes]


class ClosableTransport:
    """A socket-free transport: only what ``stop`` and ``report`` read."""

    address = ("127.0.0.1", 9)
    datagrams_sent = datagrams_received = dropped = filtered = 0
    decode_errors = unroutable = socket_errors = 0
    latency_samples = ()
    closed = False

    def close(self):
        self.closed = True


def socket_free_start(cluster, stopped):
    """A ``start`` that boots every node without a socket or a clock (the
    ``stopped`` ids down already, as if their first tick had raised), and
    the list of the nodes it boots."""
    booted = []

    async def start():
        cluster._loop = asyncio.get_running_loop()
        for u in range(cluster.config.n):
            node = ClusterNode(cluster, u)
            node.protocol.add_node(u, [(u + 1) % cluster.config.n] * 2)
            node.transport = ClosableTransport()
            node.running = u not in stopped
            cluster.nodes[u] = node
            booted.append(node)
        cluster.errors.extend(f"node {u} initiate: boom" for u in stopped)

    return start, booted


def shut_down(nodes):
    return bool(nodes) and all(not n.running and n.transport.closed for n in nodes)


class TestRunScenario:
    """``LocalCluster.run`` without sockets: the scenario's decisions and
    its teardown, whatever happened to the nodes before the one-third mark."""

    @pytest.mark.parametrize(
        "stopped, shortfall", [((), 0), ((0, 1, 2), 0), ((0, 1, 2, 3, 4), 2)]
    )
    def test_a_short_kill_wave_is_a_named_failure(self, stopped, shortfall):
        cluster = LocalCluster(tiny_config(kill_wave=5, duration_s=0.03))
        cluster.start, booted = socket_free_start(cluster, set(stopped))
        report = asyncio.run(cluster.run())
        assert report.wave_shortfall == shortfall
        assert len(report.killed_nodes) == (0 if shortfall else 5)
        # No clock runs here, so the views are still the bootstrap ones.
        killed = set(report.killed_nodes)
        held = sum(
            slot is not None and slot[0] in killed
            for node in booted
            if node.node_id not in killed and node.node_id not in stopped
            for slot in node.protocol.raw_view(node.node_id).slots()
        )
        assert report.departed_instances_at_kill == report.departed_instances == held
        assert report.ok() is (not stopped)
        assert ("kill wave shortfall" in report.format()) is bool(shortfall)
        assert shut_down(booted)

    def test_kill_restart_with_no_live_node_restarts_nobody(self):
        cluster = LocalCluster(tiny_config(kill_restart=2, duration_s=0.03))
        cluster.start, booted = socket_free_start(cluster, set(range(8)))
        report = asyncio.run(cluster.run())
        assert report.restarts == 0 and report.live_nodes == 0
        assert len(report.errors) == 8 and not report.ok()
        assert shut_down(booted)

    def test_a_raising_scenario_still_shuts_down(self):
        cluster = LocalCluster(tiny_config(kill_restart=1, duration_s=0.03))
        cluster.start, booted = socket_free_start(cluster, set())

        async def failing_kill(node_id):
            raise RuntimeError("kill failed")

        cluster.kill = failing_kill
        with pytest.raises(RuntimeError, match="kill failed"):
            asyncio.run(cluster.run())
        assert shut_down(booted)


class TestInitiateClock:
    """The cluster keeps one clock for all its nodes: one loop timer while
    it runs, none after ``shutdown``; a node that stops, is killed or
    raises never ticks again, and the others never notice."""

    def test_one_loop_timer_while_running_and_none_after_shutdown(self):
        async def scenario():
            cluster = LocalCluster(tiny_config(n=6, rate=400.0))
            await cluster.start()
            seen = []
            for _ in range(5):
                seen.append(len(clock_timers(cluster)))
                await asyncio.sleep(0.02)
            await cluster.kill(2)
            assert await cluster.restart(2)
            seen.append(len(clock_timers(cluster)))
            await cluster.shutdown()
            assert clock_timers(cluster) == [] and cluster._clock == []
            return seen

        assert asyncio.run(scenario()) == [1] * 6

    def test_stop_and_kill_freeze_the_node(self):
        async def scenario():
            cluster = LocalCluster(tiny_config(n=6, rate=400.0))
            await cluster.start()
            await asyncio.sleep(0.1)
            stopped, killed = cluster.nodes[1], cluster.nodes[2]
            stopped.stop()
            await cluster.kill(2)
            frozen = action_counts([stopped, killed])
            assert min(frozen) > 0
            assert not stopped.running and not killed.running
            others = [cluster.nodes[u] for u in (0, 3, 4, 5)]
            before = action_counts(others)
            await asyncio.sleep(0.1)
            assert frozen == action_counts([stopped, killed])
            assert all(b > a for a, b in zip(before, action_counts(others)))
            assert len(clock_timers(cluster)) == 1
            stopped.stop()  # idempotent
            await cluster.shutdown()

        asyncio.run(scenario())

    def test_restart_ticks_under_the_new_incarnation(self):
        async def scenario():
            cluster = LocalCluster(tiny_config(n=6, rate=400.0))
            await cluster.start()
            await asyncio.sleep(0.05)
            old = cluster.nodes[3]
            await cluster.kill(3)
            assert await cluster.restart(3)
            new = cluster.nodes[3]
            assert new is not old and new.running and not old.running
            old_actions = old.protocol.stats.actions
            await asyncio.sleep(0.1)
            assert new.protocol.stats.actions > 0
            assert old.protocol.stats.actions == old_actions
            report = cluster.report()
            await cluster.shutdown()
            return report

        report = asyncio.run(scenario())
        assert report.ok(), (report.degree_violations, report.errors)
        assert report.live_nodes == 6

    def test_stopping_a_superseded_incarnation_spares_its_replacement(self):
        """At the parent ``old.stop()`` unregistered the live node 3: every
        later send to it was counted ``unroutable``."""

        async def scenario():
            # Clocks this slow never tick: the one datagram is the test's own.
            cluster = LocalCluster(tiny_config(n=6, rate=1e-6))
            await cluster.start()
            old = cluster.nodes[3]
            await cluster.kill(3)
            assert cluster.resolve(3) is None
            assert await cluster.restart(3)
            new = cluster.nodes[3]
            old.stop()
            assert cluster.resolve(3) == new.transport.address
            before = new.transport.delivered  # its Welcome
            message = Message(
                sender=0, target=3, payload=[(0, False), (1, False)], kind="sandf"
            )
            assert cluster.nodes[0].transport.send(SendEffect(message), cluster.draws)
            await asyncio.sleep(0.1)
            report = cluster.report()
            await cluster.shutdown()
            return new.transport.delivered - before, report

        delivered, report = asyncio.run(scenario())
        assert delivered == 1
        assert report.unroutable == 0
        assert report.ok(), (report.degree_violations, report.errors)

    def test_a_raising_tick_stops_that_node_only(self, monkeypatch):
        real = SendForget.initiate_effects

        async def scenario():
            cluster = LocalCluster(tiny_config(n=6, rate=400.0))
            await cluster.start()
            victim = cluster.nodes[4]

            def faulty(self, node_id, rng):
                if self is victim.protocol:
                    raise RuntimeError("boom")
                return real(self, node_id, rng)

            monkeypatch.setattr(SendForget, "initiate_effects", faulty)
            await asyncio.sleep(0.1)
            assert not victim.running and len(clock_timers(cluster)) == 1
            others = [node for u, node in cluster.nodes.items() if u != 4]
            before = action_counts(others)
            await asyncio.sleep(0.1)
            grew = all(b > a for a, b in zip(before, action_counts(others)))
            report = cluster.report()
            await cluster.shutdown()
            return grew, report

        grew, report = asyncio.run(scenario())
        assert grew
        assert len(report.errors) == 1
        assert "node 4 initiate" in report.errors[0] and "boom" in report.errors[0]
        assert report.live_nodes == 5 and not report.ok()

    def test_saturated_clock_starves_neither_sockets_nor_nodes(self):
        async def scenario():
            cluster = LocalCluster(
                tiny_config(n=20, view_size=12, d_low=4, drop_rate=0.05, rate=5000.0)
            )
            await cluster.start()
            await asyncio.sleep(0.3)
            report = cluster.report()
            nodes = list(cluster.nodes.values())
            await cluster.shutdown()
            actions = action_counts(nodes)
            await asyncio.sleep(0.05)
            assert actions == action_counts(nodes)
            assert clock_timers(cluster) == []
            assert not any(node.running for node in nodes)
            return report, actions

        report, actions = asyncio.run(scenario())
        assert report.ok(), (report.degree_violations, report.errors)
        assert report.actions > 20 * 50  # really saturated, not idling
        # Every clock is always overdue, yet the loop still reads the sockets
        # between firings and every node gets its turn in each.
        assert report.datagrams_received >= 0.9 * report.datagrams_sent
        assert min(actions) >= 0.5 * sum(actions) / len(actions)

    def test_paced_clock_keeps_the_poisson_rate(self):
        """``n`` exponential clocks at ``rate`` superpose into one Poisson
        stream of ``n * rate``.  A gap starts when its tick *ran*, which the
        selector lets be up to ``slack_s`` late (epoll rounds a
        timeout up to the millisecond), so the band opens downward by that."""
        n, rate, slack_s, sigmas = 10, 200.0, 1e-3, 5.0

        async def scenario():
            cluster = LocalCluster(tiny_config(n=n, rate=rate))
            await cluster.start()
            loop = asyncio.get_running_loop()
            began = loop.time()
            await asyncio.sleep(1.0)
            actions = sum(action_counts(cluster.nodes.values()))
            elapsed = loop.time() - began
            await cluster.shutdown()
            return actions, elapsed

        actions, elapsed = asyncio.run(scenario())
        on_time = n * rate * elapsed
        all_late = n * elapsed / (1.0 / rate + slack_s)
        assert actions >= all_late - sigmas * all_late**0.5
        assert actions <= on_time + sigmas * on_time**0.5


class TestSocketErrors:
    def test_socket_errors_reach_the_report_through_the_graveyard(self):
        """Counts of a killed incarnation and of a live node both show up
        in the report, its table and the ``cluster.*`` metrics."""
        refused = ("255.255.255.255", 9)  # no SO_BROADCAST: the OS says EACCES

        async def scenario():
            cluster = LocalCluster(tiny_config(n=6))
            await cluster.start()
            request = JoinRequest(node=0, port=1)
            for _ in range(2):
                cluster.nodes[1].transport.send_record(request, refused)
            cluster.nodes[2].transport.send_record(request, refused)
            await cluster.kill(1)
            report = cluster.report()
            await cluster.shutdown()
            return report

        registry = obs.Registry()
        with obs.activated(obs.Telemetry(registry=registry)):
            report = asyncio.run(scenario())
        assert report.socket_errors == 3
        assert "socket errors" in report.format()
        assert registry.snapshot()["counters"]["cluster.socket_errors"] == 3


class TestHostileDatagrams:
    @staticmethod
    def attack(datagrams, **config):
        """Node 0, the report and node 0's view before and after a stranger
        sends it ``datagrams``."""

        async def scenario():
            cluster = LocalCluster(tiny_config(n=6, **config))
            await cluster.start()
            node = cluster.nodes[0]
            before = node.protocol.view_of(0)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as attacker:
                for datagram in datagrams:
                    attacker.sendto(datagram, cluster.address_book[0])
            await asyncio.sleep(0.2)
            report, after = cluster.report(), node.protocol.view_of(0)
            await cluster.shutdown()
            return node, report, before, after

        return asyncio.run(scenario())

    def test_an_ext_is_ignored_and_the_pair_delivered(self):
        """The wire still carries a message's ``ext`` tail, but no node
        reads it: a detector blob, a malformed one or a foreign key, each
        ``[1, 2]`` is one plain receive and never a node error."""
        hostile = [
            ext_message(b'{"fd":{"v":1,"g":[[7,2,0,0]]}}'),
            ext_message(b'{"fd":{"v":1,"g":5}}'),
            ext_message(b'{"fd":{"v":1,"g":[[1,1,0,Infinity]]}}'),
            ext_message(b'{"other":{"v":3}}'),
        ]
        # s=32 bootstraps 24 ids: room for all four pairs.
        node, report, before, after = self.attack(hostile, view_size=32, rate=1e-6)
        transport = node.transport
        assert (transport.delivered, transport.filtered) == (len(hostile), 0)
        assert transport.decode_errors == 0
        assert after - before == Counter({1: len(hostile), 2: len(hostile)})
        assert report.errors == []
        assert report.ok(), (report.degree_violations, report.errors)

    # Clocks at rate 1e-6 never tick during a test: no other traffic.

    def test_retired_wire_tag_is_a_decode_error_not_a_delivery(self):
        """A tag no runtime sends, stamped 1e300 s in the past: never
        ``delivered``, never a latency sample."""
        node, _, _, _ = self.attack([HOSTILE["unknown tag with a ts"]], rate=1e-6)
        transport = node.transport
        assert (transport.delivered, len(transport.latency_samples)) == (0, 0)
        assert transport.decode_errors == 1

    @pytest.mark.parametrize("name", ["v1 message", "v1 message the v1 decoder coerced"])
    def test_v1_datagram_costs_one_decode_error_and_nothing_else(self, name):
        """A peer still speaking schema 1 — an honest ``[u, w]``, or the one
        whose ``"s":"1"`` / ``[true,0]`` the v1 decoder read as ids."""
        node, report, before, after = self.attack([V1_DATAGRAMS[name]], rate=1e-6)
        transport = node.transport
        assert (transport.datagrams_received, transport.decode_errors) == (1, 1)
        assert (transport.delivered, transport.filtered, transport.dropped) == (0, 0, 0)
        assert after == before
        assert report.ok(), (report.degree_violations, report.errors)

    @pytest.mark.parametrize(
        "stray",
        [
            Message(sender=1, target=0, payload=[(3, False)], kind="push"),
            Message(sender=1, target=0, payload=[(3, False)], kind="sandf"),
            Message(sender=1, target=0, payload=[(3, False), (4, False)], kind="push"),
            Message(sender=1, target=5, payload=[(3, False), (4, False)], kind="sandf"),
            Message(sender=1, target=0, payload=[(3, False)] * 3, kind="sandf"),
        ],
        ids=["one id, push", "one id", "not S&F", "not mine", "three ids"],
    )
    def test_only_a_two_id_sandf_message_to_this_node_reaches_its_view(self, stray):
        """At the parent the first of these left node 0 at outdegree 7 —
        ``degree_violations == ['node 0 has odd outdegree 7']`` for the rest
        of the run: ``S&F-Receive`` takes a payload whole on the premise
        that it holds two ids (Observation 5.1)."""
        node, report, before, after = self.attack([encode(stray)], rate=1e-6)
        transport = node.transport
        assert report.degree_violations == []
        assert (transport.filtered, transport.delivered) == (1, 0)
        assert transport.decode_errors == 0
        assert after == before
        assert transport.datagrams_received == (
            transport.delivered + transport.dropped + transport.filtered
            + transport.decode_errors
        )

    def test_a_two_id_sandf_message_is_admitted(self):
        honest = Message(sender=1, target=0, payload=[(3, False), (4, True)], kind="sandf")
        node, report, before, after = self.attack([encode(honest)], rate=1e-6)
        assert (node.transport.filtered, node.transport.delivered) == (0, 1)
        assert after - before == {3: 1, 4: 1}
        assert report.ok(), (report.degree_violations, report.errors)

    def test_unroutable_join_port_reaches_no_address_book(self):
        """A port nobody can ``sendto`` (schema 1 could also spell 99999,
        which raised ``OverflowError`` inside the next gossip to id 5 and
        made asyncio close *that node's* socket): the introducer files
        nothing under id 5."""

        async def scenario():
            cluster = LocalCluster(tiny_config(n=6))
            await cluster.start()
            before = dict(cluster.address_book)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as attacker:
                attacker.sendto(HOSTILE["join port zero"], cluster.introducer_address)
            await asyncio.sleep(0.5)
            sockets_open = [
                not node.transport._socket.is_closing()
                for node in cluster.nodes.values()
            ]
            report = cluster.report()
            unchanged = cluster.address_book == before
            await cluster.shutdown()
            return sockets_open, unchanged, report

        sockets_open, unchanged, report = asyncio.run(scenario())
        assert unchanged
        assert all(sockets_open), sockets_open
        assert report.ok(), (report.degree_violations, report.errors)
