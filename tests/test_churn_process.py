"""Tests for repro.churn.process."""

import pytest

from repro.churn.process import ChurnProcess, bootstrap_from_peer
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.util.rng import make_rng

from conftest import build_system


class TestBootstrap:
    def test_size_and_liveness(self, small_system):
        protocol, _ = small_system
        ids = bootstrap_from_peer(protocol, joiner=999, size=6, rng=make_rng(0))
        assert len(ids) == 6
        assert all(protocol.has_node(v) or v != 999 for v in ids)

    def test_excludes_joiner(self, small_system):
        protocol, _ = small_system
        for seed in range(5):
            ids = bootstrap_from_peer(protocol, joiner=3, size=6, rng=make_rng(seed))
            assert 3 not in ids

    def test_odd_size_rejected(self, small_system):
        protocol, _ = small_system
        with pytest.raises(ValueError):
            bootstrap_from_peer(protocol, 999, 5, make_rng(0))

    def test_explicit_peer(self, small_system):
        protocol, _ = small_system
        ids = bootstrap_from_peer(protocol, 999, 4, make_rng(0), peer=7)
        pool = set(protocol.view_of(7)) | {7}
        assert set(ids) <= pool

    def test_small_peer_view_padded_with_peer(self):
        protocol = SendForget(SFParams(view_size=8, d_low=0))
        protocol.add_node(0, [1, 1])
        protocol.add_node(1, [0, 0])
        ids = bootstrap_from_peer(protocol, 999, 6, make_rng(0), peer=0)
        assert len(ids) == 6
        assert 0 in ids  # padding uses the peer's own id

    def test_no_peers_rejected(self):
        protocol = SendForget(SFParams(view_size=8, d_low=0))
        protocol.add_node(0, [0, 0])
        with pytest.raises(ValueError):
            bootstrap_from_peer(protocol, 0, 2, make_rng(0))


class TestChurnProcess:
    def test_join_one_adds_fresh_node(self, small_system):
        protocol, _ = small_system
        churn = ChurnProcess(protocol, join_rate=1, leave_rate=0, seed=0)
        joiner = churn.join_one()
        assert protocol.has_node(joiner)
        assert joiner == 40  # next id after 0..39

    def test_leave_one_removes(self, small_system):
        protocol, _ = small_system
        churn = ChurnProcess(protocol, join_rate=0, leave_rate=1, seed=0)
        victim = churn.leave_one()
        assert victim is not None
        assert not protocol.has_node(victim)

    def test_leave_respects_min_population(self, small_system):
        protocol, _ = small_system
        churn = ChurnProcess(
            protocol, join_rate=0, leave_rate=1, min_population=40, seed=0
        )
        assert churn.leave_one() is None
        assert len(protocol.node_ids()) == 40

    def test_apply_round_poisson(self, small_system):
        protocol, _ = small_system
        churn = ChurnProcess(protocol, join_rate=2.0, leave_rate=1.0, seed=1)
        for _ in range(30):
            churn.apply_round()
        assert len(churn.joined) > 30  # ~60 expected
        assert len(churn.left) > 10    # ~30 expected

    def test_negative_rates_rejected(self, small_system):
        protocol, _ = small_system
        for join_rate, leave_rate in (
            (-1, 0),
            (float("nan"), 0),
            (0, float("nan")),
            (float("inf"), 0),
            (0, float("inf")),
        ):
            with pytest.raises(ValueError):
                ChurnProcess(protocol, join_rate=join_rate, leave_rate=leave_rate)

    def test_bootstrap_size_defaults_to_d_low(self, paper_params):
        protocol, _ = build_system(40, paper_params, init_outdegree=24)
        churn = ChurnProcess(protocol, 1, 0, seed=2)
        assert churn.bootstrap_size == 18

    def test_joiner_outdegree_invariant(self, small_system):
        """Joiners enter with a valid even outdegree ≥ d_low."""
        protocol, engine = small_system
        churn = ChurnProcess(protocol, join_rate=1, leave_rate=0.5, seed=3)
        for _ in range(20):
            churn.apply_round()
            engine.run_rounds(1)
        protocol.check_invariant()


class TestLeaveOneDoubleCountGuard:
    """A departed node must never be removed (or counted) twice."""

    class _StaleListProtocol(SendForget):
        """node_ids keeps reporting one ghost id after its removal.

        Models a wrapper whose membership list lags the ground truth;
        leave_one must consult has_node before removing.
        """

        def __init__(self, params, ghost):
            super().__init__(params)
            self.ghost = ghost

        def node_ids(self):
            ids = super().node_ids()
            if self.ghost not in ids:
                ids = ids + [self.ghost]
            return ids

    def test_ghost_pick_is_a_noop(self):
        params = SFParams(view_size=12, d_low=2)
        protocol = self._StaleListProtocol(params, ghost=0)
        for u in range(20):
            protocol.add_node(u, [(u + k) % 20 for k in range(1, 7)])
        protocol.remove_node(0)
        churn = ChurnProcess(protocol, 0.0, 1.0, min_population=2, seed=1)
        results = []
        for _ in range(40):
            results.append(churn.leave_one())
        # The ghost was (statistically) picked at least once and skipped.
        assert 0 not in churn.left
        assert None in results
        # Every recorded departure happened exactly once.
        assert len(churn.left) == len(set(churn.left))
        assert all(not protocol.has_node(v) for v in churn.left)

    def test_left_history_matches_population_delta(self, small_system):
        protocol, engine = small_system
        churn = ChurnProcess(protocol, 0.0, 1.0, min_population=10, seed=2)
        before = len(protocol.node_ids())
        removed = sum(1 for _ in range(25) if churn.leave_one() is not None)
        assert len(protocol.node_ids()) == before - removed
        assert len(churn.left) == removed
        engine.run_rounds(5)
        engine.stats.check_conservation()
