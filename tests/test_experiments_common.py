"""Tests for repro.experiments.common and the report CLI path."""

import pytest

from repro.core.params import SFParams
from repro.experiments.common import build_sf_system, warm_up


class TestBuildSystem:
    def test_default_bootstrap_outdegree(self):
        params = SFParams(view_size=16, d_low=6)
        protocol, _ = build_sf_system(50, params)
        # 3/4 of s rounded even = 12, within [dL+2, s−2].
        assert all(protocol.outdegree(u) == 12 for u in protocol.node_ids())

    def test_explicit_outdegree(self):
        params = SFParams(view_size=16, d_low=6)
        protocol, _ = build_sf_system(50, params, init_outdegree=8)
        assert all(protocol.outdegree(u) == 8 for u in protocol.node_ids())

    def test_ring_bootstrap_connected(self):
        params = SFParams(view_size=12, d_low=2)
        protocol, _ = build_sf_system(30, params, init_outdegree=4)
        assert protocol.export_graph().is_weakly_connected()

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_sf_system(2, SFParams(view_size=12, d_low=2))

    def test_odd_outdegree_rejected(self):
        with pytest.raises(ValueError):
            build_sf_system(30, SFParams(view_size=12, d_low=2), init_outdegree=5)

    def test_outdegree_must_fit_population(self):
        with pytest.raises(ValueError):
            build_sf_system(6, SFParams(view_size=12, d_low=2), init_outdegree=8)

    def test_custom_loss_model_used(self):
        from repro.net.loss import GilbertElliottLoss

        model = GilbertElliottLoss()
        _, engine = build_sf_system(
            20, SFParams(view_size=12, d_low=2), loss_model=model
        )
        assert engine.loss is model

    def test_stateful_loss_model_reset_per_system(self):
        """A reused GilbertElliott instance must not leak channel state
        between replications: build_sf_system resets it."""
        from repro.net.loss import GilbertElliottLoss

        model = GilbertElliottLoss(p_good_to_bad=0.5, p_bad_to_good=0.1)
        params = SFParams(view_size=12, d_low=2)

        def run_once():
            protocol, engine = build_sf_system(
                20, params, loss_model=model, seed=13
            )
            engine.run_rounds(10)
            return engine.stats.messages_lost, protocol.export_graph()

        lost_a, graph_a = run_once()
        assert model._bad_state  # channels evolved during the run
        lost_b, graph_b = run_once()
        # Same seed + clean channel state => a bit-identical replication.
        assert lost_a == lost_b
        assert graph_a == graph_b

    def test_warm_up_resets_stats(self):
        protocol, engine = build_sf_system(20, SFParams(view_size=12, d_low=2), seed=1)
        warm_up(engine, 10)
        assert protocol.stats.actions == 0
        assert engine.rounds_completed == pytest.approx(10.0, abs=0.01)


class TestBackends:
    def test_backend_registry(self):
        from repro.experiments.common import BACKENDS

        assert BACKENDS == ("reference", "array", "sharded", "reference-kernel")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            build_sf_system(20, SFParams(view_size=12, d_low=2), backend="gpu")
        with pytest.raises(ValueError, match=r"'jit'; expected one of \('reference'"):
            build_sf_system(20, SFParams(view_size=12, d_low=2), backend="jit")

    @pytest.mark.parametrize("backend", ["reference", "array", "reference-kernel"])
    def test_every_backend_builds_and_runs(self, backend):
        params = SFParams(view_size=12, d_low=2)
        protocol, engine = build_sf_system(
            30, params, loss_rate=0.05, seed=3, backend=backend
        )
        engine.run_rounds(15)
        assert engine.stats.actions == 30 * 15
        assert protocol.stats.actions == 30 * 15
        protocol.check_invariant()
        summary_nodes = protocol.node_ids()
        assert sorted(summary_nodes) == list(range(30))

    def test_default_backend_is_legacy_protocol(self):
        from repro.core.sandf import SendForget

        protocol, engine = build_sf_system(20, SFParams(view_size=12, d_low=2))
        assert isinstance(protocol, SendForget)
        assert engine.kernel is None

    def test_kernel_backends_share_trajectories(self):
        """'array' and 'reference-kernel' are bit-identical at any seed."""
        params = SFParams(view_size=12, d_low=2)
        ref_protocol, ref_engine = build_sf_system(
            40, params, loss_rate=0.1, seed=11, backend="reference-kernel"
        )
        arr_protocol, arr_engine = build_sf_system(
            40, params, loss_rate=0.1, seed=11, backend="array"
        )
        ref_engine.run_rounds(25)
        arr_engine.run_rounds(25)
        assert ref_engine.stats == arr_engine.stats
        for u in ref_protocol.node_ids():
            assert ref_protocol.view_slots(u) == arr_protocol.view_slots(u)

    def test_reference_backend_unchanged_by_kernel_layer(self):
        """Legacy trajectories at a fixed seed are part of the contract:
        the default backend must keep producing them."""
        params = SFParams(view_size=12, d_low=2)
        protocol_a, engine_a = build_sf_system(25, params, seed=9)
        engine_a.run_rounds(20)
        protocol_b, engine_b = build_sf_system(25, params, seed=9)
        engine_b.run_rounds(20)
        assert protocol_a.export_graph() == protocol_b.export_graph()


class TestReportCommand:
    def test_report_writes_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "report",
                "table-6.3",
                "--fast",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "table-6_3.txt").exists()
        assert (tmp_path / "out" / "table-6_3.json").exists()
        assert "report written" in capsys.readouterr().out

    def test_report_unknown_experiment(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["report", "bogus", "--output", str(tmp_path)])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err
