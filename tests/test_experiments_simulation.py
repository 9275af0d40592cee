"""Tests for the simulation-backed experiment runners.

Sizes are scaled down for test speed; the benchmarks run the full
configurations.  Assertions target the paper's *shape* claims rather than
exact numbers.
"""


import pytest

from repro.core.params import SFParams
from repro.experiments import (
    baselines,
    dup_del_balance,
    fig_6_4,
    join_integration,
    load_balance,
    registry,
    temporal_exp,
    uniformity_exp,
)
from repro.markov.solve_cache import DEFAULT_CACHE
from repro.runner import CheckpointStore, SweepRunner


class TestDupDelBalance:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "lemma-6.6",
            points=dup_del_balance.points(
                losses=(0.0, 0.05),
                n=200,
                warmup_rounds=300,
                measure_rounds=150,
                seed=100,
            ),
        )

    def test_lemma_6_6_residual_small(self, result):
        assert result.max_residual() < 0.01

    def test_lemma_6_7_interval(self, result):
        assert all(row.within_lemma_6_7 for row in result.rows)

    def test_mc_agrees_with_simulation(self, result):
        for row in result.rows:
            assert row.duplication == pytest.approx(row.mc_duplication, abs=0.01)

    def test_format(self, result):
        assert "dup" in result.format()


class TestFig64Simulated:
    def test_simulated_decay_below_bound(self):
        result = registry.execute(
            "fig-6.4",
            points=fig_6_4.points(
                losses=(0.01,),
                max_round=150,
                step=50,
                simulate_n=150,
                simulate_leavers=10,
                warmup_rounds=100,
                seed=101,
            ),
        )
        bound = result.bound_curves[0.01]
        simulated = result.simulated_curves[0.01]
        # Lemma 6.10 is an upper bound: simulation decays at least as fast
        # (small-sample slack of 10%).
        for b, s in zip(bound, simulated):
            assert s <= b + 0.1

    def test_simulated_curve_reaches_low_survival(self):
        result = registry.execute(
            "fig-6.4",
            points=fig_6_4.points(
                losses=(0.0,),
                max_round=150,
                step=150,
                simulate_n=150,
                simulate_leavers=10,
                warmup_rounds=100,
                seed=102,
            ),
        )
        assert result.simulated_curves[0.0][-1] < 0.3


class TestJoinIntegration:
    @staticmethod
    def _run(seed):
        (point,) = join_integration.points(n=250, joiners=6, warmup_rounds=200)
        return registry.execute("cor-6.14", points=[{**point, "seed": seed}])

    def test_corollary_6_14(self):
        assert self._run(seed=103).satisfied()

    def test_joiners_recover_outdegree(self):
        result = self._run(seed=104)
        assert all(d >= result.params.d_low for d in result.joiner_outdegrees)

    def test_theoretical_summary_renders(self):
        text = join_integration.theoretical_summary(
            SFParams(view_size=40, d_low=20), 0.01, 0.01, 28.0
        )
        assert "Lemma 6.13" in text


class TestLoadBalance:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "load-balance",
            points=load_balance.points(n=200, rounds=250, sample_every=50, seed=105),
        )

    def test_hubs_variance_collapses(self, result):
        curve = result.variance_curves["hubs"]
        assert curve[-1] < 0.2 * curve[0]

    def test_ring_variance_stays_bounded(self, result):
        curve = result.variance_curves["ring"]
        assert curve[-1] < 10 * max(result.mc_variance, 1.0)

    def test_requires_small_d_low(self):
        with pytest.raises(ValueError):
            load_balance.points(params=SFParams(view_size=16, d_low=4))

    def test_resume_solves_nothing(self, tmp_path):
        """The degree-MC prediction is a journaled cell like the curves,
        so a fully resumed run solves no chain and prints the same text."""

        def run():
            with SweepRunner(jobs=1, checkpoint=CheckpointStore(tmp_path)) as runner:
                return registry.execute("load-balance", fast=True, runner=runner)

        cold = run().format()
        DEFAULT_CACHE.clear_memory()
        misses = DEFAULT_CACHE.stats.misses
        assert run().format() == cold
        assert DEFAULT_CACHE.stats.misses == misses


class TestBaselines:
    @pytest.fixture(scope="class")
    def result(self):
        return registry.execute(
            "baselines",
            points=baselines.points(
                n=200, loss_rate=0.05, rounds=120, sample_every=60, seed=106
            ),
        )

    def test_shuffle_attrition(self, result):
        assert result.edge_retention("shuffle") < 0.2

    def test_sandf_stability(self, result):
        assert result.edge_retention("sandf") > 0.8

    def test_push_family_loss_immune(self, result):
        assert result.edge_retention("push") >= 1.0
        assert result.edge_retention("pushpull") >= 1.0

    def test_sandf_less_mutual_dependence_than_push(self, result):
        assert result.mutual_fraction["sandf"] < 0.5 * result.mutual_fraction["push"]
        assert result.mutual_fraction["sandf"] < 0.5 * result.mutual_fraction["pushpull"]

    def test_shuffle_isolates_nodes(self, result):
        assert result.isolated_nodes["shuffle"] > 0
        assert result.isolated_nodes["sandf"] == 0


class TestTemporalDecay:
    def test_decay_within_slogn_scale(self):
        result = registry.execute(
            "lemma-7.15",
            points=temporal_exp.points(
                n=200, max_rounds=160, sample_every=20, warmup_rounds=80, seed=107
            ),
        ).decay
        for loss in result.curves:
            crossing = result.decorrelation_round(loss, threshold=0.06)
            assert crossing <= 2.5 * result.reference_rounds

    def test_loss_does_not_break_decay(self):
        result = registry.execute(
            "lemma-7.15",
            points=temporal_exp.points(
                n=200,
                losses=(0.0, 0.05),
                max_rounds=120,
                sample_every=40,
                warmup_rounds=80,
                seed=108,
            ),
        ).decay
        clean = result.curves[0.0][-1]
        lossy = result.curves[0.05][-1]
        assert lossy < clean + 0.15


class TestUniformityEmpirical:
    def test_occupancy_uniform(self):
        result = registry.execute(
            "lemma-7.6",
            points=uniformity_exp.points(
                n=20,
                warmup_rounds=100,
                samples=40,
                sample_gap_rounds=12,
                replications=6,
                seed=109,
            ),
        ).empirical
        assert result.relative_spread < 0.5
        assert min(result.pooled_counts) > 0

    def test_replications_validated(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            uniformity_exp.points(replications=0)

    def test_exact_hub_uniform(self):
        result = uniformity_exp.run_exact(loss_rate=0.0)
        assert result.spread() < 1e-12
