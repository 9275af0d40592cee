"""Detail tests for the Figure 6.1 runner and degree-MC result helpers."""

import math

import pytest

from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain


class TestFig61Details:
    @pytest.fixture(scope="class")
    def result(self):
        # the fast preset (dm = 30) keeps this module fast
        return registry.execute("fig-6.1", fast=True)

    def test_all_pmfs_normalized(self, result):
        for panel in (result.outdegree, result.indegree):
            for name, pmf in panel.items():
                assert math.isclose(sum(pmf.values()), 1.0, rel_tol=1e-6), name

    def test_small_dm_centered(self, result):
        for key, values in result.moments().items():
            assert values["mean"] == pytest.approx(10.0, abs=0.5), key

    def test_markov_support_is_even(self, result):
        assert all(d % 2 == 0 for d in result.outdegree["markov"])

    def test_format_includes_visual_histogram(self, result):
        assert "█" in result.format()

    def test_custom_view_size(self):
        # ds < s: the conserved line sits strictly inside the view bound.
        result = registry.execute(
            "fig-6.1", points=[{"dm": 20, "view_size": 30}]
        )
        mean = sum(d * p for d, p in result.outdegree["markov"].items())
        assert mean == pytest.approx(20 / 3, abs=0.3)


class TestDegreeMCResultHelpers:
    @pytest.fixture(scope="class")
    def solved(self):
        return DegreeMarkovChain(SFParams(view_size=12, d_low=2), 0.02).solve()

    def test_means_consistent_with_pmfs(self, solved):
        manual = sum(d * p for d, p in solved.outdegree_pmf.items())
        assert solved.expected_outdegree() == pytest.approx(manual)

    def test_mean_std_matches_util(self, solved):
        from repro.util.stats import distribution_mean_std

        mean, std = solved.indegree_mean_std()
        ref_mean, ref_std = distribution_mean_std(solved.indegree_pmf)
        assert mean == pytest.approx(ref_mean)
        assert std == pytest.approx(ref_std)

    def test_states_align_with_stationary(self, solved):
        assert len(solved.states) == len(solved.stationary)

    def test_p_full_is_probability(self, solved):
        assert 0.0 <= solved.p_full <= 1.0
        assert 0.0 <= solved.p_dup_holder <= 1.0

