"""F6.1 — Figure 6.1: degree distributions vs binomial (s=90, dL=0, ℓ=0).

Paper claims reproduced: all curves centered at dm/3 = 30; the S&F
indegree distribution is much narrower than the binomial reference; the
analytical and Markov outdegree curves have similar form and variance.
"""

from conftest import emit

from repro.experiments import registry


def test_fig_6_1():
    result = registry.execute("fig-6.1")
    emit("Figure 6.1 — degree distributions (s=90, dL=0, l=0, ds=90)", result.format())

    moments = result.moments()
    for key in ("outdegree/markov", "indegree/markov", "outdegree/analytical"):
        assert moments[key]["mean"] == __import__("pytest").approx(30.0, abs=0.5)
    assert moments["indegree/markov"]["std"] < 0.85 * moments["indegree/binomial"]["std"]
    ratio = moments["outdegree/markov"]["std"] / moments["outdegree/binomial"]["std"]
    assert 0.8 < ratio < 1.25
