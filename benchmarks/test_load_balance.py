"""M2 — load balance: indegree variance converges from adversarial starts.

From a maximally indegree-skewed hubs topology and a high-diameter ring,
the indegree variance moves toward the degree-MC stationary level.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("load-balance")  # the full (paper-scale) preset


def test_load_balance():
    result = run_full()
    emit("Property M2 — load balance from adversarial topologies", result.format())

    hubs = result.variance_curves["hubs"]
    assert hubs[-1] < 0.1 * hubs[0], "hub imbalance must collapse"
    ring = result.variance_curves["ring"]
    assert ring[-1] < 12 * max(result.mc_variance, 1.0)
    # Both endpoints land in the same order of magnitude.
    assert hubs[-1] < 20 * max(result.mc_variance, 1.0)
