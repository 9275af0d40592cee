"""M2-load — message load is balanced and tracks indegree.

Expected shape: per-node receive counts correlate positively with
time-averaged indegree, the receive-load coefficient of variation stays
small (indegree CV plus Poisson noise), and no node carries a
disproportionate share of traffic.
"""

from conftest import emit

from repro.experiments import message_load, registry


def run_full():
    return registry.execute(
        "message-load", points=message_load.points(measure_rounds=250)
    )


def test_message_load():
    result = run_full()
    emit("Property M2 (operational) — message load vs indegree", result.format())

    assert result.correlation > 0.25
    assert result.load_cv < 0.2
    assert result.max_load_ratio < 1.7
    # Balanced indegrees (the MC's small CV) translate into balanced load.
    assert result.indegree_cv < 2 * result.mc_indegree_cv
