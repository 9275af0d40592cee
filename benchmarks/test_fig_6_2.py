"""F6.2 — Figure 6.2: structure of the degree Markov chain.

Reproduced structurally: solid (atomic) transitions move along the
sum-degree-preserving diagonals, dashed (loss/dup/del) transitions leave
them, and the isolated (0,0) state is disconnected/excluded.
"""

from conftest import emit

from repro.experiments import registry


def test_fig_6_2():
    result = registry.execute("fig-6.2")
    emit("Figure 6.2 — degree-MC transition structure", result.format())

    assert result.atomic_preserve_sum_degree()
    assert result.lossy_change_sum_degree()
    assert not result.isolated_state_present
    assert len(result.atomic_transitions) > 0
    assert len(result.lossy_transitions) > 0
