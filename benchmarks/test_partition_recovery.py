"""Partition tolerance — splits shorter than the id half-life heal.

Expected shape: cross-partition edge survival decays with split length
(tracking the Lemma 6.10 bound from below); short splits re-merge after
healing; a split much longer than the half-life drains all cross ids and
the halves never find each other again.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("partition-recovery")  # the full (paper-scale) preset


def test_partition_recovery():
    result = run_full()
    emit("Partition tolerance — the id half-life window", result.format())

    survivals = [row.survival_measured for row in result.rows]
    assert survivals == sorted(survivals, reverse=True)
    for row in result.rows:
        assert row.survival_measured <= row.survival_bound + 0.05
    short = [row for row in result.rows if row.partition_rounds <= 60]
    long = [row for row in result.rows if row.partition_rounds >= 400]
    assert all(row.remerged for row in short)
    assert all(not row.remerged for row in long)
    assert all(row.cross_edges_at_heal == 0 for row in long)
