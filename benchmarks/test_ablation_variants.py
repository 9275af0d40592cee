"""Ablation — the section 5 optimizations the paper defers to future work.

Expected shape: mark-and-undelete substitutes undeletions for a large
share of duplications; replace-on-full eliminates classic deletions; wide
messages keep the system healthy with the same number of (bigger)
messages; all variants preserve the outdegree floor.
"""

from conftest import emit

from repro.experiments import registry


def run_full():
    return registry.execute("ablation")  # the full (paper-scale) preset


def test_ablation_variants():
    result = run_full()
    emit("Section 5 optimizations — ablation", result.format())

    base = result.row("base")
    marked = result.row("mark-and-undelete")
    replacing = result.row("replace-on-full")

    assert marked.undeletions > 0
    assert marked.duplication < base.duplication
    assert replacing.deletion == 0.0
    for row in result.rows:
        assert row.mean_outdegree >= result.params.d_low
