"""T6.3 — Section 6.3 threshold selection: d̂=30, δ=0.01 → dL=18, s=40."""

from conftest import emit

from repro.experiments import registry


def test_table_6_3():
    result = registry.execute("table-6.3")
    emit("Section 6.3 — threshold selection sweep", result.format())

    selection = result.lookup(30, 0.01)
    assert selection.d_low == 18
    assert selection.view_size == 40
    assert selection.low_tail <= 0.01
    assert selection.high_tail <= 0.01
