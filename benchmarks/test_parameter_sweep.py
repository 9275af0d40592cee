"""§6.3 design-space sweep over (dL, s).

Expected shape: duplication increases along dL at fixed s; deletion
decreases along s at fixed dL; the §6.3-selected pair (18, 40) sits near
the δ=0.01 diagonal.
"""

from conftest import emit

from repro.experiments import parameter_sweep, registry


def test_parameter_sweep():
    result = registry.execute("parameter-sweep")
    emit("Section 6.3 — (dL, s) sensitivity", result.format())

    for view_size in (32, 40, 48):
        pairs = parameter_sweep.duplication_along_d_low(result, view_size)
        values = [dup for _, dup in pairs]
        assert values == sorted(values), f"dup not monotone in dL at s={view_size}"
    for d_low in (10, 14, 18):
        pairs = parameter_sweep.deletion_along_view_size(result, d_low)
        values = [dele for _, dele in pairs]
        assert values == sorted(values, reverse=True), (
            f"del not monotone in s at dL={d_low}"
        )
    chosen = result.cell(18, 40)
    assert 0.005 < chosen.duplication < 0.02
    assert chosen.deletion < 0.01
