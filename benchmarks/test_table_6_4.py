"""T6.4 — Section 6.4 in-text table: average indegree ± std per loss rate.

Paper values: 28±3.4, 27±3.6, 24±4.1, 23±4.3 for ℓ = 0, 0.01, 0.05, 0.1
(dL=18, s=40).  Means must match within 1; standard deviations within 1.
"""

import pytest
from conftest import emit

from repro.experiments import registry
from repro.util.tables import format_table

PAPER = {0.0: (28.0, 3.4), 0.01: (27.0, 3.6), 0.05: (24.0, 4.1), 0.1: (23.0, 4.3)}


def test_table_6_4():
    # The fast preset is the MC-only table (no simulation overlay).
    result = registry.execute("fig-6.3", fast=True)

    rows = []
    for row in result.rows:
        paper_mean, paper_std = PAPER[row.loss_rate]
        rows.append(
            [
                row.loss_rate,
                f"{paper_mean}±{paper_std}",
                f"{row.indegree_mean:.1f}±{row.indegree_std:.1f}",
            ]
        )
    emit(
        "Section 6.4 — indegree table, paper vs reproduced",
        format_table(["loss", "paper", "reproduced"], rows),
    )

    for row in result.rows:
        paper_mean, paper_std = PAPER[row.loss_rate]
        assert row.indegree_mean == pytest.approx(paper_mean, abs=1.0)
        assert row.indegree_std == pytest.approx(paper_std, abs=1.0)
