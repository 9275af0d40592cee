"""§3.1-cmp — S&F vs shuffle vs push vs push-pull under loss.

The paper's motivating comparison: delete-on-send shuffles leak ids under
loss until nodes starve; keep-on-send push protocols survive loss but
accumulate mutual-edge dependence; S&F keeps its edge count level with
only mildly elevated dependence.
"""

from conftest import emit

from repro.experiments import baselines, registry


def run_full():
    return registry.execute("baselines", points=baselines.points(sample_every=25))


def test_baselines():
    result = run_full()
    emit("Section 3.1 — baseline comparison under 5% loss", result.format())

    assert result.edge_retention("shuffle") < 0.1
    assert result.isolated_nodes["shuffle"] > 0.5 * result.n
    assert result.edge_retention("sandf") > 0.8
    assert result.isolated_nodes["sandf"] == 0
    assert result.edge_retention("push") >= 1.0
    assert result.mutual_fraction["sandf"] < 0.5 * result.mutual_fraction["push"]
    assert result.mutual_fraction["sandf"] < 0.5 * result.mutual_fraction["pushpull"]
