"""Figure 6.1: S&F degree distributions vs the binomial reference.

Configuration from the paper: ``s = 90, dL = 0, ℓ = 0, ds(u) = 90`` for
every node, ``n ≫ s``.  Three curves per panel:

* *Binomial* — same expectation (mean ``dm/3 = 30``): ``Bin(90, 1/3)``;
* *S&F Analytical* — equation 6.1 (module
  :mod:`repro.analysis.degree_analytic`);
* *S&F Markov* — the degree MC restricted to the conserved sum-degree
  line (module :mod:`repro.markov.degree_mc`).

Shape claims reproduced: all three are centered on 30; the S&F indegree
distribution is *much* narrower than the binomial; the outdegree curves
have similar form and variance; Markov and analytical agree closely (and
a direct protocol simulation agrees with the Markov curve better than
with the analytical one, matching the paper's "more accurate" remark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.degree_analytic import (
    analytical_indegree_distribution,
    analytical_outdegree_distribution,
)
from repro.core.params import SFParams
from repro.experiments import registry
from repro.markov.degree_mc import DegreeMarkovChain
from repro.util.stats import binomial_pmf, distribution_mean_std
from repro.util.tables import format_histogram, format_series


@dataclass
class Fig61Result:
    """The three outdegree and three indegree curves of Figure 6.1."""

    dm: int
    outdegree: Dict[str, Dict[int, float]]
    indegree: Dict[str, Dict[int, float]]

    def moments(self) -> Dict[str, Dict[str, float]]:
        summary: Dict[str, Dict[str, float]] = {}
        for panel_name, panel in (("outdegree", self.outdegree), ("indegree", self.indegree)):
            for curve_name, pmf in panel.items():
                mean, std = distribution_mean_std(pmf)
                summary[f"{panel_name}/{curve_name}"] = {"mean": mean, "std": std}
        return summary

    def format(self) -> str:
        blocks = []
        for panel_name, panel, xs in (
            ("Node outdegree (Fig 6.1 right)", self.outdegree, range(0, self.dm + 1, 2)),
            ("Node indegree (Fig 6.1 left)", self.indegree, range(0, self.dm // 2 + 1)),
        ):
            x_values = [x for x in xs]
            series = {
                name: [pmf.get(x, 0.0) for x in x_values] for name, pmf in panel.items()
            }
            blocks.append(
                format_series(series, "degree", x_values, title=panel_name)
            )
        moment_lines = [
            f"{key}: mean={vals['mean']:.2f} std={vals['std']:.2f}"
            for key, vals in self.moments().items()
        ]
        histogram = format_histogram(
            self.outdegree["markov"],
            title="S&F Markov outdegree (visual)",
            width=36,
        )
        return "\n\n".join(blocks + [histogram, "\n".join(moment_lines)])


def points(dm: int = 90) -> List[dict]:
    """The one point: sum degree ``dm`` (the paper's ``s = 90``)."""
    return [{"dm": dm, "view_size": None}]


@registry.experiment(
    "fig-6.1",
    anchor="Fig 6.1 / §6.2 (degree distributions)",
    description="S&F degree distributions vs the binomial reference",
    points=points,
    fast=dict(dm=30),
    aggregate=registry.single_record,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> Fig61Result:
    """Experiment cell: the full three-curve figure for one sum degree."""
    dm = point["dm"]
    view_size = point["view_size"]
    s = view_size if view_size is not None else dm
    params = SFParams(view_size=s, d_low=0)
    markov = DegreeMarkovChain(params, loss_rate=0.0, conserved_sum_degree=dm).solve()

    analytic_out = analytical_outdegree_distribution(dm)
    analytic_in = analytical_indegree_distribution(dm)

    mean_out = dm / 3.0
    p_out = mean_out / dm
    binom_out = {d: binomial_pmf(d, dm, p_out) for d in range(0, dm + 1)}
    # The indegree mean is also dm/3 (Lemma 6.3) over support 0..dm/2.
    p_in = (dm / 3.0) / (dm / 2.0)
    binom_in = {k: binomial_pmf(k, dm // 2, p_in) for k in range(0, dm // 2 + 1)}

    return Fig61Result(
        dm=dm,
        outdegree={
            "binomial": binom_out,
            "analytical": analytic_out,
            "markov": markov.outdegree_pmf,
        },
        indegree={
            "binomial": binom_in,
            "analytical": analytic_in,
            "markov": markov.indegree_pmf,
        },
    )
