"""Section 3.1 comparison: S&F vs shuffle vs push vs push-pull under loss.

The paper positions S&F between two failure modes:

* protocols that **delete sent ids** (shuffle/Cyclon/flipper) leak ids
  under loss — the system "gradually loses more and more ids";
* protocols that **keep sent ids** (lpbcast-style push, Allavena-style
  push-pull) are loss-immune but induce spatial dependence between
  neighbor views.

The experiment subjects all four protocols to the same population, loss
rate, and horizon, then reports (a) total id instances over time — the
attrition signal — and (b) the neighbor-view overlap excess — the
dependence signal.  Expected shape: shuffle's edges decay toward zero;
S&F's stay level; push/push-pull stay level but with markedly higher
overlap than S&F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.experiments import registry
from repro.metrics.independence import mutual_edge_fraction, neighbor_overlap_fraction
from repro.net.loss import UniformLoss
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol
from repro.util.tables import format_series, format_table


@dataclass
class BaselineComparisonResult:
    n: int
    loss_rate: float
    rounds: List[float]
    edge_curves: Dict[str, List[int]] = field(default_factory=dict)
    final_overlap: Dict[str, float] = field(default_factory=dict)
    mutual_fraction: Dict[str, float] = field(default_factory=dict)
    isolated_nodes: Dict[str, int] = field(default_factory=dict)

    def edge_retention(self, protocol_name: str) -> float:
        curve = self.edge_curves[protocol_name]
        if curve[0] == 0:
            raise ValueError("empty initial system")
        return curve[-1] / curve[0]

    def format(self) -> str:
        body = format_series(
            {name: [float(v) for v in curve] for name, curve in self.edge_curves.items()},
            "round",
            [int(r) for r in self.rounds],
            title=(
                f"Baseline comparison (n={self.n}, l={self.loss_rate}): "
                "total id instances over time"
            ),
            precision=0,
        )
        rows = [
            [
                name,
                f"{self.edge_retention(name):.3f}",
                f"{self.final_overlap[name]:.4f}",
                f"{self.mutual_fraction[name]:.4f}",
                self.isolated_nodes[name],
            ]
            for name in self.edge_curves
        ]
        summary = format_table(
            ["protocol", "edge retention", "neighbor overlap", "mutual edges", "isolated nodes"],
            rows,
            title="Final-state summary",
        )
        return f"{body}\n\n{summary}"


def _total_instances(protocol) -> int:
    return sum(
        sum(protocol.view_of(u).values()) for u in protocol.node_ids()
    )


#: Compared protocols, in reporting order.
_PROTOCOLS = ("sandf", "shuffle", "push", "pushpull")


def _build_protocol(name: str, view_size: int, d_low: int):
    if name == "sandf":
        return SendForget(SFParams(view_size=view_size, d_low=d_low))
    if name == "shuffle":
        return ShuffleProtocol(view_size=view_size, shuffle_length=3)
    if name == "push":
        return PushProtocol(view_size=view_size, gossip_length=2)
    if name == "pushpull":
        return PushPullProtocol(view_size=view_size)
    raise ValueError(f"unknown baseline protocol {name!r}")


def points(
    n: int = 300,
    loss_rate: float = 0.05,
    view_size: int = 16,
    d_low: int = 6,
    rounds: int = 200,
    sample_every: int = 40,
    seed: int = 31,
) -> List[dict]:
    """One point per protocol on identical populations under the same loss.

    All four protocols share one engine seed: identical populations,
    identical channel randomness.
    """
    return [
        {
            "protocol": protocol,
            "n": n,
            "loss": loss_rate,
            "view_size": view_size,
            "d_low": d_low,
            "rounds": rounds,
            "sample_every": sample_every,
            "seed": seed,
        }
        for protocol in _PROTOCOLS
    ]


def _aggregate(
    points: List[dict], records: List[object]
) -> BaselineComparisonResult:
    first = points[0]
    result = BaselineComparisonResult(
        n=first["n"], loss_rate=first["loss"], rounds=[]
    )
    for point, record in zip(points, records):
        name = point["protocol"]
        result.rounds = record["rounds"]
        result.edge_curves[name] = record["edges"]
        result.final_overlap[name] = record["overlap"]
        result.mutual_fraction[name] = record["mutual"]
        result.isolated_nodes[name] = record["isolated"]
    return result


@registry.experiment(
    "baselines",
    anchor="§3.1 (S&F vs shuffle / push / push-pull under loss)",
    description="id attrition and dependence signals across four protocols",
    points=points,
    fast=dict(n=200, rounds=120),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> dict:
    """Experiment cell: one protocol's trajectory and final-state summary."""
    n = point["n"]
    view_size = point["view_size"]
    rounds, sample_every = point["rounds"], point["sample_every"]
    init_outdegree = min(view_size - 6, 8)
    if init_outdegree % 2 != 0:
        init_outdegree -= 1

    protocol = _build_protocol(point["protocol"], view_size, point["d_low"])
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, init_outdegree + 1)])

    engine = SequentialEngine(protocol, UniformLoss(point["loss"]), seed=seed)
    xs: List[float] = [0.0]
    ys: List[int] = [_total_instances(protocol)]
    elapsed = 0
    while elapsed < rounds:
        step = min(sample_every, rounds - elapsed)
        engine.run_rounds(step)
        elapsed += step
        xs.append(float(elapsed))
        ys.append(_total_instances(protocol))
    try:
        overlap = neighbor_overlap_fraction(protocol)
        mutual = mutual_edge_fraction(protocol)
    except ValueError:
        overlap = float("nan")
        mutual = float("nan")
    isolated = getattr(protocol, "isolated_count", None)
    if isolated is not None:
        isolated_nodes = isolated()
    else:
        isolated_nodes = sum(
            1 for u in protocol.node_ids() if protocol.outdegree(u) == 0
        )
    return {
        "rounds": xs,
        "edges": ys,
        "overlap": overlap,
        "mutual": mutual,
        "isolated": isolated_nodes,
    }
