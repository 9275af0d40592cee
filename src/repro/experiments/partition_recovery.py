"""Partition tolerance: how long a split can last before it is permanent.

S&F keeps no routing state — a node's only knowledge of the "other side"
is the other side's ids in its view.  During a partition every
cross-partition message is lost, so (a) each half keeps itself alive by
duplication, and (b) the other side's ids drain from views at exactly the
Lemma 6.10 rate.  When the partition heals:

* if cross ids survive (short partitions), normal gossip re-knits the
  overlay within a few rounds;
* if they have fully drained (long partitions), the halves can never
  rediscover each other without an external join — the membership graph
  stays disconnected forever.

The experiment measures surviving cross-partition edges as a function of
partition length and whether the healed overlay re-merges, mapping the
tolerance window to the ≈70-round id half-life of Figure 6.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.decay import id_survival_bound
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.experiments import registry
from repro.net.loss import PartitionLoss
from repro.util.tables import format_table


@dataclass
class PartitionRow:
    partition_rounds: int
    cross_edges_before: int
    cross_edges_at_heal: int
    survival_measured: float
    survival_bound: float
    remerged: bool


@dataclass
class PartitionRecoveryResult:
    n: int
    params: SFParams
    recovery_rounds: int
    rows: List[PartitionRow] = field(default_factory=list)

    def format(self) -> str:
        table_rows = [
            [
                row.partition_rounds,
                row.cross_edges_before,
                row.cross_edges_at_heal,
                f"{row.survival_measured:.3f}",
                f"{row.survival_bound:.3f}",
                row.remerged,
            ]
            for row in self.rows
        ]
        return format_table(
            [
                "split rounds",
                "cross edges t0",
                "at heal",
                "survival",
                "L6.10 bound",
                f"re-merged (+{self.recovery_rounds}r)",
            ],
            table_rows,
            title=(
                f"Partition tolerance (n={self.n}, dL={self.params.d_low}, "
                f"s={self.params.view_size}): the window is the id half-life"
            ),
        )


def _cross_edges(protocol: SendForget, half: int) -> int:
    count = 0
    for u in protocol.node_ids():
        u_side = u < half
        for v, multiplicity in protocol.view_of(u).items():
            if (v < half) != u_side:
                count += multiplicity
    return count


def points(
    n: int = 200,
    partition_lengths: Sequence[int] = (20, 60, 150, 400),
    params: SFParams = SFParams(view_size=16, d_low=6),
    warmup_rounds: float = 150.0,
    recovery_rounds: int = 60,
    seed: int = 88,
) -> List[dict]:
    """One point per split duration: split in half, then heal and observe.

    Each split length runs on engine seed ``seed + length``.
    """
    return [
        {
            "partition_rounds": rounds_split,
            "n": n,
            "view_size": params.view_size,
            "d_low": params.d_low,
            "warmup_rounds": warmup_rounds,
            "recovery_rounds": recovery_rounds,
            "seed": seed + rounds_split,
        }
        for rounds_split in partition_lengths
    ]


def _aggregate(
    points: Sequence[dict], records: Sequence[object]
) -> PartitionRecoveryResult:
    first = points[0]
    return PartitionRecoveryResult(
        n=first["n"],
        params=SFParams(view_size=first["view_size"], d_low=first["d_low"]),
        recovery_rounds=first["recovery_rounds"],
        rows=list(records),
    )


@registry.experiment(
    "partition-recovery",
    anchor="§6.5.2 applied (partition-tolerance window)",
    description="cross-partition edge survival and re-merge per split length",
    points=points,
    fast=dict(n=100, partition_lengths=(20, 300), warmup_rounds=80.0),
    aggregate=_aggregate,
)
def _cell(point: dict, seed, *, backend: str = "reference") -> PartitionRow:
    """Experiment cell: one split length's full split/heal cycle."""
    n = point["n"]
    params = SFParams(view_size=point["view_size"], d_low=point["d_low"])
    rounds_split = point["partition_rounds"]
    half = n // 2
    protocol = SendForget(params)
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 11)])
    loss = PartitionLoss({u: int(u >= half) for u in range(n)})
    loss.heal()  # start healthy for the warm-up
    engine = SequentialEngine(protocol, loss, seed=seed)
    engine.run_rounds(point["warmup_rounds"])

    before = _cross_edges(protocol, half)
    loss.split()
    engine.run_rounds(rounds_split)
    at_heal = _cross_edges(protocol, half)
    loss.heal()
    engine.run_rounds(point["recovery_rounds"])
    remerged = protocol.export_graph().is_weakly_connected()

    return PartitionRow(
        partition_rounds=rounds_split,
        cross_edges_before=before,
        cross_edges_at_heal=at_heal,
        survival_measured=at_heal / max(before, 1),
        survival_bound=id_survival_bound(
            rounds_split,
            params.d_low,
            params.view_size,
            0.0,  # intra-half traffic is lossless here
            0.05,  # generous duplication allowance during the split
        ),
        remerged=remerged,
    )
