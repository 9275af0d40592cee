"""Exhaustive global Markov chain over membership graphs (sections 7.1–7.2).

For *tiny* systems, every membership graph reachable from an initial state
can be enumerated by breadth-first search over S&F transformations, and the
chain's transition matrix built exactly.  This validates the structural
lemmas directly:

* Lemma 7.3 — with no loss the restricted chain ``G_d̄s`` is reversible;
* Lemma 7.4 — all state in/out-degrees are equal (doubly stochastic);
* Lemma 7.5 — the stationary distribution over ``G_d̄s`` is uniform;
* Lemma 7.1/7.2 — with ``0 < ℓ < 1`` the reachable chain is strongly
  connected and ergodic, hence has a unique stationary distribution.

Partitioned successor states are excluded, with their probability folded
back as self-loops — exactly the paper's construction of 𝒢 (section 7.1).

State counts grow combinatorially; the builder enforces a configurable cap
and raises rather than grinding forever.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.params import SFParams
from repro.markov.chain import MarkovChain
from repro.model.membership_graph import MembershipGraph
from repro.model.transformations import enumerate_action_outcomes

CanonicalState = Tuple


class GlobalMarkovChain:
    """The exact MC on membership graphs reachable from ``initial``.

    Args:
        params: protocol parameters ``(s, dL)``.
        loss_rate: the uniform loss probability ℓ.
        initial: a weakly connected starting membership graph.
        max_states: safety cap on the enumeration.

    Transitions into partitioned graphs are folded back as self-loops (the
    paper's 𝒢 construction).
    """

    def __init__(
        self,
        params: SFParams,
        loss_rate: float,
        initial: MembershipGraph,
        max_states: int = 200_000,
    ):
        if not initial.is_weakly_connected():
            raise ValueError("initial membership graph must be weakly connected")
        for node in initial.nodes:
            params.validate_outdegree(initial.outdegree(node))
        self.params = params
        self.loss_rate = loss_rate
        self._states: List[MembershipGraph] = []
        self._index: Dict[CanonicalState, int] = {}
        self._rows: List[Dict[int, float]] = []
        self._enumerate(initial, max_states)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def _state_id(self, graph: MembershipGraph) -> int:
        key = graph.canonical_state()
        existing = self._index.get(key)
        if existing is not None:
            return existing
        index = len(self._states)
        self._index[key] = index
        self._states.append(graph)
        self._rows.append({})
        return index

    def _enumerate(self, initial: MembershipGraph, max_states: int) -> None:
        n = initial.num_nodes
        start = self._state_id(initial.copy())
        frontier = [start]
        processed = set()
        while frontier:
            state_id = frontier.pop()
            if state_id in processed:
                continue
            processed.add(state_id)
            graph = self._states[state_id]
            row = self._rows[state_id]
            for node in graph.nodes:
                outcomes = enumerate_action_outcomes(
                    graph,
                    node,
                    self.params.d_low,
                    self.params.view_size,
                    self.loss_rate,
                )
                for prob, successor in outcomes:
                    weighted = prob / n
                    if weighted <= 0.0:
                        continue
                    if not successor.is_weakly_connected():
                        # Fold into a self-loop, as in the paper's 𝒢.
                        row[state_id] = row.get(state_id, 0.0) + weighted
                        continue
                    succ_id = self._state_id(successor)
                    if len(self._states) > max_states:
                        raise RuntimeError(
                            f"state space exceeded max_states={max_states}; "
                            "use a smaller system"
                        )
                    row[succ_id] = row.get(succ_id, 0.0) + weighted
                    if succ_id not in processed:
                        frontier.append(succ_id)

    # ------------------------------------------------------------------
    # Views of the chain
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def states(self) -> List[MembershipGraph]:
        return list(self._states)

    def transition_matrix(self) -> np.ndarray:
        matrix = np.zeros((self.num_states, self.num_states))
        for i, row in enumerate(self._rows):
            for j, prob in row.items():
                matrix[i, j] = prob
        return matrix

    def to_markov_chain(self) -> MarkovChain:
        labels = [state.canonical_state() for state in self._states]
        return MarkovChain(self.transition_matrix(), labels=labels)

    # ------------------------------------------------------------------
    # Lemma checks
    # ------------------------------------------------------------------

    def sum_degree_vectors(self) -> List[Dict[int, int]]:
        """Sum-degree vector of every enumerated state (Lemma 6.2 check)."""
        return [state.sum_degree_vector() for state in self._states]

    def is_strongly_connected(self) -> bool:
        """Lemma 7.1: with 0 < ℓ < 1 the chain should be strongly connected."""
        return self.to_markov_chain().is_irreducible()

    def stationary_distribution(self) -> np.ndarray:
        return self.to_markov_chain().stationary_distribution()

    def stationary_is_uniform(self, tolerance: float = 1e-8) -> bool:
        """Lemma 7.5: uniform stationary distribution (no-loss setting)."""
        pi = self.stationary_distribution()
        return bool(np.allclose(pi, 1.0 / self.num_states, atol=tolerance))

    def uniformity_of_membership(self) -> Dict[Tuple[int, int], float]:
        """Stationary Pr(v ∈ u.lv) for every ordered pair (Lemma 7.6)."""
        pi = self.stationary_distribution()
        nodes = self._states[0].nodes
        result: Dict[Tuple[int, int], float] = {}
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                mass = sum(
                    float(p)
                    for p, state in zip(pi, self._states)
                    if state.has_edge(u, v)
                )
                result[(u, v)] = mass
        return result
