"""Exhaustive global Markov chain over membership graphs (sections 7.1–7.2).

For *tiny* systems, every membership graph reachable from an initial state
can be enumerated by depth-first search over S&F transformations, and the
chain's transition matrix built exactly.  This validates the structural
lemmas directly:

* Lemma 7.3 — with no loss the restricted chain ``G_d̄s`` is reversible;
* Lemma 7.4 — all state in/out-degrees are equal (doubly stochastic);
* Lemma 7.5 — the stationary distribution over ``G_d̄s`` is uniform;
* Lemma 7.1/7.2 — with ``0 < ℓ < 1`` the reachable chain is strongly
  connected and ergodic, hence has a unique stationary distribution.

Partitioned successor states are excluded, with their probability folded
back as self-loops — exactly the paper's construction of 𝒢 (section 7.1).

States are :class:`~repro.model.transformations.ViewTuples` encodings —
one tuple of ``(id, count)`` pairs per node, in ``Counter`` insertion
order — and are keyed by ``canonical_state()``; a ``MembershipGraph`` is
built only when :attr:`GlobalMarkovChain.states` asks for one.

State counts grow combinatorially; the builder enforces a configurable cap
and raises rather than grinding forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import SFParams
from repro.markov.chain import MarkovChain
from repro.model.membership_graph import MembershipGraph
from repro.model.transformations import CanonicalState, ViewTuples, ViewTupleState


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
        self._layout = ViewTuples(initial.nodes)
        self._states: List[ViewTupleState] = []
        # Canonical key -> state index, in index order: the chain's labels.
        self._index: Dict[CanonicalState, int] = {}
        self._rows: List[Dict[int, float]] = []
        self._markov: Optional[MarkovChain] = None
        self._enumerate(self._layout.encode(initial), max_states)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def _enumerate(self, initial: ViewTupleState, max_states: int) -> None:
        layout = self._layout
        n = len(layout.nodes)
        states, index, rows = self._states, self._index, self._rows
        partitioned = set()
        index[layout.canonical(initial)] = 0
        states.append(initial)
        rows.append({})
        frontier = [0]
        processed = set()
        while frontier:
            state_id = frontier.pop()
            if state_id in processed:
                continue
            processed.add(state_id)
            state = states[state_id]
            row = rows[state_id]
            for node in layout.nodes:
                outcomes = layout.outcomes(
                    state,
                    node,
                    self.params.d_low,
                    self.params.view_size,
                    self.loss_rate,
                )
                for prob, key, successor in outcomes:
                    weighted = prob / n
                    if weighted <= 0.0:
                        continue
                    succ_id = index.get(key)
                    if succ_id is None:
                        if key in partitioned or not layout.is_weakly_connected(successor):
                            # Fold into a self-loop, as in the paper's 𝒢.
                            partitioned.add(key)
                            row[state_id] = row.get(state_id, 0.0) + weighted
                            continue
                        succ_id = len(states)
                        index[key] = succ_id
                        states.append(successor)
                        rows.append({})
                        if len(states) > max_states:
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
        """Every enumerated state as a graph, in index order (built per call)."""
        return [self._layout.decode(state) for state in self._states]

    def transition_matrix(self) -> np.ndarray:
        matrix = np.zeros((self.num_states, self.num_states))
        for i, row in enumerate(self._rows):
            for j, prob in row.items():
                matrix[i, j] = prob
        return matrix

    def to_markov_chain(self) -> MarkovChain:
        """The chain as a :class:`MarkovChain` labelled by canonical states
        (built once; its stationary solve is memoised with it)."""
        if self._markov is None:
            self._markov = MarkovChain(self.transition_matrix(), labels=list(self._index))
        return self._markov

    # ------------------------------------------------------------------
    # Lemma checks
    # ------------------------------------------------------------------

    def sum_degree_vectors(self) -> List[Dict[int, int]]:
        """Sum-degree vector of every enumerated state (Lemma 6.2 check)."""
        return [state.sum_degree_vector() for state in self.states]

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
        nodes = self._layout.nodes
        result: Dict[Tuple[int, int], float] = {}
        for i, u in enumerate(nodes):
            held = [{v for v, _ in state[i]} for state in self._states]
            for v in nodes:
                if u == v:
                    continue
                result[(u, v)] = sum(
                    float(p) for p, ids in zip(pi, held) if v in ids
                )
        return result
