"""Churn: node join/leave processes (section 6.5).

Joins follow the paper's bootstrap rule — a joiner copies (part of)
another node's view, entering with outdegree ≥ ``dL`` and indegree 0;
leavers simply stop participating, and their ids drain out at the rate
bounded in section 6.5.2.
"""

from repro.churn.process import ChurnProcess, bootstrap_from_peer

__all__ = [
    "ChurnProcess",
    "bootstrap_from_peer",
]
