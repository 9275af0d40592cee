"""repro — a reproduction of Gurevich & Keidar's *Correctness of
gossip-based membership under message loss* (PODC 2009 / SICOMP 2010).

The package implements the Send & Forget (S&F) membership protocol, the
graph-transformation model it is analyzed in, the degree / dependence /
global Markov chains of the paper's analysis, simulation engines (serial
and discrete-event), baseline gossip protocols, churn, and an experiment
harness reproducing every figure and table of the paper's evaluation.

Quickstart::

    from repro import SFParams, SendForget, SequentialEngine, UniformLoss

    params = SFParams(view_size=40, d_low=18)   # the paper's §6.3 example
    protocol = SendForget(params)
    n = 500
    for u in range(n):
        protocol.add_node(u, [(u + k) % n for k in range(1, 31)])
    engine = SequentialEngine(protocol, UniformLoss(0.01), seed=7)
    engine.run_rounds(200)          # each node initiates ≈200 actions
    sample = protocol.view_of(0)    # a near-uniform membership sample

See DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-measured
results.
"""

from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.core.thresholds import ThresholdSelection, select_thresholds
from repro.core.view import View, ViewEntry
from repro.engine.des import DiscreteEventEngine
from repro.engine.sequential import SequentialEngine
from repro.markov.chain import MarkovChain
from repro.markov.degree_mc import DegreeMarkovChain
from repro.markov.dependence_mc import DependenceMarkovChain
from repro.markov.global_mc import GlobalMarkovChain
from repro.model.membership_graph import MembershipGraph
from repro.net.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.net.loss import GilbertElliottLoss, NoLoss, UniformLoss
from repro.protocols.base import GossipProtocol, Message, ProtocolStats
from repro.protocols.push import PushProtocol
from repro.protocols.pushpull import PushPullProtocol
from repro.protocols.shuffle import ShuffleProtocol

__version__ = "1.0.0"

__all__ = [
    "SFParams",
    "SendForget",
    "select_thresholds",
    "ThresholdSelection",
    "View",
    "ViewEntry",
    "SequentialEngine",
    "DiscreteEventEngine",
    "MembershipGraph",
    "MarkovChain",
    "DegreeMarkovChain",
    "DependenceMarkovChain",
    "GlobalMarkovChain",
    "NoLoss",
    "UniformLoss",
    "GilbertElliottLoss",
    "ConstantDelay",
    "ExponentialDelay",
    "UniformDelay",
    "GossipProtocol",
    "Message",
    "ProtocolStats",
    "ShuffleProtocol",
    "PushProtocol",
    "PushPullProtocol",
]
