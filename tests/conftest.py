"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.core.params import SFParams
from repro.core.sandf import SendForget
from repro.engine.sequential import SequentialEngine
from repro.net.loss import UniformLoss
from repro.util.rng import make_rng


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports *this* ``repro``."""
    search_path = [str(Path(repro.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        search_path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(search_path)}


@pytest.fixture
def opened(monkeypatch):
    """Every ``(kind, max_workers)`` a sweep runner opens an executor with."""
    import repro.runner.sweep as sweep_module

    calls = []
    real_open = sweep_module._open_executor

    def counting(kind, max_workers):
        calls.append((kind, max_workers))
        return real_open(kind, max_workers)

    monkeypatch.setattr(sweep_module, "_open_executor", counting)
    return calls


@pytest.fixture
def rng():
    """A deterministic generator for tests."""
    return make_rng(12345)


@pytest.fixture
def small_params() -> SFParams:
    """A small, fast parameter set: s=12, dL=2."""
    return SFParams(view_size=12, d_low=2)


@pytest.fixture
def paper_params() -> SFParams:
    """The paper's section 6.3 worked example: s=40, dL=18."""
    return SFParams(view_size=40, d_low=18)


def build_system(
    n: int,
    params: SFParams,
    loss_rate: float = 0.0,
    seed: int = 7,
    init_outdegree: int = 6,
):
    """A ring-bootstrapped S&F system driven by a sequential engine."""
    protocol = SendForget(params)
    for u in range(n):
        bootstrap = [(u + k) % n for k in range(1, init_outdegree + 1)]
        protocol.add_node(u, bootstrap)
    engine = SequentialEngine(protocol, UniformLoss(loss_rate), seed=seed)
    return protocol, engine


@pytest.fixture
def small_system(small_params):
    """A 40-node lossless S&F system."""
    return build_system(40, small_params)


@pytest.fixture
def lossy_system(small_params):
    """A 40-node S&F system with 5% uniform loss."""
    return build_system(40, small_params, loss_rate=0.05)
