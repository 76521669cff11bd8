"""Shared fixtures: small pre-built stacks reused across the suite.

Session scope keeps the suite fast: the d=3 and d=5 stacks (code, DEM,
graph) are built once; the on-disk DEM cache makes repeat runs cheap.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# The repo root is importable so tests can reach the in-repo tooling
# (tools.reprolint for the lint suite and the hygiene checks).
_REPO_ROOT = str(Path(__file__).resolve().parents[1])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.codes import RotatedSurfaceCode
from repro.circuits import build_memory_circuit
from repro.eval.cache import load_or_build_dem
from repro.graph import build_decoding_graph
from repro.noise import CircuitNoiseModel, CodeCapacityNoiseModel
from repro.sim import DemSampler

# ``pytest --hypothesis-profile=ci``: the same examples on every run (no
# random seed, no shared example database) and no per-example deadline,
# so property tests neither flake nor time out on slow shared runners.
# Local runs keep hypothesis' default profile.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def d3_stack():
    """(experiment, dem, graph) for d=3 circuit noise at p=3e-3."""
    code = RotatedSurfaceCode(3)
    noise = CircuitNoiseModel()
    experiment = build_memory_circuit(code, rounds=3, noise=noise)
    dem = load_or_build_dem(code, 3, noise)
    graph = build_decoding_graph(dem, 3e-3)
    return experiment, dem, graph


@pytest.fixture(scope="session")
def d5_stack():
    """(experiment, dem, graph) for d=5 circuit noise at p=3e-3."""
    code = RotatedSurfaceCode(5)
    noise = CircuitNoiseModel()
    experiment = build_memory_circuit(code, rounds=5, noise=noise)
    dem = load_or_build_dem(code, 5, noise)
    graph = build_decoding_graph(dem, 3e-3)
    return experiment, dem, graph


@pytest.fixture(scope="session")
def d5_code_capacity_stack():
    """(experiment, dem, graph) for d=5, one perfect round (hand-checkable)."""
    code = RotatedSurfaceCode(5)
    noise = CodeCapacityNoiseModel()
    experiment = build_memory_circuit(code, rounds=1, noise=noise)
    dem = load_or_build_dem(code, 1, noise)
    graph = build_decoding_graph(dem, 1e-2)
    return experiment, dem, graph


@pytest.fixture(scope="session")
def d5_syndromes(d5_stack):
    """A reusable batch of sampled d=5 syndromes (dense enough to be busy)."""
    _experiment, dem, _graph = d5_stack
    return DemSampler(dem, 6e-3, rng=20240613).sample(400)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
