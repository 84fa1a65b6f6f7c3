"""Shared fixtures for the test suite.

The fixtures favour tiny meshes (2x2x2, 3x3x2, 4x4x4) and short simulations
so the full suite stays fast while still exercising every code path the
paper's evaluation relies on.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.analysis.runner import clear_design_cache
from repro.energy.model import EnergyModel
from repro.routing.elevator_first import ElevatorFirstPolicy
from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore
from repro.sim.network import Network
from repro.topology.elevators import ElevatorPlacement, standard_placement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.patterns import UniformTraffic


@pytest.fixture
def no_cyclic_gc():
    """Run a test with the cyclic garbage collector off.

    Only the cyclic collector frees an unclosed ``sqlite3`` connection, so
    with it off a store an entry point left open keeps its WAL file.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def tiny_mesh() -> Mesh3D:
    """A 2x2x2 mesh: the smallest multi-layer network."""
    return Mesh3D(2, 2, 2)


@pytest.fixture
def small_mesh() -> Mesh3D:
    """A 3x3x2 mesh used by most routing/simulation tests."""
    return Mesh3D(3, 3, 2)


@pytest.fixture
def paper_mesh() -> Mesh3D:
    """The paper's small configuration: 4x4x4."""
    return Mesh3D(4, 4, 4)


@pytest.fixture
def tiny_placement(tiny_mesh: Mesh3D) -> ElevatorPlacement:
    """One elevator at column (0, 0) on the 2x2x2 mesh."""
    return ElevatorPlacement(tiny_mesh, [(0, 0)], name="tiny")


@pytest.fixture
def small_placement(small_mesh: Mesh3D) -> ElevatorPlacement:
    """Two elevators on the 3x3x2 mesh."""
    return ElevatorPlacement(small_mesh, [(0, 0), (2, 2)], name="small")


@pytest.fixture
def ps1_placement() -> ElevatorPlacement:
    """The paper's PS1 placement (three elevators, 4x4x4)."""
    return standard_placement("PS1")


@pytest.fixture
def small_network(small_placement: ElevatorPlacement) -> Network:
    """A small network with Elevator-First selection."""
    return Network(small_placement, ElevatorFirstPolicy(small_placement))


@pytest.fixture
def uniform_traffic(small_mesh: Mesh3D) -> UniformTraffic:
    """Uniform traffic on the small mesh."""
    return UniformTraffic(small_mesh, seed=7)


@pytest.fixture
def energy_model() -> EnergyModel:
    """Default energy model."""
    return EnergyModel()


@pytest.fixture(autouse=True)
def _clear_offline_cache():
    """Keep AdEle's offline-design cache from leaking between tests."""
    clear_design_cache()
    yield
    clear_design_cache()


def _store_rows(cache_dir: str):
    """The rows of a cache directory's store, as stored.

    Returns ``(results, designs)``: ``(key, config, summary)`` and
    ``(key_hash, record)`` tuples sorted by key, with every JSON column as
    its stored text, so two directories' lists compare byte for byte.
    """
    path = os.path.join(cache_dir, DEFAULT_DB_FILENAME)
    assert os.path.exists(path), f"no store at {path}"
    store = SqliteStore(path)
    try:
        results = store.query("SELECT key, config, summary FROM results ORDER BY key")
        designs = store.query("SELECT key_hash, record FROM designs ORDER BY key_hash")
        return [tuple(row) for row in results], [tuple(row) for row in designs]
    finally:
        store.close()


@pytest.fixture
def store_rows():
    """:func:`_store_rows`: list a cache directory's result and design rows."""
    return _store_rows
