"""Kernel probes: validation, bounding, and per-backend channel filling.

Both kernels must fill the same channels with plausible values -- the
reference kernel by scanning the network, the active-set kernel from its
incremental counters.  Neutrality (probed
== unprobed, bit for bit) is pinned in ``test_obs_neutrality.py``; this
file covers the probe machinery itself.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import run_experiment
from repro.obs.probes import (
    PROBE_CHANNELS,
    ProbeSeries,
    ProbeSpec,
)
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

ALL_BACKENDS = ["reference", "optimized"]

NUM_LAYERS = 2


def _spec(backend: str = "optimized", **overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        placement=PlacementSpec(
            name="probe-tiny", mesh=(3, 3, NUM_LAYERS), columns=((0, 0), (2, 2))
        ),
        policy=PolicySpec(name="adele"),
        traffic=TrafficSpec(pattern="uniform", injection_rate=0.02),
        sim=SimSpec(
            warmup_cycles=20,
            measurement_cycles=100,
            drain_cycles=80,
            seed=5,
            backend=backend,
        ),
    )
    return spec.with_(**overrides) if overrides else spec


class TestProbeSpecValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            ProbeSpec(interval=0)

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="max_samples"):
            ProbeSpec(max_samples=0)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown probe channel"):
            ProbeSpec(channels=("active_routers", "warp_factor"))

    def test_empty_channels_rejected(self):
        with pytest.raises(ValueError, match="at least one channel"):
            ProbeSpec(channels=())

    def test_parse_channels(self):
        assert ProbeSpec.parse_channels(
            " active_routers , layer_occupancy "
        ) == ("active_routers", "layer_occupancy")
        with pytest.raises(ValueError):
            ProbeSpec.parse_channels("nope")

    def test_should_sample_follows_interval(self):
        probe = ProbeSpec(interval=3)
        sampled = [c for c in range(10) if probe.should_sample(c)]
        assert sampled == [0, 3, 6, 9]


class TestProbeSeries:
    def test_bounded_and_counts_drops(self):
        series = ProbeSpec(
            interval=1, channels=("active_routers",), max_samples=3
        ).series()
        for cycle in range(10):
            series.append(cycle, {"active_routers": cycle})
        assert series.cycles == [0, 1, 2]
        assert series.values["active_routers"] == [0, 1, 2]
        assert series.full
        assert series.dropped == 7
        assert series.to_dict()["samples"] == 3
        assert series.to_dict()["dropped"] == 7


class TestBackendsFillChannels:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_channel_filled_and_plausible(self, backend):
        probe = ProbeSpec(interval=25)
        result = run_experiment(_spec(backend), probe=probe)
        series = result.probe
        assert isinstance(series, ProbeSeries)
        assert len(series.cycles) > 0
        assert all(cycle % probe.interval == 0 for cycle in series.cycles)
        assert series.cycles == sorted(set(series.cycles))
        for channel in PROBE_CHANNELS:
            assert len(series.values[channel]) == len(series.cycles)
        for occupancy in series.values["layer_occupancy"]:
            assert len(occupancy) == NUM_LAYERS
            assert all(level >= 0 for level in occupancy)
        for cycle_index in range(len(series.cycles)):
            active = series.values["active_routers"][cycle_index]
            flits = series.values["in_flight_flits"][cycle_index]
            assert 0 <= active <= 3 * 3 * NUM_LAYERS
            assert flits == sum(series.values["layer_occupancy"][cycle_index])
            # A router counts as active only while it holds flits.
            assert (active > 0) == (flits > 0)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_channel_subset_respected(self, backend):
        probe = ProbeSpec(interval=40, channels=("injection_backlog",))
        series = run_experiment(_spec(backend), probe=probe).probe
        assert set(series.values) == {"injection_backlog"}

    def test_unprobed_run_has_no_series(self):
        assert run_experiment(_spec("optimized")).probe is None
