"""Tests for the typed spec layer: validation, round-trips, cache keys.

Covers the satellite guarantees of the `repro.api` redesign:

* property test that ``ExperimentSpec.from_dict(spec.to_dict()) == spec``
  and that ``config_key`` is stable across round-trips, over both a
  hypothesis-generated spec space and the full bench grid;
* custom-placement cache correctness: a structural placement reusing a
  name must never share a ``config_key`` with the named placement (or
  another structure under the same name);
* entry points taking caller input reject anything but an
  ``ExperimentSpec``, and the spec-native stack (runner, batch, sweep, CLI)
  raises no deprecation warning.
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.exec.batch import ExperimentBatch
from repro.exec.cache import (
    canonical_json,
    config_key,
    derive_seed,
    spec_from_canonical,
)
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.store import SqliteStore
from repro.spec import (
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
    SimSpec,
    TrafficSpec,
)
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D


# ---------------------------------------------------------------------- #
# Hypothesis strategies over the spec space
# ---------------------------------------------------------------------- #
_names = st.sampled_from(["PS1", "PS2", "PS3", "PM", "custom-a", "x"])
_policies = st.one_of(
    st.builds(PolicySpec, name=st.sampled_from(["elevator_first", "cda", "minimal"])),
    st.builds(
        PolicySpec,
        name=st.sampled_from(["adele", "adele_rr"]),
        options=st.fixed_dictionaries(
            {},
            optional={
                "max_subset_size": st.one_of(st.none(), st.integers(1, 6)),
                "low_traffic_threshold": st.one_of(
                    st.none(), st.floats(0.0, 1.0, allow_nan=False)
                ),
            },
        ),
    ),
)
_placements = st.one_of(
    st.builds(PlacementSpec, name=_names),
    st.builds(
        PlacementSpec,
        name=_names,
        mesh=st.just((3, 3, 2)),
        columns=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=4,
            unique=True,
        ).map(tuple),
    ),
)
_traffic = st.builds(
    TrafficSpec,
    pattern=st.sampled_from(["uniform", "shuffle", "transpose", "fft", "hotspot"]),
    injection_rate=st.floats(0.0, 0.5, allow_nan=False),
    min_packet_length=st.integers(1, 10),
    max_packet_length=st.integers(10, 40),
)
_sims = st.builds(
    SimSpec,
    warmup_cycles=st.integers(0, 500),
    measurement_cycles=st.integers(0, 2000),
    drain_cycles=st.integers(0, 1000),
    buffer_depth=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
_specs = st.builds(
    ExperimentSpec, placement=_placements, policy=_policies, traffic=_traffic, sim=_sims
)


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(spec=_specs)
    def test_dict_round_trip_is_lossless(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=150, deadline=None)
    @given(spec=_specs)
    def test_config_key_is_stable_across_round_trips(self, spec):
        key = config_key(spec)
        via_dict = ExperimentSpec.from_dict(spec.to_dict())
        via_json = ExperimentSpec.from_json(spec.to_json())
        via_canonical = spec_from_canonical(json.loads(canonical_json(spec)))
        assert config_key(via_dict) == key
        assert config_key(via_json) == key
        assert config_key(via_canonical) == key
        assert derive_seed(via_dict, 7) == derive_seed(spec, 7)

    def test_full_bench_grid_round_trips_with_stable_keys(self):
        # The grid every benchmark sweeps: placements x policies x traffic x
        # rates.  Round-trips must be lossless, keys stable, and all keys
        # pairwise distinct.
        specs = [
            ExperimentSpec(
                placement=PlacementSpec(name=placement),
                policy=PolicySpec(name=policy),
                traffic=TrafficSpec(pattern=traffic, injection_rate=rate),
                sim=SimSpec(seed=1),
            )
            for placement in ("PS1", "PS2", "PS3", "PM")
            for policy in ("elevator_first", "cda", "adele", "adele_rr")
            for traffic in ("uniform", "shuffle", "fft")
            for rate in (0.001, 0.003, 0.005)
        ]
        keys = []
        for spec in specs:
            rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec
            assert config_key(rebuilt) == config_key(spec)
            keys.append(config_key(spec))
        assert len(set(keys)) == len(specs)

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda spec, tmp_path: ExperimentBatch([spec]),
            lambda spec, tmp_path: api.run(spec),
            lambda spec, tmp_path: JobQueue(
                SqliteStore(str(tmp_path / "jobs.sqlite"))
            ).submit(spec),
            # No daemon needed: the type check runs before any request.
            lambda spec, tmp_path: ServiceClient("http://127.0.0.1:9").submit(spec),
        ],
        ids=["ExperimentBatch", "api.run", "JobQueue.submit", "ServiceClient.submit"],
    )
    def test_as_spec_rejects_foreign_types(self, entry_point, tmp_path):
        with pytest.raises(TypeError, match="expected ExperimentSpec"):
            entry_point({"placement": "PS1"}, tmp_path)


class TestSpecValidation:
    def test_structural_placement_needs_both_fields(self):
        with pytest.raises(ValueError):
            PlacementSpec(name="x", mesh=(2, 2, 2))
        with pytest.raises(ValueError):
            PlacementSpec(name="x", columns=((0, 0),))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown experiment spec field"):
            ExperimentSpec.from_dict({"placment": {}})
        with pytest.raises(ValueError, match="unknown policy spec field"):
            PolicySpec.from_dict({"name": "cda", "kwargs": {}})
        with pytest.raises(ValueError, match="unknown traffic spec field"):
            TrafficSpec.from_dict({"rate": 0.1})

    def test_from_dict_rejects_bad_format_version(self):
        with pytest.raises(ValueError, match="unsupported experiment spec format"):
            ExperimentSpec.from_dict({"format": 99})

    def test_options_must_be_json_native(self):
        with pytest.raises(ValueError, match="JSON-native"):
            PolicySpec(name="cda", options={"weight": object()})

    def test_traffic_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(injection_rate=-0.1)
        with pytest.raises(ValueError):
            TrafficSpec(min_packet_length=5, max_packet_length=4)

    def test_sim_validation(self):
        with pytest.raises(ValueError):
            SimSpec(warmup_cycles=-1)
        with pytest.raises(ValueError):
            SimSpec(buffer_depth=0)

    def test_with_flat_fields(self):
        spec = ExperimentSpec().with_(
            placement="PS2", policy="cda", injection_rate=0.01, seed=4,
            warmup_cycles=10,
        )
        assert spec.placement.name == "PS2"
        assert spec.policy.name == "cda"
        assert spec.policy.options == {}  # changing the policy name resets options
        assert spec.traffic.injection_rate == 0.01
        assert spec.sim.seed == 4
        assert spec.sim.warmup_cycles == 10
        with pytest.raises(ValueError, match="unknown ExperimentSpec field"):
            ExperimentSpec().with_(bogus=1)

    def test_with_same_policy_name_keeps_options(self):
        spec = ExperimentSpec(
            policy=PolicySpec(name="adele", options={"max_subset_size": 2})
        )
        assert spec.with_(policy="adele").policy.options == {"max_subset_size": 2}
        assert spec.with_(policy="cda").policy.options == {}

    def test_with_placement_object(self):
        placement = ElevatorPlacement(Mesh3D(2, 2, 2), [(0, 0)], name="OBJ")
        spec = ExperimentSpec().with_(placement=placement)
        assert spec.placement.is_structural
        assert spec.placement.resolve().columns() == [(0, 0)]


class TestCustomPlacementCacheKeys:
    """Satellite regression: placement objects reusing a name never alias."""

    def test_placement_obj_reusing_a_standard_name_gets_a_distinct_key(self):
        named = ExperimentSpec().with_(placement="PS1", policy="elevator_first")
        custom = named.with_(
            placement=PlacementSpec.from_placement(
                ElevatorPlacement(Mesh3D(4, 4, 4), [(0, 0)], name="PS1")
            )
        )
        assert custom.placement.name == named.placement.name
        assert config_key(named) != config_key(custom)
        assert derive_seed(named, 1) != derive_seed(custom, 1)

    def test_two_structures_under_one_name_get_distinct_keys(self):
        mesh = Mesh3D(2, 2, 2)
        spec_a = ExperimentSpec(
            placement=PlacementSpec.from_placement(
                ElevatorPlacement(mesh, [(0, 0)], name="dup")
            )
        )
        spec_b = ExperimentSpec(
            placement=PlacementSpec.from_placement(
                ElevatorPlacement(mesh, [(1, 1)], name="dup")
            )
        )
        assert config_key(spec_a) != config_key(spec_b)

    def test_case_variants_and_aliases_share_keys(self):
        # Equivalent spellings of one experiment must hit the same cache
        # entry and derive the same seed.
        base = ExperimentSpec()
        assert config_key(base.with_(policy="AdEle")) == config_key(
            base.with_(policy="adele")
        )
        assert config_key(base.with_(traffic="fluid.")) == config_key(
            base.with_(traffic="fluidanimate")
        )
        assert config_key(base.with_(traffic="Uniform")) == config_key(
            base.with_(traffic="uniform")
        )
        assert config_key(base.with_(placement="ps1")) == config_key(
            base.with_(placement="PS1")
        )
        assert derive_seed(base.with_(policy="AdEle"), 7) == derive_seed(
            base.with_(policy="adele"), 7
        )
        # Different components still never collide.
        assert config_key(base.with_(policy="cda")) != config_key(
            base.with_(policy="adele")
        )

    def test_spec_level_named_vs_structural_distinct(self):
        named = ExperimentSpec(placement=PlacementSpec(name="PS1"))
        structural = ExperimentSpec(
            placement=PlacementSpec(
                name="PS1", mesh=(4, 4, 4), columns=((1, 1), (2, 2), (3, 0))
            )
        )
        assert config_key(named) != config_key(structural)


class TestDeprecatedShim:
    """The retired ``ExperimentConfig`` shim must not come back."""

    def test_internal_modules_do_not_trigger_the_warning(self, tmp_path):
        # Run the whole spec-native stack -- builders, batch engine (cold and
        # warm cache), sweep, CLI -- with DeprecationWarning promoted to an
        # error: no internal module may emit one.
        from repro.analysis.sweep import latency_sweep
        from repro.exec.batch import run_batch
        from repro.exec.cli import main as cli_main

        spec = ExperimentSpec(
            placement=PlacementSpec(name="shim", mesh=(2, 2, 2), columns=((0, 0),)),
            policy=PolicySpec(name="elevator_first"),
            traffic=TrafficSpec(pattern="uniform", injection_rate=0.05),
            sim=SimSpec(warmup_cycles=10, measurement_cycles=60, drain_cycles=60),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            outcomes = run_batch([spec], result_cache=None)
            assert outcomes[0].summary["average_latency"] > 0
            run_batch([spec], base_seed=3)
            latency_sweep(spec, ["elevator_first"], [0.02])
            cli_main(
                [
                    "sweep", "--mesh", "2", "2", "2", "--elevators", "0,0",
                    "--policies", "elevator_first", "--rates", "0.05",
                    "--warmup", "5", "--measure", "40", "--drain", "40",
                ]
            )
            cli_main(["list"])
