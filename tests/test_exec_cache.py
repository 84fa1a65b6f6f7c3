"""Property-style tests for canonical spec hashing and the caches.

Covers the cache-key contract (order-insensitive canonicalization, JSON
round-trips, no collisions on the benchmark grid), the injectable
:class:`~repro.analysis.runner.DesignCache` that replaced the old
module-global dict, and the persistence of results and designs in a cache
directory's store.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import pytest

from repro import api
from repro.analysis import runner
from repro.analysis.runner import (
    DesignCache,
    build_policy,
    design_for,
)
from repro.core.amosa import AmosaConfig
from repro.core.optimizers import AmosaSearch
from repro.exec.cache import (
    ResultCache,
    canonical_json,
    config_key,
    derive_seed,
    open_caches,
    spec_from_canonical,
    SEED_SPACE,
)
from repro.spec import DesignSpec, ExperimentSpec, PlacementSpec, PolicySpec
from repro.topology.elevators import ElevatorPlacement
from repro.topology.mesh3d import Mesh3D

TINY_AMOSA = AmosaConfig(
    initial_temperature=5.0,
    final_temperature=0.5,
    cooling_rate=0.6,
    iterations_per_temperature=10,
    hard_limit=6,
    soft_limit=12,
    initial_solutions=3,
    seed=2,
)


def _tiny_placement(name="cache-tiny", columns=((0, 0), (1, 1))):
    return ElevatorPlacement(Mesh3D(2, 2, 2), list(columns), name=name)


def _tiny_design(max_subset_size=2, amosa=TINY_AMOSA):
    return DesignSpec(max_subset_size=max_subset_size, options=asdict(amosa))


def _tiny_spec(name="cache-tiny", columns=((0, 0), (1, 1)), **changes):
    placement = PlacementSpec.from_placement(_tiny_placement(name, columns))
    return ExperimentSpec(placement=placement).with_(**changes)


# ---------------------------------------------------------------------- #
# Canonicalization properties
# ---------------------------------------------------------------------- #
class TestCanonicalization:
    def test_keyword_order_is_irrelevant(self):
        a = ExperimentSpec().with_(policy="cda", traffic="shuffle", injection_rate=0.003)
        b = ExperimentSpec().with_(injection_rate=0.003, traffic="shuffle", policy="cda")
        assert canonical_json(a) == canonical_json(b)
        assert config_key(a) == config_key(b)

    def test_canonical_json_sorts_keys(self):
        blob = canonical_json(ExperimentSpec())
        keys = list(json.loads(blob))
        assert keys == sorted(keys)

    def test_round_trips_through_json(self):
        spec = ExperimentSpec().with_(
            placement="PS2", traffic="fft", injection_rate=0.004, seed=11,
            policy=PolicySpec(name="adele_rr", options={"max_subset_size": None}),
        )
        rebuilt = spec_from_canonical(json.loads(canonical_json(spec)))
        assert rebuilt == spec
        assert config_key(rebuilt) == config_key(spec)

    def test_round_trip_preserves_custom_placements(self):
        placement = _tiny_placement()
        spec = _tiny_spec()
        rebuilt = spec_from_canonical(json.loads(canonical_json(spec)))
        resolved = rebuilt.placement.resolve()
        assert resolved.name == placement.name
        assert resolved.columns() == placement.columns()
        assert resolved.mesh.shape == placement.mesh.shape
        assert config_key(rebuilt) == config_key(spec)

    def test_every_field_feeds_the_key(self):
        adele = PolicySpec(
            name="adele", options={"max_subset_size": 4, "low_traffic_threshold": 0.25}
        )
        base = ExperimentSpec(policy=adele)
        variants = [
            base.with_(placement="PS2"),
            base.with_(policy="cda"),
            base.with_(traffic="shuffle"),
            base.with_(injection_rate=0.0041),
            base.with_(warmup_cycles=301),
            base.with_(measurement_cycles=1501),
            base.with_(drain_cycles=801),
            base.with_(buffer_depth=5),
            base.with_(min_packet_length=11),
            base.with_(max_packet_length=31),
            base.with_(seed=1),
            base.with_(policy_options={**adele.options, "max_subset_size": 3}),
            base.with_(policy_options={**adele.options, "low_traffic_threshold": 0.3}),
        ]
        keys = {config_key(base)} | {config_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_custom_placements_with_the_same_name_do_not_collide(self):
        spec_a = _tiny_spec("dup", ((0, 0),))
        spec_b = _tiny_spec("dup", ((1, 1),))
        assert config_key(spec_a) != config_key(spec_b)

    def test_no_collisions_on_the_benchmark_grid(self):
        # The happy-path grid the benchmarks sweep: every (placement, policy,
        # traffic, rate) combination must map to a distinct cache key.
        specs = [
            ExperimentSpec().with_(
                placement=placement, policy=policy, traffic=traffic,
                injection_rate=rate, seed=1,
            )
            for placement in ("PS1", "PS2", "PS3", "PM")
            for policy in ("elevator_first", "cda", "adele", "adele_rr")
            for traffic in ("uniform", "shuffle")
            for rate in (0.001, 0.003, 0.005)
        ]
        keys = [config_key(spec) for spec in specs]
        assert len(set(keys)) == len(specs)


class TestKeyExtras:
    def test_energy_model_feeds_the_result_cache_key(self, tmp_path):
        from repro.energy.model import EnergyModel
        from repro.exec.batch import ExperimentBatch

        spec = _tiny_spec(
            policy="elevator_first", injection_rate=0.05,
            warmup_cycles=10, measurement_cycles=80, drain_cycles=80,
        )
        cache, _ = open_caches(str(tmp_path))
        default_run = ExperimentBatch([spec], result_cache=cache)
        default_run.run()

        # A different energy model must not be served the default model's row.
        custom = EnergyModel(router_energy_per_bit=2e-12)
        custom_run = ExperimentBatch([spec], result_cache=cache, energy_model=custom)
        custom_outcomes = custom_run.run()
        assert custom_run.last_executed == 1
        assert not custom_outcomes[0].from_cache

        # Passing the default model explicitly and passing None share keys.
        explicit_run = ExperimentBatch(
            [spec], result_cache=cache, energy_model=EnergyModel()
        )
        explicit_outcomes = explicit_run.run()
        assert explicit_run.last_executed == 0
        assert explicit_outcomes[0].from_cache


class TestDerivedSeeds:
    def test_range_and_determinism(self):
        spec = ExperimentSpec().with_(policy="cda")
        seed = derive_seed(spec, 3)
        assert 0 <= seed < SEED_SPACE
        assert seed == derive_seed(spec, 3)

    def test_varies_with_config_and_base_seed(self):
        spec = ExperimentSpec().with_(policy="cda")
        assert derive_seed(spec, 3) != derive_seed(spec, 4)
        assert derive_seed(spec, 3) != derive_seed(spec.with_(policy="adele"), 3)


# ---------------------------------------------------------------------- #
# Result cache
# ---------------------------------------------------------------------- #
class TestResultCache:
    def test_memory_round_trip_and_isolation(self):
        cache = ResultCache()
        summary = {"average_latency": 12.5, "delivery_ratio": 1.0}
        cache.put("k", None, summary)
        loaded = cache.get("k")
        assert loaded == summary
        loaded["average_latency"] = -1.0  # mutating the copy must not leak
        assert cache.get("k") == summary

    def test_disk_round_trip_preserves_infinities(self, tmp_path):
        cache, _ = open_caches(str(tmp_path))
        summary = {"average_latency": float("inf"), "delivery_ratio": 0.0}
        cache.put("sat", {"policy": "cda"}, summary)
        fresh, _ = open_caches(str(tmp_path))
        assert fresh.get("sat") == summary
        assert fresh.get("sat")["average_latency"] == float("inf")

    def test_len_and_clear(self, tmp_path):
        cache, _ = open_caches(str(tmp_path))
        cache.put("a", None, {"x": 1.0})
        cache.put("b", None, {"x": 2.0})
        assert len(cache) == 2
        assert "a" in cache and "missing" not in cache
        cache.clear()
        assert len(cache) == 0
        assert open_caches(str(tmp_path))[0].get("a") is None

    def test_run_specs_closes_its_store(self, tmp_path, no_cyclic_gc):
        outcomes = api.run_specs(
            [_tiny_spec(injection_rate=0.02)], cache_dir=str(tmp_path)
        )
        assert not outcomes[0].from_cache
        assert "repro.sqlite3-wal" not in os.listdir(tmp_path)


# ---------------------------------------------------------------------- #
# Design cache (the fixed module-global)
# ---------------------------------------------------------------------- #
class TestDesignCache:
    def test_different_max_subset_size_never_shares_designs(self):
        # Regression: the old module-global dict was keyed loosely enough
        # that offline settings could collide; two sweeps with different
        # subset-size caps must produce two distinct cached designs.
        placement = _tiny_placement()
        cache = DesignCache()
        design_1 = design_for(_tiny_design(1), placement, cache=cache)
        design_2 = design_for(_tiny_design(2), placement, cache=cache)
        assert len(cache) == 2
        assert design_1 is not design_2
        assert max(len(s) for s in design_1.selected_subsets().values()) <= 1

    def test_build_policy_respects_subset_cap_via_cache(self, monkeypatch):
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement = _tiny_placement()
        cache = DesignCache()
        spec = _tiny_spec(policy="adele")
        policy_1 = build_policy(
            spec.with_(policy_options={"max_subset_size": 1}), placement, design_cache=cache
        )
        build_policy(
            spec.with_(policy_options={"max_subset_size": 2}), placement, design_cache=cache
        )
        assert len(cache) == 2
        nodes = placement.mesh.nodes()
        assert max(len(policy_1.subset_indices(node)) for node in nodes) <= 1

    def test_amosa_settings_feed_the_key(self):
        placement = _tiny_placement()
        cache = DesignCache()
        other_amosa = AmosaConfig(
            initial_temperature=5.0, final_temperature=0.5, cooling_rate=0.6,
            iterations_per_temperature=10, hard_limit=6, soft_limit=12,
            initial_solutions=3, seed=3,
        )
        design_for(_tiny_design(), placement, cache=cache)
        design_for(_tiny_design(amosa=other_amosa), placement, cache=cache)
        assert len(cache) == 2

    def test_injected_caches_are_isolated_and_clearable(self):
        placement = _tiny_placement()
        cache_a, cache_b = DesignCache(), DesignCache()
        design = design_for(_tiny_design(), placement, cache=cache_a)
        assert len(cache_a) == 1 and len(cache_b) == 0
        again = design_for(_tiny_design(), placement, cache=cache_a)
        assert again is design
        cache_a.clear()
        assert len(cache_a) == 0

    def test_disk_design_cache_survives_processes(self, tmp_path, monkeypatch):
        placement = _tiny_placement()
        _, warm = open_caches(str(tmp_path))
        original = design_for(_tiny_design(), placement, cache=warm)

        # A fresh cache over the same directory must reload the design from
        # its store without ever invoking the AMOSA stage again.
        def _fail(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("offline optimization re-ran on a warm cache")

        monkeypatch.setattr(runner, "optimize_elevator_subsets", _fail)
        _, fresh = open_caches(str(tmp_path))
        reloaded = design_for(_tiny_design(), placement, cache=fresh)
        assert reloaded.selected_subsets() == original.selected_subsets()
        assert reloaded.pareto_points() == original.pareto_points()
        assert reloaded.baseline_objectives == pytest.approx(
            original.baseline_objectives
        )
        assert [e.objectives for e in reloaded.representatives] == [
            e.objectives for e in original.representatives
        ]

    def test_design_free_experiment_shares_its_design_spec_entry(self, monkeypatch):
        # A design-free AdEle experiment resolves DesignSpec(max_subset_size=
        # <policy option>): the spec spelled out is a hit on the same entry.
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement = _tiny_placement()
        cache = DesignCache()
        spec = _tiny_spec(policy=PolicySpec(name="adele", options={"max_subset_size": 2}))
        build_policy(spec, placement, design_cache=cache)
        assert len(cache) == 1

        def _fail(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("the experiment's design was not reused")

        monkeypatch.setattr(runner, "optimize_elevator_subsets", _fail)
        design_for(DesignSpec(max_subset_size=2), placement, cache=cache)
        assert len(cache) == 1
        assert list(cache._designs) == [
            runner.design_key_for(DesignSpec(max_subset_size=2), placement)
        ]

    def test_nested_design_cap_beats_the_policy_option(self, monkeypatch):
        # With a nested design, its cap wins over the policy option (the
        # assumption exec.cache._design_is_redundant relies on).
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)
        placement = ElevatorPlacement(
            Mesh3D(2, 2, 2), [(0, 0), (1, 0), (0, 1), (1, 1)], name="cap"
        )
        spec = ExperimentSpec(
            placement=PlacementSpec.from_placement(placement),
            policy=PolicySpec(name="adele", options={"max_subset_size": 2}),
            design=DesignSpec(max_subset_size=3),
        )
        assert runner.experiment_design_spec(spec) == DesignSpec(max_subset_size=3)
        cache = DesignCache()
        build_policy(spec, placement, design_cache=cache)
        assert list(cache._designs) == [
            runner.design_key_for(DesignSpec(max_subset_size=3), placement)
        ]
        (design,) = cache._designs.values()
        assert design.problem.max_subset_size == 3

    def test_default_cache_is_swappable(self):
        previous = runner.get_design_cache()
        replacement = DesignCache()
        try:
            assert runner.set_design_cache(replacement) is previous
            assert runner.get_design_cache() is replacement
        finally:
            runner.set_design_cache(previous)
