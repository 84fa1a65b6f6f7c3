"""Batched replica execution: kernel contract, grouping, cache identity.

The tentpole invariant these tests pin: executing R seed-replicas of one
structurally identical spec through a single multi-replica kernel pass
(:func:`repro.sim.backends.batched.run_replica_group`, reached from the
batch engine via ``replica_batch=N``) produces results -- and cache bytes
-- *identical* to running each replica solo through the vectorized
backend.  Grouping is a pure scheduling optimization; nothing observable
may change.

Sections:

* ``TestReplicaGroupContract`` -- run_replica_group vs solo runs, both
  shipped policies, scenario timelines.
* ``TestStructuralKeyGrouping`` -- hypothesis property: the structural
  key partitions any mixed grid exactly (same key iff canonical config
  minus seed matches), and ``_plan_units`` emits every task exactly once
  in groups of at most ``replica_batch``.
* ``TestGroupedCacheByteIdentity`` -- grouped sweeps write byte-identical
  caches to ungrouped ones, including through a mid-grid kill/resume.
* ``TestSetupMemo`` -- the warm-worker setup memo reuses networks and
  route tables without changing results.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runner import (
    build_network,
    build_packet_source,
    resolve_placement,
    run_experiment,
)
from repro.energy.model import EnergyModel
from repro.exec.batch import (
    ABORT_AFTER_CHUNKS_ENV,
    ChunkAbort,
    ExperimentBatch,
    clear_setup_memo,
)
from repro.exec.cache import (
    ResultCache,
    canonical_config,
    structural_config,
    structural_key,
)
from repro.scenario.spec import ScenarioSpec
from repro.sim.backends.batched import (
    BatchedBackend,
    ReplicaRun,
    run_replica_group,
)
from repro.spec import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec

SEEDS = (3, 7, 11, 19)

#: One stateless model shared by solo and grouped paths, mirroring the
#: engine's ``_DEFAULT_ENERGY_MODEL`` behaviour.
ENERGY = EnergyModel()


def _spec(seed: int, policy: str = "elevator_first", rate: float = 0.01,
          backend: str = "vectorized", bit_exact: bool = False,
          scenario=None) -> ExperimentSpec:
    spec = ExperimentSpec(
        placement=PlacementSpec(
            name="replica-tiny", mesh=(3, 3, 2), columns=((0, 0), (2, 2))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(
            warmup_cycles=20, measurement_cycles=80, drain_cycles=120,
            seed=seed, backend=backend, bit_exact=bit_exact,
        ),
        scenario=scenario,
    ).with_(policy=policy)
    return spec


def _replica_for(spec: ExperimentSpec) -> ReplicaRun:
    placement = resolve_placement(spec)
    network = build_network(spec, placement=placement)
    source = build_packet_source(spec, placement)
    return ReplicaRun(
        network=network,
        packet_source=source,
        scenario=spec.scenario,
        scenario_seed=spec.sim.seed,
        energy_model=ENERGY,
    )


def _result_fields(result) -> dict:
    stats = result.stats
    return {
        "summary": result.summary(),
        "drain_cycles_used": result.drain_cycles_used,
        "latencies": list(stats.latencies),
        "latency_samples_seen": stats.latency_samples_seen,
        "router_traversals": stats.router_traversals,
        "horizontal_link_traversals": stats.horizontal_link_traversals,
        "vertical_link_traversals": stats.vertical_link_traversals,
        "elevator_assignments": stats.elevator_assignments,
        "total_energy": result.total_energy,
        "energy_per_flit": result.energy_per_flit,
    }


class TestReplicaGroupContract:
    # ``SimSpec.bit_exact`` selects nothing: grouped runs match solo runs
    # of specs that carry the flag exactly as they match flag-less ones.
    @pytest.mark.parametrize("bit_exact", [False, True])
    @pytest.mark.parametrize("policy", ["elevator_first", "cda"])
    def test_group_matches_solo_runs(self, policy, bit_exact):
        specs = [
            _spec(seed, policy=policy, bit_exact=bit_exact) for seed in SEEDS
        ]
        solo = [_result_fields(run_experiment(spec)) for spec in specs]

        grouped_results = run_replica_group(
            [_replica_for(spec) for spec in specs],
            warmup_cycles=specs[0].sim.warmup_cycles,
            measurement_cycles=specs[0].sim.measurement_cycles,
            drain_cycles=specs[0].sim.drain_cycles,
        )
        grouped = [_result_fields(result) for result in grouped_results]
        assert grouped == solo

    def test_scenario_group_matches_solo_runs(self):
        scenario = ScenarioSpec.from_dict({
            "events": [
                {"kind": "rate_ramp", "cycle": 10, "end_cycle": 60,
                 "start_rate": 0.01, "end_rate": 0.02},
            ]
        })
        specs = [_spec(seed, scenario=scenario) for seed in SEEDS[:3]]
        solo = [_result_fields(run_experiment(spec)) for spec in specs]
        grouped_results = run_replica_group(
            [_replica_for(spec) for spec in specs],
            warmup_cycles=specs[0].sim.warmup_cycles,
            measurement_cycles=specs[0].sim.measurement_cycles,
            drain_cycles=specs[0].sim.drain_cycles,
        )
        assert [_result_fields(r) for r in grouped_results] == solo

    def test_single_replica_is_the_vectorized_path(self):
        spec = _spec(7)
        solo = _result_fields(run_experiment(spec))
        [result] = run_replica_group(
            [_replica_for(spec)],
            warmup_cycles=spec.sim.warmup_cycles,
            measurement_cycles=spec.sim.measurement_cycles,
            drain_cycles=spec.sim.drain_cycles,
        )
        fields = _result_fields(result)
        # backend_name is presentation-only and absent from summaries.
        assert fields == solo
        assert result.backend_name == "batched"

    def test_backend_registered_as_vectorized_subclass(self):
        from repro.sim.backends import resolve_backend
        from repro.sim.backends.vectorized import VectorizedBackend

        backend = resolve_backend("batched")
        assert isinstance(backend, BatchedBackend)
        assert isinstance(backend, VectorizedBackend)

    def test_empty_group_returns_empty(self):
        assert run_replica_group(
            [], warmup_cycles=10, measurement_cycles=10, drain_cycles=10
        ) == []

    def test_invalid_cycles_raise(self):
        with pytest.raises(ValueError, match="invalid cycle configuration"):
            run_replica_group(
                [_replica_for(_spec(1))],
                warmup_cycles=10, measurement_cycles=0, drain_cycles=10,
            )

    def test_structurally_different_replicas_raise(self):
        small = ExperimentSpec(
            placement=PlacementSpec(
                name="replica-small", mesh=(2, 2, 2), columns=((0, 0),)
            ),
            traffic=TrafficSpec(pattern="uniform", injection_rate=0.01),
            sim=SimSpec(warmup_cycles=20, measurement_cycles=80,
                        drain_cycles=120, seed=1, backend="vectorized"),
        )
        with pytest.raises(ValueError, match="structurally identical"):
            run_replica_group(
                [_replica_for(_spec(1)), _replica_for(small)],
                warmup_cycles=20, measurement_cycles=80, drain_cycles=120,
            )


# ---------------------------------------------------------------------- #
# Structural-key grouping partition (hypothesis)
# ---------------------------------------------------------------------- #
def _mixed_grid(seeds, rates, backends):
    return [
        _spec(seed, rate=rate, backend=backend)
        for backend in backends
        for rate in rates
        for seed in seeds
    ]


class TestStructuralKeyGrouping:
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1, max_size=6, unique=True,
        ),
        rates=st.lists(
            st.sampled_from([0.005, 0.01, 0.02]),
            min_size=1, max_size=2, unique=True,
        ),
        backends=st.lists(
            st.sampled_from(["vectorized", "batched", "optimized", "reference"]),
            min_size=1, max_size=3, unique=True,
        ),
        replica_batch=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_plan_units_partitions_any_mixed_grid(
        self, seeds, rates, backends, replica_batch
    ):
        specs = _mixed_grid(seeds, rates, backends)
        batch = ExperimentBatch(specs, replica_batch=replica_batch)
        _, _, _, _, pending = batch._scan()
        tasks = list(pending.values())
        units = batch._plan_units(tasks)

        flattened = []
        for unit in units:
            members = list(getattr(unit, "tasks", (unit,)))
            flattened.extend(members)
            if len(members) > 1:
                # Groups: bounded width, one structural key, kernel family.
                assert 2 <= len(members) <= replica_batch
                keys = {
                    structural_key(task.spec, extra=batch._key_extra())
                    for task in members
                }
                assert len(keys) == 1
                for task in members:
                    assert task.spec.sim.backend in ("vectorized", "batched")
        # Exact partition: every pending task appears exactly once.
        assert sorted(task.key for task in flattened) == sorted(
            task.key for task in tasks
        )

    @given(
        seed_a=st.integers(min_value=0, max_value=1000),
        seed_b=st.integers(min_value=0, max_value=1000),
        rate_a=st.sampled_from([0.005, 0.01]),
        rate_b=st.sampled_from([0.005, 0.01]),
    )
    @settings(max_examples=50, deadline=None)
    def test_structural_key_ignores_exactly_the_seed(
        self, seed_a, seed_b, rate_a, rate_b
    ):
        spec_a = _spec(seed_a, rate=rate_a)
        spec_b = _spec(seed_b, rate=rate_b)
        same_key = structural_key(spec_a) == structural_key(spec_b)
        assert same_key == (structural_config(spec_a) == structural_config(spec_b))
        assert same_key == (rate_a == rate_b)
        # The structural config is the canonical config minus the seed.
        canonical = canonical_config(spec_a)
        canonical["sim"].pop("seed", None)
        structural = structural_config(spec_a)
        assert "seed" not in structural["sim"]
        assert structural == canonical


# ---------------------------------------------------------------------- #
# Grouped execution writes byte-identical caches
# ---------------------------------------------------------------------- #
def _seed_grid():
    """A multi-seed grid with per-spec seeds (the replica workload)."""
    return [
        _spec(seed, policy=policy, rate=rate)
        for policy in ("elevator_first", "cda")
        for rate in (0.005, 0.01)
        for seed in (1, 2, 3)
    ]


def _cache_bytes(directory: str) -> dict:
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
        if name.startswith(("result-", "design-"))
    }


class TestGroupedCacheByteIdentity:
    def test_grouped_sweep_cache_matches_ungrouped(self, tmp_path):
        grid = _seed_grid()
        plain_dir = str(tmp_path / "plain")
        ExperimentBatch(grid, result_cache=ResultCache(plain_dir)).run()

        grouped_dir = str(tmp_path / "grouped")
        batch = ExperimentBatch(
            grid, result_cache=ResultCache(grouped_dir), replica_batch=3
        )
        outcomes = batch.run()
        assert batch.last_replica_groups == 4  # 2 policies x 2 rates
        assert batch.last_executed == len(grid)
        assert len(outcomes) == len(grid)
        assert _cache_bytes(grouped_dir) == _cache_bytes(plain_dir)

    def test_killed_grouped_run_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        grid = _seed_grid()
        plain_dir = str(tmp_path / "plain")
        ExperimentBatch(grid, result_cache=ResultCache(plain_dir)).run()

        grouped_dir = str(tmp_path / "grouped")
        monkeypatch.setenv(ABORT_AFTER_CHUNKS_ENV, "1")
        with pytest.raises(ChunkAbort):
            ExperimentBatch(
                grid, result_cache=ResultCache(grouped_dir),
                replica_batch=3, chunk_size=4,
            ).run()
        monkeypatch.delenv(ABORT_AFTER_CHUNKS_ENV)
        # The kill left a partial cache behind.
        partial = _cache_bytes(grouped_dir)
        assert 0 < len(partial) < len(_cache_bytes(plain_dir))

        resumed = ExperimentBatch(
            grid, result_cache=ResultCache(grouped_dir),
            replica_batch=3, chunk_size=4,
        )
        outcomes = resumed.run()
        assert len(outcomes) == len(grid)
        assert _cache_bytes(grouped_dir) == _cache_bytes(plain_dir)

    def test_mixed_backend_grid_groups_only_kernel_family(self, tmp_path):
        grid = [
            _spec(seed, backend=backend)
            for backend in ("vectorized", "optimized")
            for seed in (1, 2, 3)
        ]
        plain_dir = str(tmp_path / "plain")
        ExperimentBatch(grid, result_cache=ResultCache(plain_dir)).run()
        grouped_dir = str(tmp_path / "grouped")
        batch = ExperimentBatch(
            grid, result_cache=ResultCache(grouped_dir), replica_batch=4
        )
        batch.run()
        assert batch.last_replica_groups == 1  # only the vectorized seeds
        assert _cache_bytes(grouped_dir) == _cache_bytes(plain_dir)


# ---------------------------------------------------------------------- #
# Warm-worker setup memoization
# ---------------------------------------------------------------------- #
class TestSetupMemo:
    def test_memo_hits_on_rerun_and_results_match(self, tmp_path):
        clear_setup_memo()
        grid = [_spec(seed) for seed in (1, 2, 3)]
        cold_dir = str(tmp_path / "cold")
        cold = ExperimentBatch(grid, result_cache=ResultCache(cold_dir))
        cold.run()
        assert cold.last_memo_misses >= 1

        warm_dir = str(tmp_path / "warm")
        warm = ExperimentBatch(grid, result_cache=ResultCache(warm_dir))
        warm.run()
        assert warm.last_memo_hits >= 1
        assert _cache_bytes(warm_dir) == _cache_bytes(cold_dir)

    def test_timing_counters_accumulate(self, tmp_path):
        grid = [_spec(seed) for seed in (1, 2)]
        batch = ExperimentBatch(
            grid, result_cache=ResultCache(str(tmp_path / "cache"))
        )
        batch.run()
        assert batch.last_setup_s > 0.0
        assert batch.last_kernel_s > 0.0
        assert batch.last_memo_hits + batch.last_memo_misses >= len(grid)

        # Fully cached reruns execute nothing and reset the counters.
        rerun = ExperimentBatch(
            grid, result_cache=ResultCache(str(tmp_path / "cache"))
        )
        rerun.run()
        assert rerun.last_executed == 0
        assert rerun.last_setup_s == 0.0
        assert rerun.last_kernel_s == 0.0
