"""Regression tests for the parallel experiment engine's determinism.

The engine's contract: an identical spec + seed produces a
*bit-identical* ``SimulationResult.summary()`` row whether the batch runs
serially (``workers=1``), fanned out over worker processes, or replayed from
a warm cache directory -- and a warm cache performs zero new simulations.
"""

from __future__ import annotations

import pytest

from repro.core.amosa import AmosaConfig
from repro.core.optimizers import AmosaSearch
from repro.exec.batch import ExperimentBatch, clear_setup_memo, run_batch
from repro.exec.cache import config_key, derive_seed, open_caches
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec
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

#: Cache keys of two benchmark-shaped specs on the default kernel: a
#: Fig. 4 PM-knee spec and a Fig. 7 application spec.  The PM-knee spec
#: spells ``vectorized`` with ``bit_exact`` set, as the benchmark's do;
#: both collapse onto the default-kernel key.  Rows cached under these
#: keys stay servable only while the hashes hold byte for byte.
PM_KNEE_KEY = "9cf6db3c9dd6f19483b92fa628b5426a6653f1e866aaecc069ae5d1aef90d58e"
PAPER_APPS_KEY = "797c9ada42f42b93bdd9dd292230c156512acf2cce147439cc8817fc0e77af18"


def _results(directory: str):
    """The result cache of a cache directory's store."""
    return open_caches(directory)[0]


def _tiny_placement() -> ElevatorPlacement:
    return ElevatorPlacement(Mesh3D(2, 2, 2), [(0, 0), (1, 1)], name="exec-tiny")


def _base_spec(**overrides) -> ExperimentSpec:
    placement = PlacementSpec.from_placement(_tiny_placement())
    defaults = dict(
        traffic="uniform",
        injection_rate=0.05,
        warmup_cycles=20,
        measurement_cycles=120,
        drain_cycles=150,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentSpec(placement=placement).with_(**defaults)


@pytest.fixture
def grid():
    """A small Fig. 4-style grid: 2 policies x 2 injection rates."""
    base = _base_spec()
    return [
        base.with_(policy=policy, injection_rate=rate)
        for policy in ("elevator_first", "cda")
        for rate in (0.02, 0.05)
    ]


class TestSerialParallelCacheIdentity:
    def test_serial_matches_four_workers(self, grid):
        serial = run_batch(grid, workers=1)
        parallel = run_batch(grid, workers=4)
        assert [o.spec for o in serial] == [o.spec for o in parallel]
        # Bit-identical rows, not approximate equality.
        assert [o.summary for o in serial] == [o.summary for o in parallel]
        assert not any(o.from_cache for o in serial + parallel)

    def test_warm_disk_cache_is_bit_identical_and_runs_nothing(self, grid, tmp_path):
        cold = ExperimentBatch(grid, workers=1, result_cache=_results(str(tmp_path)))
        cold_outcomes = cold.run()
        assert cold.last_executed == len(grid)

        # A fresh cache object over the same directory: everything must come
        # from its store, with zero new simulations.
        warm = ExperimentBatch(grid, workers=1, result_cache=_results(str(tmp_path)))
        warm_outcomes = warm.run()
        assert warm.last_executed == 0
        assert all(o.from_cache for o in warm_outcomes)
        assert [o.summary for o in cold_outcomes] == [o.summary for o in warm_outcomes]

    def test_parallel_run_against_warm_cache(self, grid, tmp_path):
        run_batch(grid, workers=1, result_cache=_results(str(tmp_path)))
        warm = ExperimentBatch(grid, workers=4, result_cache=_results(str(tmp_path)))
        outcomes = warm.run()
        assert warm.last_executed == 0
        assert all(o.from_cache for o in outcomes)

    def test_duplicate_configs_simulate_once(self, grid):
        batch = ExperimentBatch(grid + grid, workers=1)
        outcomes = batch.run()
        assert len(outcomes) == 2 * len(grid)
        assert batch.last_executed == len(grid)
        first, second = outcomes[: len(grid)], outcomes[len(grid):]
        assert [o.summary for o in first] == [o.summary for o in second]


class TestAdEleDeterminism:
    """AdEle's offline design is resolved once in the parent and shipped to
    workers as subsets, so parallel runs match serial runs bit for bit."""

    @pytest.fixture(autouse=True)
    def _tiny_offline(self, monkeypatch):
        monkeypatch.setattr(AmosaSearch, "config_defaults", TINY_AMOSA)

    def test_adele_serial_matches_workers_and_cache(self, tmp_path):
        base = _base_spec(
            policy=PolicySpec(name="adele", options={"max_subset_size": 2})
        )
        specs = [base.with_(injection_rate=rate) for rate in (0.02, 0.05)]
        result_cache, design_cache = open_caches(str(tmp_path))

        serial = run_batch(specs, workers=1, design_cache=design_cache)
        parallel = run_batch(specs, workers=4, design_cache=design_cache)
        assert [o.summary for o in serial] == [o.summary for o in parallel]

        # Warm result cache on top: identical rows, zero new simulations.
        cold = ExperimentBatch(
            specs, workers=1, result_cache=result_cache, design_cache=design_cache
        )
        cold_rows = [o.summary for o in cold.run()]
        warm_results, warm_designs = open_caches(str(tmp_path))
        warm = ExperimentBatch(
            specs,
            workers=4,
            result_cache=warm_results,
            design_cache=warm_designs,
        )
        warm_outcomes = warm.run()
        assert warm.last_executed == 0
        assert cold_rows == [o.summary for o in warm_outcomes]
        assert cold_rows == [o.summary for o in serial]


class TestCrossBackendDeterminism:
    """reference == optimized == warm cache, bit for bit, through the
    batch engine -- and backend spelling never splits the cache."""

    def test_backend_matrix_is_bit_identical(self, grid):
        reference = run_batch([s.with_(backend="reference") for s in grid])
        optimized = run_batch([s.with_(backend="optimized") for s in grid])
        default = run_batch(grid)
        assert [o.summary for o in reference] == [o.summary for o in optimized]
        assert [o.summary for o in optimized] == [o.summary for o in default]

    def test_warm_cache_matches_both_backends(self, grid, tmp_path):
        cold = run_batch(
            [s.with_(backend="reference") for s in grid],
            result_cache=_results(str(tmp_path)),
        )
        warm_batch = ExperimentBatch(
            [s.with_(backend="reference") for s in grid],
            result_cache=_results(str(tmp_path)),
        )
        warm = warm_batch.run()
        assert warm_batch.last_executed == 0
        assert [o.summary for o in cold] == [o.summary for o in warm]
        # The optimized runs reproduce the cached reference rows exactly.
        live = run_batch(grid)
        assert [o.summary for o in live] == [o.summary for o in warm]

    def test_default_backend_spelling_shares_cache_keys(self, grid):
        spec = grid[0]
        assert config_key(spec) == config_key(spec.with_(backend="optimized"))
        assert config_key(spec) == config_key(spec.with_(backend="ACTIVE-SET"))
        assert config_key(spec) != config_key(spec.with_(backend="reference"))

    def test_derived_seed_ignores_backend(self, grid):
        spec = grid[0]
        assert derive_seed(spec.with_(backend="reference"), 7) == derive_seed(
            spec.with_(backend="optimized"), 7
        )

    def test_derived_seed_ignores_kernel_and_bit_exact_flag(self, grid):
        spec = grid[0]
        seeds = {
            derive_seed(spec.with_(backend=backend, bit_exact=flag), 7)
            for backend in ("reference", "optimized")
            for flag in (False, True)
        }
        assert seeds == {derive_seed(spec, 7)}

    def test_bit_exact_flag_never_splits_the_cache(self, grid):
        for backend in ("reference", "optimized"):
            spec = grid[0].with_(backend=backend)
            assert config_key(spec) == config_key(spec.with_(bit_exact=True)), backend

    def test_benchmark_shaped_keys_are_pinned(self):
        pm_knee = ExperimentSpec(
            placement=PlacementSpec(name="PM"),
            policy=PolicySpec(name="adele"),
            traffic=TrafficSpec(pattern="uniform", injection_rate=0.006),
            sim=SimSpec(
                warmup_cycles=200, measurement_cycles=600, drain_cycles=400,
                seed=100003, backend="vectorized", bit_exact=True,
            ),
        )
        paper_apps = ExperimentSpec(
            placement=PlacementSpec(name="PS1"),
            policy=PolicySpec(name="cda"),
            traffic=TrafficSpec(pattern="fft", injection_rate=0.005),
            sim=SimSpec(
                warmup_cycles=200, measurement_cycles=800, drain_cycles=500,
                seed=100003,
            ),
        )
        assert config_key(pm_knee) == PM_KNEE_KEY
        assert config_key(pm_knee.with_(backend="optimized", bit_exact=False)) == PM_KNEE_KEY
        assert config_key(paper_apps) == PAPER_APPS_KEY

    def test_base_seeded_batches_agree_across_backends(self, grid):
        ref = run_batch([s.with_(backend="reference") for s in grid], base_seed=9)
        opt = run_batch([s.with_(backend="optimized") for s in grid], base_seed=9)
        assert [o.summary for o in ref] == [o.summary for o in opt]


class TestBaseSeedDerivation:
    def test_base_seed_replaces_config_seeds_deterministically(self, grid):
        batch_a = ExperimentBatch(grid, base_seed=7)
        batch_b = ExperimentBatch(grid, base_seed=7)
        seeds_a = [s.sim.seed for s in batch_a.effective_specs()]
        seeds_b = [s.sim.seed for s in batch_b.effective_specs()]
        assert seeds_a == seeds_b
        assert seeds_a == [derive_seed(s, 7) for s in grid]
        # Distinct tasks get distinct seeds on this grid.
        assert len(set(seeds_a)) == len(grid)

    def test_different_base_seeds_give_different_tasks(self, grid):
        seeds_7 = [s.sim.seed for s in ExperimentBatch(grid, base_seed=7).effective_specs()]
        seeds_8 = [s.sim.seed for s in ExperimentBatch(grid, base_seed=8).effective_specs()]
        assert seeds_7 != seeds_8

    def test_derived_seed_ignores_the_configs_own_seed(self, grid):
        spec = grid[0]
        assert derive_seed(spec, 7) == derive_seed(spec.with_(seed=999), 7)

    def test_cache_keys_follow_the_derived_seed(self, grid):
        batch = ExperimentBatch(grid, base_seed=7)
        effective = batch.effective_specs()
        assert [config_key(s) for s in effective] != [config_key(s) for s in grid]


class TestSetupMemo:
    """The warm-worker setup memo reuses networks and route tables without
    changing results."""

    def test_memo_hits_on_rerun_and_results_match(self, tmp_path, store_rows):
        clear_setup_memo()
        grid = [_base_spec(seed=seed) for seed in (1, 2, 3)]
        cold_dir = str(tmp_path / "cold")
        cold = ExperimentBatch(grid, result_cache=_results(cold_dir))
        cold.run()
        assert cold.last_memo_misses >= 1

        warm_dir = str(tmp_path / "warm")
        warm = ExperimentBatch(grid, result_cache=_results(warm_dir))
        warm.run()
        assert warm.last_memo_hits >= 1
        assert store_rows(warm_dir) == store_rows(cold_dir)
        assert len(store_rows(cold_dir)[0]) == len(grid)

    def test_timing_counters_accumulate(self, tmp_path):
        grid = [_base_spec(seed=seed) for seed in (1, 2)]
        batch = ExperimentBatch(
            grid, result_cache=_results(str(tmp_path / "cache"))
        )
        batch.run()
        assert batch.last_setup_s > 0.0
        assert batch.last_kernel_s > 0.0
        assert batch.last_memo_hits + batch.last_memo_misses >= len(grid)

        # Fully cached reruns execute nothing and reset the counters.
        rerun = ExperimentBatch(
            grid, result_cache=_results(str(tmp_path / "cache"))
        )
        rerun.run()
        assert rerun.last_executed == 0
        assert rerun.last_setup_s == 0.0
        assert rerun.last_kernel_s == 0.0
