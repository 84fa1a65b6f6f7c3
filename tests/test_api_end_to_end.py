"""End-to-end acceptance: user-registered components run everywhere by name.

A policy and a traffic pattern registered with one decorator each must run
through :class:`~repro.exec.batch.ExperimentBatch` (serial == 4 workers ==
warm disk cache, bit-identical) and through the CLI -- referenced purely by
name, with zero changes to runner internals.
"""

from __future__ import annotations

import textwrap
import warnings

import pytest

from repro.api import (
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
    SimSpec,
    TrafficSpec,
    register_pattern,
    register_policy,
    run_specs,
)
from repro.exec.batch import ExperimentBatch
from repro.exec.cache import open_caches
from repro.exec.cli import main as cli_main
from repro.routing.base import POLICY_REGISTRY, ElevatorSelectionPolicy
from repro.traffic.patterns import PATTERN_REGISTRY, TrafficPattern, UniformTraffic


@register_policy(
    "farthest_e2e", description="farthest healthy elevator (test policy)"
)
class FarthestElevatorPolicy(ElevatorSelectionPolicy):
    """Deterministically picks the elevator farthest from the source."""

    name = "farthest_e2e"

    def _select(self, source, destination, network, cycle):
        coord = self.mesh.coordinate(source)
        return max(
            self.placement.healthy_elevators(),
            key=lambda e: (abs(coord.x - e.x) + abs(coord.y - e.y), -e.index),
        )


@register_pattern("ring_e2e", description="node i sends to node i+1 (test pattern)")
class RingTraffic(TrafficPattern):
    """Deterministic ring: node ``i`` always targets ``(i + 1) % N``."""

    name = "ring_e2e"

    def destination(self, source: int) -> int:
        return (source + 1) % self.mesh.num_nodes

    def traffic_matrix(self):
        n = self.mesh.num_nodes
        return {(src, (src + 1) % n): 1.0 for src in range(n)}


def _spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        placement=PlacementSpec(name="e2e", mesh=(2, 2, 2), columns=((0, 0), (1, 1))),
        policy=PolicySpec(name="farthest_e2e"),
        traffic=TrafficSpec(pattern="ring_e2e", injection_rate=0.05),
        sim=SimSpec(warmup_cycles=20, measurement_cycles=120, drain_cycles=150, seed=5),
    )
    return spec.with_(**overrides) if overrides else spec


class TestCustomComponentsThroughTheEngine:
    def test_registered_by_this_module(self):
        assert "farthest_e2e" in POLICY_REGISTRY
        assert "ring_e2e" in PATTERN_REGISTRY

    def test_spec_round_trips_and_hashes(self):
        spec = _spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_serial_parallel_and_warm_cache_are_bit_identical(self, tmp_path):
        grid = [
            _spec(injection_rate=rate, policy=policy)
            for rate in (0.02, 0.05)
            for policy in ("farthest_e2e", "elevator_first")
        ]
        serial = ExperimentBatch(grid, workers=1)
        serial_rows = [o.summary for o in serial.run()]
        assert serial.last_executed == len(grid)
        assert all(row["average_latency"] > 0 for row in serial_rows)

        parallel = ExperimentBatch(grid, workers=4)
        parallel_rows = [o.summary for o in parallel.run()]
        assert serial_rows == parallel_rows  # bit-identical, not approximate

        cold = ExperimentBatch(grid, workers=1, result_cache=open_caches(str(tmp_path))[0])
        cold_rows = [o.summary for o in cold.run()]
        warm = ExperimentBatch(grid, workers=4, result_cache=open_caches(str(tmp_path))[0])
        warm_outcomes = warm.run()
        assert warm.last_executed == 0
        assert all(o.from_cache for o in warm_outcomes)
        assert cold_rows == [o.summary for o in warm_outcomes]
        assert cold_rows == serial_rows

    def test_custom_policy_mixes_with_adele_in_one_batch(self, tmp_path, monkeypatch):
        from repro.core.amosa import AmosaConfig
        from repro.core.optimizers import AmosaSearch

        tiny = AmosaConfig(
            initial_temperature=5.0, final_temperature=0.5, cooling_rate=0.6,
            iterations_per_temperature=10, hard_limit=6, soft_limit=12,
            initial_solutions=3, seed=2,
        )
        monkeypatch.setattr(AmosaSearch, "config_defaults", tiny)
        grid = [
            _spec(policy=PolicySpec(name="adele", options={"max_subset_size": 2})),
            _spec(policy="farthest_e2e"),
        ]
        outcomes = run_specs(grid, workers=1, cache_dir=str(tmp_path))
        assert [o.spec.policy.name for o in outcomes] == ["adele", "farthest_e2e"]
        assert all(o.summary["average_latency"] > 0 for o in outcomes)

    def test_run_specs_with_base_seed_is_reproducible(self):
        grid = [_spec(injection_rate=rate) for rate in (0.02, 0.05)]
        first = run_specs(grid, base_seed=7)
        second = run_specs(grid, base_seed=7)
        assert [o.summary for o in first] == [o.summary for o in second]
        assert [o.spec.sim.seed for o in first] == [o.spec.sim.seed for o in second]

    def test_no_deprecation_warnings_from_the_custom_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_specs([_spec()])

    def test_duplicate_specs_report_consistent_cache_flags(self):
        spec = _spec()
        batch = ExperimentBatch([spec, spec])
        outcomes = batch.run()
        # One simulation ran; exactly one outcome claims it, the duplicate
        # is flagged as served from cache, and the counters add up.
        assert batch.last_executed == 1
        assert batch.last_cached == 1
        assert [o.from_cache for o in outcomes] == [False, True]
        assert outcomes[0].summary == outcomes[1].summary

    def test_plugins_are_imported_in_workers(self, tmp_path, monkeypatch):
        # The registration side effect must happen inside the worker too
        # (guards the spawn/forkserver path, where registries are not
        # inherited); the sentinel file is written at import time.
        sentinel = tmp_path / "imported.txt"
        plugin = tmp_path / "worker_plugin_mod.py"
        plugin.write_text(
            "import pathlib\n"
            f"pathlib.Path({str(sentinel)!r}).write_text('yes')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        grid = [_spec(injection_rate=rate) for rate in (0.02, 0.05)]
        run_specs(grid, workers=2, plugins=("worker_plugin_mod",))
        assert sentinel.read_text() == "yes"


class TestCustomComponentsThroughTheCLI:
    def test_sweep_by_name(self, capsys):
        exit_code = cli_main(
            [
                "sweep", "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
                "--policies", "farthest_e2e,elevator_first",
                "--traffic", "ring_e2e", "--rates", "0.02,0.05",
                "--warmup", "10", "--measure", "60", "--drain", "60",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "farthest_e2e" in out
        assert "4 simulated" in out

    def test_compare_by_name(self, capsys):
        exit_code = cli_main(
            [
                "compare", "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
                "--policies", "elevator_first,farthest_e2e",
                "--traffic", "ring_e2e", "--rate", "0.05",
                "--warmup", "10", "--measure", "60", "--drain", "60",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "farthest_e2e" in out and "average_latency" in out

    def test_list_shows_custom_components(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "farthest_e2e" in out
        assert "ring_e2e" in out
        assert "policies:" in out and "placements:" in out

    def test_run_spec_file(self, tmp_path, capsys):
        import json

        spec_file = tmp_path / "specs.json"
        spec_file.write_text(
            json.dumps([_spec().to_dict(), _spec(injection_rate=0.02).to_dict()])
        )
        exit_code = cli_main(
            ["run", "--spec", str(spec_file), "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("farthest_e2e") == 2
        assert "2 simulated" in out

        # Warm re-run: zero simulations, identical table.
        assert cli_main(["run", "--spec", str(spec_file),
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        warm_out = capsys.readouterr().out
        assert "0 simulated, 2 served from cache" in warm_out

        # Identical table modulo the engine's own status lines (which carry
        # nondeterministic timings), same filter the CI smoke diffs use.
        def _table(text: str):
            return [
                line for line in text.splitlines()
                if not line.startswith("[repro.exec]")
            ]

        assert _table(warm_out) == _table(out)

    def test_run_rejects_bad_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 1, "polcy": {}}')
        with pytest.raises(SystemExit, match="unknown experiment spec field"):
            cli_main(["run", "--spec", str(bad)])

    def test_plugin_flag_imports_and_registers(self, tmp_path, monkeypatch, capsys):
        plugin = tmp_path / "e2e_plugin_mod.py"
        plugin.write_text(
            textwrap.dedent(
                '''
                from repro.api import register_policy
                from repro.routing.base import ElevatorSelectionPolicy

                @register_policy("plugin_nearest", description="plugin test policy")
                class PluginNearest(ElevatorSelectionPolicy):
                    name = "plugin_nearest"

                    def _select(self, source, destination, network, cycle):
                        return self.placement.nearest_elevator(source)
                '''
            )
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            assert cli_main(["list", "--plugin", "e2e_plugin_mod"]) == 0
            assert "plugin_nearest" in capsys.readouterr().out
            assert cli_main(
                [
                    "sweep", "--plugin", "e2e_plugin_mod",
                    "--mesh", "2", "2", "2", "--elevators", "0,0",
                    "--policies", "plugin_nearest", "--rates", "0.05",
                    "--warmup", "5", "--measure", "40", "--drain", "40",
                ]
            ) == 0
            assert "plugin_nearest" in capsys.readouterr().out
        finally:
            POLICY_REGISTRY.unregister("plugin_nearest")

    def test_plugin_import_failure_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="cannot import --plugin"):
            cli_main(["list", "--plugin", "definitely_not_a_module_xyz"])

    def test_elevators_without_mesh_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="--elevators requires --mesh"):
            cli_main(["sweep", "--elevators", "0,0", "--rates", "0.01"])


class TestTrafficOptionsThroughSpecs:
    def test_pattern_options_flow_to_the_constructor(self):
        spec = _spec(
            traffic=TrafficSpec(
                pattern="hotspot", injection_rate=0.05,
                options={"hotspot_fraction": 0.9},
            )
        )
        placement = spec.placement.resolve()
        pattern = spec.traffic.build(placement, seed=3)
        assert pattern.hotspot_fraction == 0.9

    def test_application_traffic_rejects_options(self):
        spec = TrafficSpec(pattern="fft", options={"x": 1})
        placement = PlacementSpec(name="PS1").resolve()
        with pytest.raises(ValueError, match="accepts no options"):
            spec.build(placement)

    def test_unknown_traffic_lists_both_registries(self):
        placement = PlacementSpec(name="PS1").resolve()
        with pytest.raises(ValueError) as excinfo:
            TrafficSpec(pattern="nope").build(placement)
        message = str(excinfo.value)
        assert "uniform" in message and "fft" in message

    def test_uniform_spec_matches_direct_construction(self):
        # The registry path must build the exact same pattern objects the
        # direct constructors produce (same RNG seeding).
        spec = _spec(traffic="uniform")
        placement = spec.placement.resolve()
        via_spec = spec.traffic.build(placement, seed=9)
        direct = UniformTraffic(placement.mesh, seed=9)
        assert [via_spec.destination(0) for _ in range(20)] == [
            direct.destination(0) for _ in range(20)
        ]
