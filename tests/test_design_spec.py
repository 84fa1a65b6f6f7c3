"""DesignSpec: serialization, cache keying, disk round trips and the CLI."""

import json

import pytest

from repro.analysis import runner
from repro.analysis.runner import design_for, design_key_for
from repro.core.optimizers import DEFAULT_OFFLINE_AMOSA
from repro.exec.cache import canonical_config, config_key, open_caches
from repro.exec.cli import main as cli_main
from repro.registry import UnknownComponentError
from repro.spec import DesignSpec, ExperimentSpec, PlacementSpec

TINY_PLACEMENT = PlacementSpec(name="tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1)))

FAST_DESIGN = DesignSpec(
    placement=TINY_PLACEMENT,
    optimizer="random-search",
    options={"evaluations": 60, "seed": 2},
    max_subset_size=2,
)


# --------------------------------------------------------------------- #
# Validation and serialization
# --------------------------------------------------------------------- #
class TestDesignSpecValidation:
    def test_defaults(self):
        spec = DesignSpec()
        assert spec.traffic == "uniform"
        assert spec.optimizer == "amosa"
        assert spec.selection == "knee"
        assert spec.max_subset_size == 4

    def test_round_trip(self):
        spec = FAST_DESIGN.with_(selection="energy", traffic="shuffle")
        rebuilt = DesignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown design spec"):
            DesignSpec.from_dict({"optimiser": "amosa"})

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            DesignSpec(optimizer="")
        with pytest.raises(ValueError):
            DesignSpec(selection="balanced")
        with pytest.raises(ValueError):
            DesignSpec(max_subset_size=0)
        with pytest.raises(ValueError):
            DesignSpec(options={"x": object()})

    def test_optimizer_name_normalized(self):
        assert DesignSpec(optimizer="  AMOSA ").optimizer == "amosa"

    def test_none_max_subset_size_round_trips(self):
        spec = DesignSpec(max_subset_size=None)
        assert DesignSpec.from_dict(spec.to_dict()).max_subset_size is None


class TestExperimentSpecNesting:
    def test_default_spec_serialization_unchanged(self):
        data = ExperimentSpec().to_dict()
        assert "design" not in data
        assert set(data) == {"format", "placement", "policy", "traffic", "sim"}

    def test_nested_design_enters_serialization_without_placement(self):
        spec = ExperimentSpec().with_(design=FAST_DESIGN)
        data = spec.to_dict()
        assert "design" in data
        assert "placement" not in data["design"]
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.design is not None
        assert rebuilt.design.optimizer == "random-search"
        assert config_key(rebuilt) == config_key(spec)

    def test_design_splits_the_cache_key(self):
        base = ExperimentSpec()
        assert config_key(base) != config_key(base.with_(design=FAST_DESIGN))
        assert config_key(base.with_(design=FAST_DESIGN)) != config_key(
            base.with_(design=FAST_DESIGN.with_(selection="energy"))
        )

    def test_canonical_config_normalizes_design(self):
        from dataclasses import asdict

        explicit = ExperimentSpec().with_(
            design=DesignSpec(optimizer="AMOSA", options=asdict(DEFAULT_OFFLINE_AMOSA))
        )
        implicit = ExperimentSpec().with_(design=DesignSpec(optimizer="amosa"))
        assert canonical_config(explicit) == canonical_config(implicit)
        assert config_key(explicit) == config_key(implicit)

    def test_with_design_none_restores_default_key(self):
        spec = ExperimentSpec().with_(design=FAST_DESIGN)
        assert config_key(spec.with_(design=None)) == config_key(ExperimentSpec())

    def test_explicit_default_design_collapses_onto_no_design(self):
        # Spelling out the implicit offline defaults must not split the
        # cache (nor change derived seeds) for AdEle policies without their
        # own max_subset_size option.
        from repro.exec.cache import derive_seed
        from repro.spec import PolicySpec

        base = ExperimentSpec(policy=PolicySpec(name="adele"))
        explicit = base.with_(design=DesignSpec())
        assert config_key(explicit) == config_key(base)
        assert derive_seed(explicit, 7) == derive_seed(base, 7)
        # ...but a policy-level cap makes the two semantically different
        # (the design's cap would win), so they must split.
        capped = ExperimentSpec(
            policy=PolicySpec(name="adele", options={"max_subset_size": 2})
        )
        assert config_key(capped.with_(design=DesignSpec())) != config_key(capped)

    def test_design_ignored_for_non_design_policies(self):
        # Non-AdEle policies never consult the design: attaching one must
        # not split their cache entries.
        base = ExperimentSpec().with_(policy="elevator_first")
        assert config_key(base.with_(design=FAST_DESIGN)) == config_key(base)

    def test_design_must_be_design_spec(self):
        with pytest.raises(ValueError, match="DesignSpec"):
            ExperimentSpec().with_(design="amosa")


# --------------------------------------------------------------------- #
# Cache keying and disk round trips
# --------------------------------------------------------------------- #
class TestDesignCacheRoundTrip:
    def test_design_key_stable_and_optimizer_sensitive(self):
        key_a = design_key_for(FAST_DESIGN)
        assert key_a == design_key_for(FAST_DESIGN)
        key_b = design_key_for(FAST_DESIGN.with_(options={"evaluations": 61, "seed": 2}))
        assert key_a != key_b
        key_c = design_key_for(FAST_DESIGN.with_(optimizer="greedy-swap", options={}))
        assert key_a != key_c

    def test_selection_does_not_split_the_design_cache(self):
        assert design_key_for(FAST_DESIGN) == design_key_for(
            FAST_DESIGN.with_(selection="energy")
        )

    def test_unknown_optimizer_raises_did_you_mean(self):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            design_key_for(FAST_DESIGN.with_(optimizer="amosaa"))
        with pytest.raises(ValueError):
            design_for(FAST_DESIGN.with_(optimizer="amosaa"))

    def test_disk_round_trip_skips_reoptimization(self, tmp_path, monkeypatch):
        warm = open_caches(str(tmp_path))[1]
        original = design_for(FAST_DESIGN, cache=warm)

        def _fail(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("offline optimization re-ran on a warm cache")

        monkeypatch.setattr(runner, "optimize_elevator_subsets", _fail)
        fresh = open_caches(str(tmp_path))[1]
        reloaded = design_for(FAST_DESIGN, cache=fresh)
        assert reloaded.pareto_points() == original.pareto_points()
        assert reloaded.selected_subsets() == original.selected_subsets()

    def test_non_uniform_named_pattern_round_trips(self, tmp_path, monkeypatch):
        spec = FAST_DESIGN.with_(traffic="shuffle")
        warm = open_caches(str(tmp_path))[1]
        original = design_for(spec, cache=warm)
        monkeypatch.setattr(
            runner,
            "optimize_elevator_subsets",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-ran")),
        )
        reloaded = design_for(spec, cache=open_caches(str(tmp_path))[1])
        assert reloaded.pareto_points() == original.pareto_points()

    def test_selection_reapplied_on_warm_fetch(self, tmp_path):
        cache = open_caches(str(tmp_path))[1]
        design_for(FAST_DESIGN, cache=cache)
        energy = design_for(FAST_DESIGN.with_(selection="energy"), cache=cache)
        archive = energy.result.archive
        assert energy.selected.objectives == min(
            (e.objectives for e in archive), key=lambda o: (o[-1], o[0])
        )
        latency = design_for(FAST_DESIGN.with_(selection="latency"), cache=cache)
        assert latency.selected.objectives == min(
            (e.objectives for e in archive), key=lambda o: (o[0], o[-1])
        )

    def test_warm_fetch_with_other_selection_never_mutates_earlier_design(
        self, tmp_path
    ):
        # A later caller's selection must not flip `selected` underneath a
        # design already handed to an earlier caller.
        cache = open_caches(str(tmp_path))[1]
        latency = design_for(FAST_DESIGN.with_(selection="latency"), cache=cache)
        held = latency.selected
        energy = design_for(FAST_DESIGN.with_(selection="energy"), cache=cache)
        assert latency.selected is held
        if energy.selected.objectives != held.objectives:
            assert energy is not latency

    def test_nested_design_drives_build_policy(self):
        spec = ExperimentSpec().with_(
            placement=TINY_PLACEMENT,
            policy="adele",
            design=FAST_DESIGN,
        )
        placement = spec.placement.resolve()
        cache = runner.DesignCache()
        policy = runner.build_policy(spec, placement, design_cache=cache)
        assert policy is not None
        assert len(cache) == 1
        # The cache entry is keyed by the design spec, not the legacy
        # default-AMOSA key.
        (key,) = list(cache._designs)
        assert "random-search" in key


# --------------------------------------------------------------------- #
# CLI: python -m repro optimize
# --------------------------------------------------------------------- #
class TestOptimizeCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(FAST_DESIGN.to_dict()))
        return str(path)

    def test_cold_then_warm_cache_hit(self, spec_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(["optimize", "--spec", spec_file, "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "design optimized" in cold
        assert cli_main(["optimize", "--spec", spec_file, "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert "design served from cache" in warm
        # Identical report apart from the cache line.
        def strip(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[repro.exec]")
            ]

        assert strip(cold) == strip(warm)

    def test_optimizer_flag_overrides_spec(self, spec_file, capsys):
        assert (
            cli_main(
                ["optimize", "--spec", spec_file, "--optimizer", "greedy-swap"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "optimizer=greedy-swap" in out

    def test_unknown_optimizer_raises_value_error(self, spec_file):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            cli_main(["optimize", "--spec", spec_file, "--optimizer", "amosaa"])

    def test_adhoc_mesh_flags(self, capsys):
        assert (
            cli_main(
                [
                    "optimize",
                    "--mesh", "2", "2", "2",
                    "--elevators", "0,0;1,1",
                    "--optimizer", "random-search",
                    "--max-subset-size", "2",
                    "--selection", "energy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "selection=energy" in out
        assert "selected" in out

    def test_progress_flag_reports(self, spec_file, capsys):
        assert cli_main(["optimize", "--spec", spec_file, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[optimize]" in err

    def test_malformed_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            cli_main(["optimize", "--spec", str(bad)])
        bad.write_text(json.dumps({"optimiser": "amosa"}))
        with pytest.raises(SystemExit, match="unknown design spec"):
            cli_main(["optimize", "--spec", str(bad)])

    def test_list_shows_optimizers(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "optimizers:" in out
        assert "amosa" in out and "random-search" in out and "greedy-swap" in out


# --------------------------------------------------------------------- #
# Promoted offline knobs (weight_distance_by_traffic / num_representatives)
# --------------------------------------------------------------------- #
class TestPromotedOfflineKnobs:
    def test_defaults_omitted_from_canonical_serialization(self):
        data = DesignSpec().to_dict()
        assert "weight_distance_by_traffic" not in data
        assert "num_representatives" not in data

    def test_non_defaults_round_trip(self):
        spec = FAST_DESIGN.with_(
            weight_distance_by_traffic=True, num_representatives=3
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert data["weight_distance_by_traffic"] is True
        assert data["num_representatives"] == 3
        assert DesignSpec.from_dict(data) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(weight_distance_by_traffic=1)
        with pytest.raises(ValueError):
            DesignSpec(num_representatives=0)
        with pytest.raises(ValueError):
            DesignSpec(num_representatives=True)

    def test_default_knobs_keep_design_cache_key(self):
        explicit = FAST_DESIGN.with_(
            weight_distance_by_traffic=False, num_representatives=6
        )
        assert design_key_for(explicit) == design_key_for(FAST_DESIGN)

    def test_weighting_extends_key_but_representatives_do_not(self):
        weighted = FAST_DESIGN.with_(weight_distance_by_traffic=True)
        assert design_key_for(weighted) != design_key_for(FAST_DESIGN)
        fewer = FAST_DESIGN.with_(num_representatives=2)
        assert design_key_for(fewer) == design_key_for(FAST_DESIGN)

    def test_representatives_reapplied_on_cache_hit(self):
        baseline = design_for(FAST_DESIGN)
        fewer = design_for(FAST_DESIGN.with_(num_representatives=2))
        assert len(fewer.representatives) == min(2, len(baseline.result.archive))
        again = design_for(FAST_DESIGN)
        assert len(again.representatives) == len(baseline.representatives)

    def test_weighted_design_survives_disk_round_trip(self, tmp_path):
        cache = open_caches(str(tmp_path / "designs"))[1]
        spec = FAST_DESIGN.with_(weight_distance_by_traffic=True)
        first = runner.design_for(spec, cache=cache)
        fresh = open_caches(str(tmp_path / "designs"))[1]
        second = runner.design_for(spec, cache=fresh)
        assert second.result.evaluations == first.result.evaluations
        assert [e.objectives for e in second.result.archive] == [
            e.objectives for e in first.result.archive
        ]
        assert second.problem.evaluator.weight_distance_by_traffic is True

    def test_experiment_nesting_defaults_collapse(self):
        nested = ExperimentSpec(
            placement=TINY_PLACEMENT,
            design=DesignSpec(
                weight_distance_by_traffic=False, num_representatives=6
            ),
        )
        bare = ExperimentSpec(placement=TINY_PLACEMENT)
        assert config_key(nested) == config_key(bare)
        weighted = ExperimentSpec(
            placement=TINY_PLACEMENT,
            design=DesignSpec(weight_distance_by_traffic=True),
        )
        assert config_key(weighted) != config_key(bare)

    def test_cli_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "design.json"
        spec_path.write_text(json.dumps(FAST_DESIGN.to_dict()))
        assert (
            cli_main(
                [
                    "optimize", "--spec", str(spec_path),
                    "--weight-by-traffic", "--representatives", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "S0" in out
        assert "S2" not in out
