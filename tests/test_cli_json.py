"""Tests for the CLI's machine-readable surfaces.

``--json`` must emit exactly one parseable JSON document on stdout for
``sweep`` / ``compare`` / ``run`` (no human tables mixed in), ``run``
must print a scenario spec's per-phase windows and carry probe series,
``optimize`` must fan multi-document spec files over the design batch,
and ``cache stats`` must report a cache directory's store on one line.  A
sweep's ``--cache-dir`` is the store the ``serve`` daemon's queue reads.
A count flag below 1 is a usage error that opens no store.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exec.batch import key_extra_for
from repro.exec.cache import config_key, derive_seed
from repro.exec.cli import main
from repro.service.queue import DONE, QUEUED, JobQueue
from repro.service.store import SqliteStore
from repro.spec import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec

TINY = [
    "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
    "--warmup", "10", "--measure", "40", "--drain", "30",
]


#: CI's fault/repair scenario spec (the ``cli-smoke`` job runs it).
CI_SCENARIO = {
    "format": 1,
    "placement": {"name": "ci", "mesh": [2, 2, 2], "columns": [[0, 0], [1, 1]]},
    "policy": {"name": "elevator_first", "options": {}},
    "traffic": {"pattern": "uniform", "injection_rate": 0.05,
                "min_packet_length": 10, "max_packet_length": 30,
                "options": {}},
    "sim": {"warmup_cycles": 20, "measurement_cycles": 100,
            "drain_cycles": 100, "buffer_depth": 4, "seed": 1},
    "scenario": {"events": [
        {"kind": "elevator-fault", "cycle": 50, "elevator": 0},
        {"kind": "elevator-repair", "cycle": 90, "elevator": 0},
    ]},
}

#: The per-phase lines of CI_SCENARIO, as the retired ``repro scenario``
#: command printed them; ``repro run`` prints them byte for byte.
CI_SCENARIO_PHASE_LINES = [
    "  baseline                         [0,50) created=   17 delivered=    2"
    " avg_latency=    18.00  energy=   29.32 nJ",
    "  fault:e0@50                     [50,90) created=   16 delivered=    4"
    " avg_latency=    29.50  energy=   24.18 nJ",
    "  repair:e0@90                   [90,220) created=   10 delivered=   15"
    " avg_latency=    96.87  energy=   96.25 nJ",
]


def _static(document):
    """A spec document without its scenario timeline."""
    return {key: value for key, value in document.items() if key != "scenario"}


def _capture_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def _spec_file(tmp_path, documents) -> str:
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(documents))
    return str(path)


class TestJsonOutput:
    def test_sweep_json(self, capsys):
        assert main([
            "sweep", *TINY, "--policies", "elevator_first,adele",
            "--rates", "0.001,0.002", "--json",
        ]) == 0
        document = _capture_json(capsys)
        assert document["command"] == "sweep"
        assert document["engine"]["executed"] + document["engine"]["cached"] == 4
        policies = [curve["policy"] for curve in document["curves"]]
        assert policies == ["elevator_first", "adele"]
        for curve in document["curves"]:
            assert len(curve["points"]) == 2
            assert curve["saturation_rate"] > 0

    def test_compare_json(self, capsys):
        assert main([
            "compare", *TINY, "--policies", "elevator_first,cda",
            "--rate", "0.002", "--json",
        ]) == 0
        document = _capture_json(capsys)
        assert document["command"] == "compare"
        assert document["baseline"] == "elevator_first"
        row = document["policies"]["cda"]
        assert "average_latency" in row and "average_latency_norm" in row

    def test_run_json(self, tmp_path, capsys):
        spec = ExperimentSpec(
            placement=PlacementSpec(
                name="cli-json", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
            ),
            traffic=TrafficSpec(pattern="uniform", injection_rate=0.002),
            sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=30),
        )
        path = _spec_file(tmp_path, [spec.to_dict()])
        assert main(["run", "--spec", path, "--json"]) == 0
        document = _capture_json(capsys)
        assert document["command"] == "run"
        (outcome,) = document["outcomes"]
        assert outcome["spec"]["traffic"]["injection_rate"] == 0.002
        assert "average_latency" in outcome["summary"]
        assert isinstance(outcome["key"], str) and not outcome["from_cache"]

    def test_scenario_json(self, tmp_path, capsys):
        spec = ExperimentSpec(
            placement=PlacementSpec(
                name="cli-json", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
            ),
            traffic=TrafficSpec(pattern="uniform", injection_rate=0.002),
            sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=30),
        )
        document = spec.to_dict()
        document["scenario"] = {
            "events": [{"kind": "elevator-fault", "cycle": 10, "elevator": 0}]
        }
        path = _spec_file(tmp_path, [document])
        assert main(["run", "--spec", path, "--json"]) == 0
        parsed = _capture_json(capsys)
        assert parsed["command"] == "run"
        (outcome,) = parsed["outcomes"]
        assert outcome["spec"]["scenario"]["events"] == [
            {"kind": "elevator-fault", "cycle": 10, "elevator": 0, "label": None}
        ]
        labels = [phase["label"] for phase in outcome["summary"]["phases"]]
        assert labels[0] == "baseline" and len(labels) == 2

    def test_json_reruns_hit_the_cache(self, tmp_path, capsys):
        args = [
            "compare", *TINY, "--policies", "elevator_first",
            "--rate", "0.002", "--json", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = _capture_json(capsys)
        assert main(args) == 0
        second = _capture_json(capsys)
        # The engine block shape is pinned: counters plus the observability
        # timings/memo counts that ride along in every document (the timing
        # floats themselves are nondeterministic, so only their type is).
        expected_keys = {
            "executed", "cached", "workers",
            "setup_s", "kernel_s", "memo_hits", "memo_misses",
        }
        for engine, executed, cached in (
            (first["engine"], 1, 0), (second["engine"], 0, 1),
        ):
            assert set(engine) == expected_keys
            assert engine["executed"] == executed
            assert engine["cached"] == cached
            assert engine["workers"] == 1
            assert isinstance(engine["setup_s"], float)
            assert isinstance(engine["kernel_s"], float)
            assert isinstance(engine["memo_hits"], int)
            assert isinstance(engine["memo_misses"], int)
        # One executed task means exactly one setup-memo lookup; whether it
        # hits depends on what earlier tests warmed in this process.
        first_memo = first["engine"]["memo_hits"] + first["engine"]["memo_misses"]
        assert first_memo >= 1
        assert second["engine"] == {
            **second["engine"], "setup_s": 0.0, "kernel_s": 0.0,
            "memo_hits": 0, "memo_misses": 0,
        }
        assert first["policies"] == second["policies"]


class TestRunSpecFiles:
    def test_phase_lines_follow_their_scenario_row(self, tmp_path, capsys):
        path = _spec_file(tmp_path, [CI_SCENARIO, _static(CI_SCENARIO)])
        assert main(["run", "--spec", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("placement"))
        rows = lines[header + 1:]
        # The scenario row, its three windows, then the static row with none.
        assert len(rows) == 5
        assert rows[0].startswith("ci ") and rows[4].startswith("ci ")
        assert rows[1:4] == CI_SCENARIO_PHASE_LINES

    def test_scenario_past_the_injection_window_is_a_clean_error(self, tmp_path):
        # Injection stops at cycle 120 (20 warm-up + 100 measured cycles).
        late = dict(CI_SCENARIO, scenario={"events": [
            *CI_SCENARIO["scenario"]["events"],
            {"kind": "elevator-fault", "cycle": 150, "elevator": 0},
        ]})
        path = _spec_file(tmp_path, [late])
        with pytest.raises(
            SystemExit,
            match=r"document 0: scenario timeline reaches cycle 150 but "
                  r"injection stops at cycle 120",
        ):
            main(["run", "--spec", path])

    def test_non_string_label_is_a_clean_error_before_any_run(self, tmp_path):
        fault, repair = CI_SCENARIO["scenario"]["events"]
        labelled = dict(CI_SCENARIO, scenario={"events": [
            dict(fault, label=5), repair,
        ]})
        cache_dir = tmp_path / "cache"
        path = _spec_file(tmp_path, [labelled])
        with pytest.raises(
            SystemExit,
            match=r"document 0: elevator-fault event label must be a string "
                  r"or null, got 5",
        ):
            main(["run", "--spec", path, "--cache-dir", str(cache_dir)])
        # Rejected while the file is read: nothing simulated or cached.
        assert not cache_dir.exists()

    def test_ci_scenario_key_and_seed_are_pinned(self):
        # A cache directory written by an earlier version keeps serving
        # CI's fault/repair spec only while its key stays put.
        spec = ExperimentSpec.from_dict(CI_SCENARIO)
        assert config_key(spec, extra=key_extra_for(None)) == (
            "7d4e9a8193610131dae42702b41bffdd8b55524d6cbe9bb3b9e3eab1fd7e1578"
        )
        assert derive_seed(spec, 7) == 1054722874

    def test_probe_flags_give_one_series_per_outcome(self, tmp_path, capsys):
        other_rate = dict(_static(CI_SCENARIO), traffic=dict(
            CI_SCENARIO["traffic"], injection_rate=0.02,
        ))
        path = _spec_file(tmp_path, [_static(CI_SCENARIO), other_rate])
        assert main([
            "run", "--spec", path, "--probe-interval", "25",
            "--probe-channels", "in_flight_flits", "--json",
        ]) == 0
        document = _capture_json(capsys)
        keys = [outcome["key"] for outcome in document["outcomes"]]
        assert len(set(keys)) == 2
        assert sorted(document["probes"]) == sorted(keys)
        for series in document["probes"].values():
            assert series["interval"] == 25
            assert series["channels"] == ["in_flight_flits"]
            assert list(series["values"]) == ["in_flight_flits"]
            assert series["samples"] >= 1
            assert len(series["values"]["in_flight_flits"]) == series["samples"]


class TestOptimizeGrid:
    def test_multi_document_spec_file_fans_out(self, tmp_path, capsys):
        placement = {
            "name": "cli-grid", "mesh": [2, 2, 2], "columns": [[0, 0], [1, 1]]
        }
        path = _spec_file(tmp_path, [
            {"placement": placement, "optimizer": "greedy-swap"},
            {"placement": placement, "optimizer": "greedy-swap",
             "max_subset_size": 1},
        ])
        assert main(["optimize", "--spec", path, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 optimized, 0 served from cache (2 workers)" in out

    def test_single_document_output_is_unchanged(self, tmp_path, capsys):
        # CI smoke greps these exact strings; the grid path must not leak
        # into single serial runs.
        args = [
            "optimize", "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
            "--optimizer", "greedy-swap", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert "[repro.exec] design optimized" in capsys.readouterr().out
        assert main(args) == 0
        assert "[repro.exec] design served from cache" in capsys.readouterr().out


class TestCacheStatsCommand:
    def test_reports_the_store_on_one_line(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        path = _spec_file(tmp_path, [_static(CI_SCENARIO)])
        assert main(["run", "--spec", path, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = _capture_json(capsys)
        assert stats["command"] == "cache-stats"
        assert stats["backend"] == "sqlite"
        assert (stats["results"], stats["designs"], stats["jobs"], stats["tasks"]) == (
            1, 0, 0, 0,
        )
        assert stats["manifests"] == 0
        assert stats["bytes"] > 0

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        # CI's smoke jobs grep "<n> result(s)" on this one line.
        assert lines == [
            f"[repro.cache] {cache_dir} (sqlite): 1 result(s), 0 design(s), "
            f"0 job(s), 0 task(s), 0 manifest(s), {stats['bytes']} byte(s)"
        ]

    def test_run_closes_its_store(self, tmp_path, capsys, no_cyclic_gc):
        cache_dir = tmp_path / "cache"
        path = _spec_file(tmp_path, [_static(CI_SCENARIO)])
        assert main(["run", "--spec", path, "--cache-dir", str(cache_dir)]) == 0
        assert "repro.sqlite3-wal" not in os.listdir(cache_dir)

    def test_missing_directory_is_rejected_and_not_created(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(SystemExit, match="not a directory"):
            main(["cache", "stats", "--cache-dir", str(missing)])
        assert not missing.exists()

    def test_directory_without_a_store_is_left_without_one(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = _capture_json(capsys)
        assert (stats["results"], stats["designs"], stats["bytes"]) == (0, 0, 0)
        assert os.listdir(tmp_path) == []

    def test_bytes_are_what_stays_on_disk(self, tmp_path, capsys):
        # The command's own connection creates WAL/SHM sidecars and its
        # close removes them: they are not part of the reported bytes.
        store = SqliteStore(str(tmp_path / "repro.sqlite3"))
        store.put_result("k", None, {"average_latency": 1.0})
        store.close()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = _capture_json(capsys)
        assert os.listdir(tmp_path) == ["repro.sqlite3"]
        assert stats["results"] == 1
        assert stats["bytes"] == os.path.getsize(tmp_path / "repro.sqlite3")


class TestSweepSharesTheDaemonStore:
    def test_sweep_rows_are_served_to_a_queue_on_its_directory(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "sweep", *TINY, "--policies", "elevator_first", "--rates", "0.02",
            "--cache-dir", cache_dir, "--seed", "1",
        ]) == 0
        assert "1 simulated" in capsys.readouterr().out
        # The spec `repro sweep` builds for that grid point.
        spec = ExperimentSpec(
            placement=PlacementSpec(
                name="cli-custom", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
            ),
            traffic=TrafficSpec(pattern="uniform"),
            sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=30),
        ).with_(policy="elevator_first", injection_rate=0.02)
        store = SqliteStore(os.path.join(cache_dir, "repro.sqlite3"))
        try:
            queue = JobQueue(store)
            job = queue.submit([spec], base_seed=1).job
            assert job.state == DONE
            assert queue.counts()[QUEUED] == 0
        finally:
            store.close()


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "0"],
        ["sweep", "--chunk-size", "0"],
        ["run", "--spec", "unused.json", "--workers", "-1"],
        ["optimize", "--workers", "0"],
        ["serve", "--workers", "0"],
        ["serve", "--max-attempts", "0"],
    ])
    def test_a_count_below_one_exits_2_and_creates_nothing(
        self, tmp_path, capsys, argv
    ):
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--cache-dir", str(cache_dir)])
        assert raised.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--") and arg != "--spec")
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_a_count_that_is_not_an_int_keeps_its_message(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["sweep", "--workers", "two"])
        assert raised.value.code == 2
        assert "argument --workers: invalid int value: 'two'" in capsys.readouterr().err
