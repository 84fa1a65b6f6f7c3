"""Chunked checkpoints: kill a run mid-grid, resume it, stay bit-identical.

``chunk_size`` flushes each chunk's rows to the result cache (plus a
``manifest-*.json`` progress record) as it completes, and the
``REPRO_EXEC_ABORT_AFTER_CHUNKS`` env var kills a run at a deterministic
chunk boundary.  The invariant every test here pins: rerunning the killed
grid serves the flushed rows from cache, simulates only the rest, and
leaves store rows byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.exec.batch import ABORT_AFTER_CHUNKS_ENV, ChunkAbort, ExperimentBatch
from repro.exec.cache import open_caches
from repro.spec import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec


def _spec(rate: float, policy: str = "elevator_first") -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="resume-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(warmup_cycles=10, measurement_cycles=40, drain_cycles=40),
    ).with_(policy=policy)


def _grid(n_rates: int = 3):
    return [
        _spec(0.01 * (i + 1), policy)
        for policy in ("elevator_first", "cda")
        for i in range(n_rates)
    ]


def _results(directory: str):
    return open_caches(directory)[0]


class TestChunkedCheckpointing:
    def test_abort_env_raises_after_first_chunk(
        self, tmp_path, monkeypatch, store_rows
    ):
        monkeypatch.setenv(ABORT_AFTER_CHUNKS_ENV, "1")
        batch = ExperimentBatch(
            _grid(), base_seed=7, chunk_size=1,
            result_cache=_results(str(tmp_path / "cache")),
        )
        with pytest.raises(ChunkAbort):
            batch.run()
        flushed, _ = store_rows(str(tmp_path / "cache"))
        assert flushed

    def test_killed_run_resumes_and_matches_uninterrupted(
        self, tmp_path, monkeypatch, store_rows
    ):
        grid = _grid()
        full_dir = str(tmp_path / "full")
        ExperimentBatch(
            grid, base_seed=7, result_cache=_results(full_dir)
        ).run()

        cache_dir = str(tmp_path / "resume")
        monkeypatch.setenv(ABORT_AFTER_CHUNKS_ENV, "2")
        with pytest.raises(ChunkAbort):
            ExperimentBatch(
                grid, base_seed=7, chunk_size=1,
                result_cache=_results(cache_dir),
            ).run()
        monkeypatch.delenv(ABORT_AFTER_CHUNKS_ENV)

        resumed = ExperimentBatch(
            grid, base_seed=7, chunk_size=1,
            result_cache=_results(cache_dir),
        )
        outcomes = resumed.run()
        assert resumed.last_cached >= 2  # the pre-kill chunks were not redone
        assert len(outcomes) == len(grid)
        full_rows, _ = store_rows(full_dir)
        assert len(full_rows) == len(grid)
        assert store_rows(cache_dir)[0] == full_rows

    def test_manifest_written_per_chunk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        batch = ExperimentBatch(
            _grid(2), base_seed=7, chunk_size=2,
            result_cache=_results(cache_dir), manifest_dir=cache_dir,
        )
        batch.run()
        manifests = [
            name for name in os.listdir(cache_dir)
            if name.startswith("manifest-")
        ]
        assert len(manifests) == 1
        with open(os.path.join(cache_dir, manifests[0])) as handle:
            manifest = json.load(handle)
        assert manifest["done"] == manifest["total"]
        assert manifest["chunk_size"] == 2
        assert batch.last_chunks == 2


# ---------------------------------------------------------------------- #
# The CLI path end to end (subprocess, like a real kill/resume)
# ---------------------------------------------------------------------- #
class TestCliResume:
    def _cli(self, *args, env_extra=None, check=True):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if env_extra:
            env.update(env_extra)
        result = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env,
        )
        if check:
            assert result.returncode == 0, result.stderr
        return result

    def test_killed_sweep_resumes_byte_identical(self, tmp_path, store_rows):
        common = (
            "sweep", "--mesh", "2", "2", "2", "--elevators", "0,0;1,1",
            "--policies", "elevator_first,adele", "--rates", "0.01,0.02",
            "--warmup", "10", "--measure", "40", "--drain", "40",
            "--seed", "3",
        )
        full = str(tmp_path / "full")
        self._cli(*common, "--cache-dir", full)

        resumed = str(tmp_path / "resumed")
        kill = self._cli(
            *common, "--cache-dir", resumed, "--chunk-size", "1",
            env_extra={ABORT_AFTER_CHUNKS_ENV: "1"}, check=False,
        )
        assert kill.returncode != 0
        assert "ChunkAbort" in kill.stderr
        resume = self._cli(*common, "--cache-dir", resumed, "--chunk-size", "1")
        assert "3 simulated, 1 served from cache" in resume.stdout

        full_rows = store_rows(full)
        assert len(full_rows[0]) == 4 and len(full_rows[1]) == 1
        assert store_rows(resumed) == full_rows

        warm = self._cli(*common, "--cache-dir", resumed)
        assert "0 simulated, 4 served from cache" in warm.stdout

    def test_cache_stats_cli_json(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ExperimentBatch(
            _grid(1), base_seed=7, chunk_size=1,
            result_cache=_results(cache_dir), manifest_dir=cache_dir,
        ).run()
        result = self._cli(
            "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        document = json.loads(result.stdout)
        assert document["backend"] == "sqlite"
        assert (document["results"], document["designs"]) == (2, 0)
        assert (document["jobs"], document["tasks"], document["manifests"]) == (0, 0, 1)
        assert document["bytes"] > 0
