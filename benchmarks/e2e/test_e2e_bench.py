"""Self-test of the end-to-end benchmark on tiny versions of its workloads.

The passes run in this interpreter (``in_process=True``) so the test stays
within a few seconds; everything else -- the job loop, the wrappers, the
oracle and the metric assembly -- is the code a real run uses.
"""

from __future__ import annotations

import json

import pytest

import e2e_workloads
import run

BENCHMARK = json.loads(run.BENCHMARK_FILE.read_text())


def _units(kind: str):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}


def _run(name: str, trace: bool):
    return run.run_workload(name, seed=3, seconds=0.05, trace=trace, tiny=True,
                            setup_repeats=1, in_process=True)


@pytest.mark.parametrize("name", sorted(e2e_workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    document = _run(name, trace=False)
    assert document["correct"], document["errors"]
    assert run.result_line(document)["metrics"].keys() == _units("end_to_end").keys()
    assert {m: e["unit"] for m, e in document["metrics"].items()} == _units("end_to_end")
    assert all(entry["value"] > 0 for entry in document["metrics"].values())


@pytest.mark.parametrize("name", sorted(e2e_workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    document = _run(name, trace=True)
    assert document["correct"], document["errors"]
    assert {m: e["unit"] for m, e in document["metrics"].items()} == _units("per_layer")
    metrics = {m: e["value"] for m, e in document["metrics"].items()}
    assert metrics["sim.kernel_calls"] > 0 and metrics["core.offline_calls"] > 0
    assert 0 <= metrics["unaccounted_s"] <= 0.05 * metrics["obs.traced_wall_s"] + 0.01


def test_tampered_oracle_row_fails_the_run(monkeypatch):
    honest = e2e_workloads.reference_summary

    def tampered(spec):
        summary, series = honest(spec)
        return dict(summary, average_latency=summary["average_latency"] + 1.0), series

    monkeypatch.setattr(e2e_workloads, "reference_summary", tampered)
    document = _run("paper_apps", trace=False)
    assert not document["correct"]
    assert document["error_ratio"] > 0
    assert any("reference mismatch" in error for error in document["errors"])
    assert run.exit_status([document]) == 1


def test_missing_entry_point_is_named(monkeypatch):
    from e2e_layers import LayerTracer, MissingEntryPoint
    from repro.sim import engine

    monkeypatch.delattr(engine.Simulator, "run")
    with pytest.raises(MissingEntryPoint, match="repro.sim.engine.Simulator.run"):
        with LayerTracer():
            pass
