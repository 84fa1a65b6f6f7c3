"""The never-perturbs invariant, property-tested across every backend.

Observability is only trustworthy if it is free: attaching a tracer and a
kernel probe to a run must leave the canonical cache key, the derived
seed and every number in the summary row byte-identical to an
uninstrumented run.  Anything else would mean "measuring the system
changes the system" -- cache splits, irreproducible sweeps, and metrics
nobody can compare against cached history.

Hypothesis drives random (policy, rate, seed, probe shape) points through
every registered backend and compares instrumented vs plain runs;
a batch-level test pins the same invariant through the caching engine.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runner import run_experiment
from repro.exec.batch import ExperimentBatch
from repro.exec.cache import config_key, derive_seed
from repro.obs.probes import PROBE_CHANNELS, ProbeSpec
from repro.obs.tracing import (
    RingRecorder,
    Tracer,
    install_tracer,
    uninstall_tracer,
)
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

ALL_BACKENDS = ["reference", "optimized"]


def _spec(backend: str, policy: str, rate: float, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="obs-tiny", mesh=(3, 3, 2), columns=((0, 0), (2, 2))
        ),
        policy=PolicySpec(name=policy),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(
            warmup_cycles=20,
            measurement_cycles=80,
            drain_cycles=60,
            seed=seed,
            backend=backend,
        ),
    )


#: Arbitrary probe shapes: any interval, any non-empty channel subset (in
#: canonical order), any bound -- none of it may matter to the results.
probe_specs = st.builds(
    ProbeSpec,
    interval=st.integers(min_value=1, max_value=64),
    channels=st.sets(st.sampled_from(PROBE_CHANNELS), min_size=1).map(
        lambda chosen: tuple(c for c in PROBE_CHANNELS if c in chosen)
    ),
    max_samples=st.integers(min_value=1, max_value=256),
)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(max_examples=5, deadline=None)
@given(
    policy=st.sampled_from(["elevator_first", "adele"]),
    rate=st.sampled_from([0.002, 0.01, 0.03]),
    seed=st.integers(min_value=0, max_value=50),
    probe=probe_specs,
)
def test_tracer_and_probe_never_perturb(backend, policy, rate, seed, probe):
    spec = _spec(backend, policy, rate, seed)
    baseline_key = config_key(spec)
    baseline_seed = derive_seed(spec, base_seed=seed)
    baseline = run_experiment(spec).summary()

    install_tracer(Tracer(RingRecorder()))
    try:
        result = run_experiment(spec, probe=probe)
        instrumented = result.summary()
        instrumented_key = config_key(spec)
        instrumented_seed = derive_seed(spec, base_seed=seed)
    finally:
        uninstall_tracer()

    assert instrumented_key == baseline_key
    assert instrumented_seed == baseline_seed
    assert json.dumps(instrumented, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    # The probe filled a series, but it rides outside the summary row.
    assert result.probe is not None
    assert len(result.probe.cycles) > 0
    assert "probe" not in instrumented


def test_batch_rows_identical_with_probe_and_tracer():
    """Through the caching engine: probed batch rows == plain batch rows."""
    specs = [_spec("optimized", "adele", 0.01, seed) for seed in (0, 1)]
    plain = [o.summary for o in ExperimentBatch(specs).run()]

    install_tracer(Tracer(RingRecorder()))
    try:
        batch = ExperimentBatch(specs, probe=ProbeSpec(interval=25))
        probed = batch.run()
    finally:
        uninstall_tracer()

    assert json.dumps([o.summary for o in probed], sort_keys=True) == json.dumps(
        plain, sort_keys=True
    )
    # One series per executed spec, keyed by the (unchanged) cache key.
    assert sorted(batch.last_probes) == sorted(o.key for o in probed)
