"""Talking to the persistent experiment service (``repro serve``).

Starts a service daemon on an ephemeral port (in a subprocess, exactly as
``python -m repro serve`` would run it), then walks the whole client
workflow through :mod:`repro.api`:

1. submit a small sweep (the job dedups by spec hash -- submitting it
   twice attaches to the same job);
2. wait until the job finishes (held status requests: the daemon answers
   as soon as it is done);
3. fetch the summary rows, in submission order;
4. verify they are **bit-identical** to a direct in-process
   :func:`repro.api.run_specs` run of the same specs;
5. shut the daemon down cleanly (SIGTERM).

Against a long-running daemon you would skip the subprocess part and just
``api.connect("http://host:8765")``.

Run with:  PYTHONPATH=src python examples/service_client.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

from repro import api
from repro.api import ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec

POLICIES = ("elevator_first", "adele")
RATES = (0.001, 0.002)


def start_daemon(state_dir: str) -> "tuple[subprocess.Popen, str]":
    """Launch ``python -m repro serve`` and wait for its listen line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--cache-dir", state_dir, "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ),
    )
    while True:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError("service daemon exited before listening")
        if "listening on" in line:
            url = line.split("listening on ")[1].split(" ")[0].strip()
            return process, url


def main() -> None:
    base = ExperimentSpec(
        placement=PlacementSpec(
            name="svc-demo", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform"),
        sim=SimSpec(warmup_cycles=50, measurement_cycles=200, drain_cycles=150),
    )
    specs = [
        base.with_(policy=policy, injection_rate=rate)
        for policy in POLICIES
        for rate in RATES
    ]

    with tempfile.TemporaryDirectory(prefix="repro-service-") as state_dir:
        daemon, url = start_daemon(state_dir)
        try:
            client = api.connect(url)
            print(f"daemon up at {url}: {client.health()}")

            receipt = client.submit_receipt(specs, base_seed=1)
            job_id = receipt["job_id"]
            print(f"submitted job {job_id} (created={receipt['created']})")

            again = client.submit_receipt(specs, base_seed=1)
            print(f"resubmission dedup'd: created={again['created']}, "
                  f"same job={again['job_id'] == job_id}")

            status = client.wait(job_id, timeout=300)
            print(f"job {job_id} finished: {status['counts']}")

            rows = client.results(job_id)
            for spec, row in zip(specs, rows):
                print(f"  {spec.policy.name:15s} rate={spec.traffic.injection_rate:.4f} "
                      f"avg_latency={row['average_latency']:7.2f}")

            direct = [o.summary for o in api.run_specs(specs, base_seed=1)]
            identical = json.dumps(rows, sort_keys=True) == json.dumps(
                direct, sort_keys=True
            )
            print(f"bit-identical to direct api.run_specs: {identical}")
        finally:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=30)
            print(f"daemon shut down cleanly (exit {daemon.returncode})")


if __name__ == "__main__":
    main()
