"""Cycles/second micro-benchmark of the simulation kernels.

Unlike the ``bench_fig*`` files (which reproduce paper figures through
pytest), this is a standalone script establishing the repository's
performance trajectory.  Two sections:

*Low load* (4x4x3 mesh, rates at or below 0.006): times the ``reference``
and ``optimized`` kernels and checks the active-set contract
(``optimized`` >= 2x ``reference`` in the region where most routers are
empty).

*High load* (saturated 8x8x4 mesh): the regime where the active set
degenerates to the whole mesh.

Both kernels are bit-identical, and every timed cell is checked against
the ``reference`` cell of its section bit for bit, so each speed ratio
compares exact kernels with each other.

Everything lands in ``benchmarks/results/BENCH_perf_kernel.json``.

Run it directly (tiny windows for a CI smoke, defaults for a real number)::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py
    PYTHONPATH=src python benchmarks/bench_perf_kernel.py \
        --warmup 20 --measure 150 --drain 100 --repeats 1 \
        --highload-measure 150

The ``elevator_first`` policy keeps the shared (non-kernel) per-packet cost
minimal so the numbers isolate the cycle loop itself.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

from repro.analysis.runner import run_experiment
from repro.spec import ExperimentSpec, PlacementSpec, PolicySpec, SimSpec, TrafficSpec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_perf_kernel.json")

MESH = (4, 4, 3)
ELEVATOR_COLUMNS = ((0, 0), (3, 3))
#: Kernels timed in both sections; ``reference`` is the oracle.
BACKENDS = ("reference", "optimized")

HIGHLOAD_MESH = (8, 8, 4)
HIGHLOAD_COLUMNS = ((0, 0), (7, 0), (0, 7), (7, 7), (3, 3), (4, 4))


def make_spec(
    backend: str,
    rate: float,
    *,
    mesh=MESH,
    columns=ELEVATOR_COLUMNS,
    warmup: int,
    measure: int,
    drain: int,
    seed: int,
) -> ExperimentSpec:
    name = f"bench-{mesh[0]}x{mesh[1]}x{mesh[2]}"
    return ExperimentSpec(
        placement=PlacementSpec(name=name, mesh=mesh, columns=columns),
        policy=PolicySpec(name="elevator_first"),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
        sim=SimSpec(
            warmup_cycles=warmup,
            measurement_cycles=measure,
            drain_cycles=drain,
            seed=seed,
            backend=backend,
        ),
    )


def time_spec(spec: ExperimentSpec, repeats: int) -> Dict:
    """Best-of-N wall-clock timing of one spec."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_experiment(spec)
        best = min(best, time.perf_counter() - start)
    cycles = (
        spec.sim.warmup_cycles
        + spec.sim.measurement_cycles
        + result.drain_cycles_used
    )
    return {
        "backend": spec.sim.backend,
        "injection_rate": spec.traffic.injection_rate,
        "seconds": best,
        "cycles": cycles,
        "cycles_per_second": cycles / best if best > 0 else float("inf"),
        "summary": result.summary(),
        "drain_cycles_used": result.drain_cycles_used,
    }


def check_identity(cells: Dict[str, Dict], where: str) -> None:
    """Fail unless every timed cell matches the ``reference`` cell exactly."""
    ref = cells["reference"]
    for backend, cell in cells.items():
        if (cell["summary"], cell["drain_cycles_used"]) != (
            ref["summary"], ref["drain_cycles_used"]
        ):
            raise SystemExit(
                f"{backend} diverged from reference {where}: "
                f"{cell['summary']} != {ref['summary']}"
            )


def run_lowload(args: argparse.Namespace) -> Dict:
    window = dict(
        warmup=args.warmup, measure=args.measure, drain=args.drain, seed=args.seed
    )
    rows: List[Dict] = []
    speedups: Dict[str, float] = {}
    for rate in args.rates:
        cells = {
            b: time_spec(make_spec(b, rate, **window), args.repeats)
            for b in BACKENDS
        }
        check_identity(cells, f"at rate {rate}")
        ref, opt = cells["reference"], cells["optimized"]
        speedup = ref["seconds"] / opt["seconds"] if opt["seconds"] > 0 else float("inf")
        speedups[f"{rate:g}"] = speedup
        rows.extend(cells.values())
        print(
            f"rate={rate:<8g} reference {ref['cycles_per_second']:>10.0f} cyc/s   "
            f"optimized {opt['cycles_per_second']:>10.0f} cyc/s   "
            f"speedup {speedup:.2f}x"
        )
    return {
        "mesh": list(MESH),
        "elevator_columns": [list(c) for c in ELEVATOR_COLUMNS],
        "warmup_cycles": args.warmup,
        "measurement_cycles": args.measure,
        "drain_cycles": args.drain,
        "results": rows,
        "speedup_by_rate": speedups,
        "min_speedup": min(speedups.values()),
    }


def run_highload(args: argparse.Namespace) -> Dict:
    """Saturated-mesh section: every router busy, no idle cycles to skip."""
    window = dict(
        mesh=HIGHLOAD_MESH,
        columns=HIGHLOAD_COLUMNS,
        warmup=args.highload_warmup,
        measure=args.highload_measure,
        drain=args.highload_drain,
        seed=args.seed,
    )
    rate = args.highload_rate
    # Warm the shared route tables so the first timed cell is not charged
    # for building them.
    run_experiment(
        make_spec("optimized", rate, **{**window, "measure": 10, "warmup": 10})
    )
    cells = {
        b: time_spec(make_spec(b, rate, **window), args.repeats) for b in BACKENDS
    }
    check_identity(cells, "on the saturated mesh")
    record: Dict = {
        "mesh": list(HIGHLOAD_MESH),
        "elevator_columns": [list(c) for c in HIGHLOAD_COLUMNS],
        "injection_rate": rate,
        "warmup_cycles": args.highload_warmup,
        "measurement_cycles": args.highload_measure,
        "drain_cycles": args.highload_drain,
        "results": list(cells.values()),
        "saturated": cells["reference"]["summary"]["delivery_ratio"] < 0.5,
    }
    for backend, cell in cells.items():
        print(
            f"high-load {backend:<11s} {cell['cycles_per_second']:>10.0f} cyc/s   "
            f"({cell['seconds']:.2f}s)"
        )
    return record


def run_benchmark(args: argparse.Namespace) -> Dict:
    record: Dict = {
        "benchmark": "perf_kernel",
        "policy": "elevator_first",
        "traffic": "uniform",
        "seed": args.seed,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count() or 1,
        "backends": list(BACKENDS),
        "lowload": run_lowload(args),
    }
    if not args.skip_highload:
        record["highload"] = run_highload(args)
    # Kept at the top level for older tooling that reads these fields.
    record["speedup_by_rate"] = record["lowload"]["speedup_by_rate"]
    record["min_speedup"] = record["lowload"]["min_speedup"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", type=int, default=300, help="warm-up cycles")
    parser.add_argument("--measure", type=int, default=3000, help="measurement cycles")
    parser.add_argument("--drain", type=int, default=800, help="max drain cycles")
    parser.add_argument("--seed", type=int, default=3, help="traffic seed")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--rates", type=float, nargs="+", default=[0.002, 0.004, 0.006],
        metavar="RATE", help="low-load packet injection rates to time",
    )
    parser.add_argument(
        "--highload-warmup", type=int, default=50, help="high-load warm-up cycles"
    )
    parser.add_argument(
        "--highload-measure", type=int, default=600,
        help="high-load measurement cycles",
    )
    parser.add_argument(
        "--highload-drain", type=int, default=100, help="high-load max drain cycles"
    )
    parser.add_argument(
        "--highload-rate", type=float, default=0.05,
        help="high-load (saturating) injection rate",
    )
    parser.add_argument(
        "--skip-highload", action="store_true",
        help="skip the saturated 8x8x4 section",
    )
    parser.add_argument(
        "--out", default=RESULT_FILE, metavar="FILE",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless every low-load rate reaches X-fold speedup",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not args.rates:
        parser.error("need at least one --rates value")

    record = run_benchmark(args)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"minimum low-load speedup over rates: {record['min_speedup']:.2f}x -> {args.out}")

    if args.require_speedup is not None and record["min_speedup"] < args.require_speedup:
        print(
            f"FAIL: minimum speedup {record['min_speedup']:.2f}x below required "
            f"{args.require_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
