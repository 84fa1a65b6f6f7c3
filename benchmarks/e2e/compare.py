#!/usr/bin/env python3
"""Judge a change against its parent with the bounds of BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base base/*.json --change change/*.json

Each file is a run document written by ``run.py --out``.  For every
end-to-end metric and workload the table shows both sides' median and
quartiles and one verdict:

* ``unresolved`` -- either side's quartile spread, as a share of its
  median, is wider than the bound, and not every change run beats every
  base run;
* ``worse`` -- the change's median is worse than the base median by more
  than the bound;
* ``better`` -- the change wins at least nine tenths of the runs paired by
  seed, and the medians differ by more than the base's quartile spread;
* ``unchanged`` -- none of the above.

Runs with failed operations, and runs of one workload and seed whose
``results_sha256`` differ, are failures.  The exit code is 1 when any row
is worse or anything failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_documents(paths: List[str]) -> List[Dict[str, Any]]:
    documents = []
    for path in paths:
        with open(path, "r") as handle:
            loaded = json.load(handle)
        documents += loaded if isinstance(loaded, list) else [loaded]
    return documents


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_by_seed(documents: List[Dict[str, Any]], workload: str,
                   metric: str) -> Dict[int, List[float]]:
    found: Dict[int, List[float]] = {}
    for document in documents:
        if document["workload"] == workload and metric in document.get("metrics", {}):
            found.setdefault(document["seed"], []).append(
                document["metrics"][metric]["value"])
    return found


def _pairs(base: Dict[int, List[float]],
           change: Dict[int, List[float]]) -> List[Tuple[float, float]]:
    common = sorted(set(base) & set(change))
    if common:
        return [(b, c) for seed in common for b, c in zip(base[seed], change[seed])]
    return list(zip(sum(base.values(), []), sum(change.values(), [])))


def judge(base: Dict[int, List[float]], change: Dict[int, List[float]],
          bound: float, higher_is_better: bool) -> str:
    """One verdict for one metric on one workload (see the module doc)."""
    base_values = sum(base.values(), [])
    change_values = sum(change.values(), [])
    b1, b_med, b3 = quartiles(base_values)
    c1, c_med, c3 = quartiles(change_values)
    sign = 1.0 if higher_is_better else -1.0
    if higher_is_better:
        separated = min(change_values) > max(base_values)
    else:
        separated = max(change_values) < min(base_values)
    spread = max((b3 - b1) / abs(b_med), (c3 - c1) / abs(c_med))
    if spread > bound and not separated:
        return "unresolved"
    if sign * (b_med - c_med) / abs(b_med) > bound:
        return "worse"
    pairs = _pairs(base, change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > b3 - b1:
        return "better"
    return "unchanged"


def hash_failures(documents: List[Dict[str, Any]]) -> List[str]:
    seen: Dict[Tuple[str, int], str] = {}
    failures = []
    for document in documents:
        digest = document.get("results_sha256")
        if digest is None:
            continue
        key = (document["workload"], document["seed"])
        if seen.setdefault(key, digest) != digest:
            failures.append(f"{key[0]} seed {key[1]}: results_sha256 differs")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="run documents of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="run documents of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK_FILE, "r") as handle:
        benchmark = json.load(handle)
    base = load_documents(args.base)
    change = load_documents(args.change)
    failures = [f"{side} {d['workload']} seed {d['seed']}: {d['failed']} failed operation(s)"
                for side, documents in (("base", base), ("change", change))
                for d in documents if d.get("failed")]
    failures += hash_failures(base + change)
    workloads = sorted({d["workload"] for d in base} & {d["workload"] for d in change})
    print(f"{'workload':14s} {'metric':12s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s}  verdict")
    verdicts = []
    for entry in benchmark["end_to_end"]:
        for workload in workloads:
            base_runs = values_by_seed(base, workload, entry["name"])
            change_runs = values_by_seed(change, workload, entry["name"])
            if not base_runs or not change_runs:
                continue
            verdict = judge(base_runs, change_runs, entry["bound"],
                            entry["better"] == "higher")
            verdicts.append(verdict)
            b1, b_med, b3 = quartiles(sum(base_runs.values(), []))
            c1, c_med, c3 = quartiles(sum(change_runs.values(), []))
            print(f"{workload:14s} {entry['name']:12s} "
                  f"{b_med:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{c_med:12.5g} [{c1:9.5g}, {c3:9.5g}] "
                  f"{(c_med - b_med) / b_med * 100:+7.2f}%  {verdict}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures or "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
