"""Normalization and comparison helpers (Figs. 6-7, headline numbers).

The paper reports most results normalized to the Elevator-First baseline
(latency and energy in Figs. 6 and 7) and summarizes AdEle's benefit as an
average relative improvement; these helpers implement those computations so
benches and examples print the same kind of rows the paper tabulates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.sim.engine import SimulationResult


def normalize_to_baseline(
    values: Mapping[str, float], baseline_key: str
) -> Dict[str, float]:
    """Normalize a metric per policy to a baseline policy's value.

    Args:
        values: ``{policy: metric}``.
        baseline_key: The policy used as the denominator.

    Raises:
        KeyError: If the baseline policy is missing.
        ValueError: If the baseline value is zero.
    """
    if baseline_key not in values:
        raise KeyError(f"baseline {baseline_key!r} missing from {sorted(values)}")
    baseline = values[baseline_key]
    if baseline == 0:
        raise ValueError("baseline value is zero; cannot normalize")
    return {key: value / baseline for key, value in values.items()}


def relative_improvement(baseline: float, improved: float) -> float:
    """Fractional improvement of ``improved`` over ``baseline``.

    Positive when ``improved`` is smaller (latency/energy are minimized);
    e.g. a drop from 100 to 89.1 cycles is a 0.109 (10.9 %) improvement.
    """
    if baseline == 0:
        raise ValueError("baseline value is zero; improvement undefined")
    return (baseline - improved) / baseline


def average_improvement(
    baselines: Sequence[float], improved: Sequence[float]
) -> float:
    """Mean relative improvement across paired measurements."""
    if len(baselines) != len(improved):
        raise ValueError("sequences must have the same length")
    if not baselines:
        raise ValueError("no measurements supplied")
    improvements = [
        relative_improvement(base, new) for base, new in zip(baselines, improved)
    ]
    return sum(improvements) / len(improvements)


def policy_comparison_table(
    results: Mapping[str, SimulationResult],
    baseline: str = "elevator_first",
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Tabulate absolute and normalized metrics per policy.

    Args:
        results: ``{policy: SimulationResult}``.
        baseline: Policy used for normalization.
        metrics: Metric names drawn from the result summary (defaults to
            average latency and energy per flit when available).

    Returns:
        ``{policy: {metric: value, metric + "_norm": normalized value}}``.
    """
    summaries = {policy: result.summary() for policy, result in results.items()}
    return policy_comparison_from_summaries(summaries, baseline=baseline, metrics=metrics)


def policy_comparison_from_summaries(
    summaries: Mapping[str, Mapping[str, float]],
    baseline: str = "elevator_first",
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Like :func:`policy_comparison_table`, from plain summary rows.

    Summary rows are what the parallel experiment engine
    (:mod:`repro.exec`) returns and caches, so comparisons can be computed
    without reconstructing :class:`~repro.sim.engine.SimulationResult`
    objects -- including from rows loaded off a warm disk cache.
    """
    if metrics is None:
        metrics = ["average_latency", "energy_per_flit"]
    table: Dict[str, Dict[str, float]] = {}
    for metric in metrics:
        available = {
            policy: summary[metric]
            for policy, summary in summaries.items()
            if metric in summary and summary[metric] not in (None, float("inf"))
        }
        normalized: Dict[str, float] = {}
        if baseline in available and available[baseline] != 0:
            normalized = normalize_to_baseline(available, baseline)
        for policy in summaries:
            row = table.setdefault(policy, {})
            if policy in available:
                row[metric] = available[policy]
            if policy in normalized:
                row[metric + "_norm"] = normalized[policy]
    return table


def format_table(
    table: Mapping[str, Mapping[str, float]], precision: int = 3
) -> str:
    """Render a comparison table as aligned plain text (for bench output)."""
    policies = list(table.keys())
    metrics: List[str] = []
    for row in table.values():
        for metric in row:
            if metric not in metrics:
                metrics.append(metric)
    header = ["policy"] + metrics
    rows = [header]
    for policy in policies:
        row = [policy]
        for metric in metrics:
            value = table[policy].get(metric)
            row.append("-" if value is None else f"{value:.{precision}f}")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines)
