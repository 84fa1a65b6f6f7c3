"""Parallel experiment execution engine.

``repro.exec`` turns lists of declarative experiment configurations into
results -- in parallel, deterministically, and cached:

* :class:`~repro.exec.batch.ExperimentBatch` fans configs out over a process
  pool (serial fallback at ``workers=1``) and returns summary rows in input
  order;
* :class:`~repro.exec.designs.DesignBatch` does the same for offline
  :class:`~repro.spec.DesignSpec` grids (per-design derived optimizer
  seeds, design-cache deduplication);
* :mod:`repro.exec.cache` provides the canonical config serialization and
  hash every cache key and derived seed is built from, the memory-only
  :class:`~repro.exec.cache.ResultCache`,
  :func:`~repro.exec.cache.open_caches` (a cache directory's one SQLite
  store of summary rows and AdEle offline designs, shared with
  ``repro serve``) and :func:`~repro.exec.cache.cache_stats` (what a
  cache directory holds);
* chunked checkpoints (``chunk_size`` / ``--chunk-size``) flush rows to
  the result cache as each chunk completes, with a ``manifest-*.json``
  progress record, so a killed run resumes from its last chunk
  (:class:`~repro.exec.batch.ChunkAbort` is the deterministic kill
  injected by ``REPRO_EXEC_ABORT_AFTER_CHUNKS``);
* :mod:`repro.exec.cli` is the ``python -m repro`` front end (``sweep`` /
  ``compare`` / ``run --spec`` / ``optimize`` / ``serve`` / ``cache`` /
  ``trace`` / ``stats`` / ``list`` subcommands with ``--workers``,
  ``--cache-dir``, ``--seed`` and ``--plugin``).

Determinism guarantee: identical configuration + seed produce bit-identical
``SimulationResult.summary()`` rows whether a batch runs serially, with N
workers, resumes after a killed chunked run, or replays from a warm cache
directory.
"""

from repro.exec.batch import (
    ChunkAbort,
    ExperimentBatch,
    ExperimentOutcome,
    key_extra_for,
    run_batch,
    summaries_by_policy,
)
from repro.exec.cache import (
    ResultCache,
    cache_stats,
    canonical_config,
    close_caches,
    canonical_json,
    config_key,
    derive_seed,
    open_caches,
    spec_from_canonical,
)
from repro.exec.designs import (
    DesignBatch,
    DesignOutcome,
    derive_design_seed,
    run_design_batch,
)

__all__ = [
    "ExperimentBatch",
    "ExperimentOutcome",
    "ChunkAbort",
    "run_batch",
    "summaries_by_policy",
    "key_extra_for",
    "DesignBatch",
    "DesignOutcome",
    "derive_design_seed",
    "run_design_batch",
    "ResultCache",
    "cache_stats",
    "open_caches",
    "close_caches",
    "canonical_config",
    "canonical_json",
    "spec_from_canonical",
    "config_key",
    "derive_seed",
]
