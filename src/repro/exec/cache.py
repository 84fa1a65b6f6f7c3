"""Canonical configuration hashing, deterministic seeding and the caches.

The parallel experiment engine (:mod:`repro.exec.batch`) needs three things
from this module:

* a *canonical serialization* of :class:`~repro.spec.ExperimentSpec` -- a
  JSON-stable dictionary that is independent of field/keyword order,
  round-trips through JSON, and captures custom placements structurally (mesh
  shape + elevator columns) so two different placements sharing a name never
  collide (:func:`canonical_config`, :func:`config_key`);
* a *deterministic per-task seed* derived from that serialization plus a
  batch-level base seed (:func:`derive_seed`), so re-runs -- serial, parallel
  or cross-process -- regenerate bit-identical traffic;
* *caches* keyed by the canonical hash: :func:`open_caches` opens a cache
  directory's one SQLite store (``repro.sqlite3``, the database the
  ``repro serve`` daemon runs on) for ``SimulationResult.summary()`` rows
  and completed AdEle offline designs, so warm re-runs, cross-process
  sweeps and the daemon skip finished work entirely.  Without a directory,
  :class:`ResultCache` keeps rows in memory (deduplication within one
  batch).

Entries are deterministic functions of their key, so concurrent writers are
harmless: the worst case is two processes computing the same entry and the
last write winning.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.analysis.runner import DesignKey
from repro.core.amosa import AmosaResult, ArchiveEntry
from repro.core.optimizers import OPTIMIZER_REGISTRY, canonical_optimizer_options
from repro.core.pipeline import AdEleDesign, assumed_traffic_matrix
from repro.core.subset_search import ElevatorSubsetProblem, SubsetSolution
from repro.obs.tracing import span
from repro.registry import Registry
from repro.routing.base import POLICY_REGISTRY
from repro.sim.backends import BACKEND_REGISTRY, DEFAULT_BACKEND
from repro.spec import ADELE_POLICY_NAMES, DesignSpec, ExperimentSpec
from repro.topology.elevators import PLACEMENT_REGISTRY, ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.applications import APPLICATION_REGISTRY
from repro.traffic.patterns import PATTERN_REGISTRY

#: Maximum derived seed (exclusive); fits ``random.Random`` comfortably and
#: keeps seeds readable in logs.
SEED_SPACE = 2 ** 32


# ---------------------------------------------------------------------- #
# Canonical serialization and hashing
# ---------------------------------------------------------------------- #
def _canonical_placement(placement: ElevatorPlacement) -> Dict[str, Any]:
    """Structural serialization of a placement (name alone is ambiguous)."""
    return {
        "name": placement.name,
        "mesh": list(placement.mesh.shape),
        "columns": [list(column) for column in placement.columns()],
    }


def _canonical_name(registry: Registry, name: str, fallback_case: Any) -> str:
    """Resolve a component name to its canonical registered spelling.

    Aliases and case variants collapse onto the entry's canonical name;
    names not (yet) registered fall back to plain case normalization so
    keys are at least case-stable.
    """
    if name in registry:
        return registry.entry(name).name
    return fallback_case(name)


def canonical_config(config: ExperimentSpec) -> Dict[str, Any]:
    """The canonical JSON-native dictionary of an experiment.

    This is :meth:`repro.spec.ExperimentSpec.to_dict` with component names
    normalized to their canonical registered spelling (``AdEle`` ->
    ``adele``, the ``fluid.`` alias -> ``fluidanimate``) -- the single
    serialization shared by cache keys, derived seeds and ``--spec`` files.
    The result is independent of how the experiment was constructed and
    round-trips through ``json.dumps``/``json.loads`` without loss: all
    values are ``str``/``int``/``float``/``None`` or nested lists/dicts
    thereof.
    """
    data = config.to_dict()
    if data["placement"]["mesh"] is None:
        # Named placements resolve case-insensitively through the registry;
        # structural ones keep their label verbatim (it is an identity tag,
        # the mesh/columns carry the structure).
        data["placement"]["name"] = _canonical_name(
            PLACEMENT_REGISTRY, data["placement"]["name"], str.upper
        )
    data["policy"]["name"] = _canonical_name(
        POLICY_REGISTRY, data["policy"]["name"], str.lower
    )
    pattern = data["traffic"]["pattern"]
    if pattern in APPLICATION_REGISTRY:
        data["traffic"]["pattern"] = APPLICATION_REGISTRY.entry(pattern).name
    else:
        data["traffic"]["pattern"] = _canonical_name(
            PATTERN_REGISTRY, pattern, str.lower
        )
    # Backends are result-equivalent, so the canonical form drops the key
    # entirely when an alias resolves to the default kernel -- a spec that
    # spells the default differently must not split the cache (and specs
    # predating the backend field hash identically to default-backend ones).
    backend = data["sim"].get("backend")
    if backend is not None:
        canonical_backend = _canonical_name(BACKEND_REGISTRY, backend, str.lower)
        if canonical_backend == DEFAULT_BACKEND:
            del data["sim"]["backend"]
        else:
            data["sim"]["backend"] = canonical_backend
    # ``bit_exact`` selects nothing (every kernel is exact), so it never
    # splits the cache.
    data["sim"].pop("bit_exact", None)
    # A nested design spec (present only when explicitly set) normalizes its
    # optimizer name/options and traffic label the same way: aliases and
    # explicitly spelled defaults never split the cache.
    design = data.get("design")
    if design is not None:
        optimizer = _canonical_name(
            OPTIMIZER_REGISTRY, design.get("optimizer", "amosa"), str.lower
        )
        design["optimizer"] = optimizer
        design["traffic"] = _canonical_name(
            PATTERN_REGISTRY, design.get("traffic", "uniform"), str.lower
        )
        if optimizer in OPTIMIZER_REGISTRY:
            try:
                design["options"] = canonical_optimizer_options(
                    optimizer, design.get("options") or {}
                )
            except ValueError:
                # Unknown option names for this optimizer: keep them verbatim
                # (validation happens at run time, not hash time).
                pass
        if _design_is_redundant(design, data["policy"]):
            del data["design"]
    return data


def _design_is_redundant(design: Dict[str, Any], policy: Dict[str, Any]) -> bool:
    """Whether a (canonicalized) nested design cannot affect the run.

    Two cases collapse onto the design-free serialization so that spelling
    the implicit behaviour explicitly never splits the cache:

    * the policy does not use an offline design at all (non-AdEle policies
      ignore the field entirely);
    * the design spells out exactly the defaults the design-free path would
      use -- same assumed traffic, optimizer, resolved options, cap and
      selection -- *and* the policy options do not carry their own
      ``max_subset_size`` (with no design, that option would win; with one,
      the design's cap wins, so the two forms only coincide without it).
    """
    if str(policy.get("name", "")).lower() not in ADELE_POLICY_NAMES:
        return True
    if "max_subset_size" in (policy.get("options") or {}):
        return False
    defaults = DesignSpec().to_dict(include_placement=False)
    defaults["options"] = canonical_optimizer_options("amosa", {})
    return design == defaults


def canonical_json(config: ExperimentSpec) -> str:
    """The canonical JSON string of an experiment (sorted keys, no spaces)."""
    return json.dumps(canonical_config(config), sort_keys=True, separators=(",", ":"))


def config_key(config: ExperimentSpec, extra: Optional[Dict[str, Any]] = None) -> str:
    """Content hash of an experiment -- the cache key.

    Args:
        extra: Optional JSON-native dictionary of additional inputs the run
            depends on (e.g. non-default energy-model parameters); mixed into
            the hash so runs differing only in those inputs never share a
            cache entry.
    """
    blob = canonical_json(config)
    if extra:
        blob += json.dumps(extra, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spec_from_canonical(data: Dict[str, Any]) -> ExperimentSpec:
    """Rebuild a typed spec from its canonical dictionary."""
    return ExperimentSpec.from_dict(data)


def derive_seed(config: ExperimentSpec, base_seed: int = 0) -> int:
    """Deterministic per-task seed from an experiment's canonical form.

    The experiment's own ``seed`` field is *replaced* by ``base_seed``
    before hashing, so the derived seed depends only on *what* is simulated
    plus the batch-level base seed -- two batches with the same base seed
    assign identical seeds to identical tasks regardless of process, worker
    count or submission order.  The simulation *backend* is excluded for
    the same reason: backends are result-equivalent, so the same experiment
    run on different kernels must draw the same traffic.
    """
    payload = canonical_config(config)
    payload["sim"] = dict(payload["sim"], seed=int(base_seed))
    payload["sim"].pop("backend", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % SEED_SPACE


# ---------------------------------------------------------------------- #
# Atomic JSON writes (chunk manifests)
# ---------------------------------------------------------------------- #
def _write_json_atomic(path: str, payload: Any) -> None:
    """Write JSON to ``path`` via a temp file + rename (crash/race safe)."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# ---------------------------------------------------------------------- #
# Result cache
# ---------------------------------------------------------------------- #
class ResultCache:
    """In-memory cache of ``SimulationResult.summary()`` rows keyed by config hash.

    The default of :class:`~repro.exec.batch.ExperimentBatch`: it
    deduplicates identical specs within one batch and lives as long as the
    object.  Rows that outlive the process go to a cache directory's store
    (:func:`open_caches`).
    """

    def __init__(self) -> None:
        self._memory: Dict[str, Dict[str, float]] = {}

    def get(self, key: str) -> Optional[Dict[str, float]]:
        """The cached summary row for a config hash, or ``None``."""
        with span("cache.get", backend="memory", key=key[:12]) as record_span:
            summary = self._memory.get(key)
            if record_span is not None:
                record_span.args["hit"] = summary is not None
            return None if summary is None else dict(summary)

    def put(
        self,
        key: str,
        config_data: Optional[Dict[str, Any]],
        summary: Dict[str, float],
    ) -> None:
        """Store a summary row (``config_data`` is kept only by the store)."""
        with span("cache.put", backend="memory", key=key[:12]):
            self._memory[key] = dict(summary)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop every entry."""
        self._memory.clear()


# ---------------------------------------------------------------------- #
# Design records
# ---------------------------------------------------------------------- #
def design_to_record(key: DesignKey, design: AdEleDesign) -> Dict[str, Any]:
    """Serialize an AdEle offline design to a JSON-native record.

    The record keeps the final Pareto archive (per-router subsets +
    objectives), the representative/selected indices, the baseline point
    and the assumed-traffic label -- everything policies, figures and
    tables read from a design.  The raw annealing trajectory (`explored`
    samples) is not persisted.
    """
    archive: List[Dict[str, Any]] = []
    entry_index = {id(entry): i for i, entry in enumerate(design.result.archive)}
    for entry in design.result.archive:
        archive.append(
            {
                "subsets": {
                    str(node): list(subset)
                    for node, subset in entry.solution.subsets().items()
                },
                "objectives": list(entry.objectives),
            }
        )

    def _index_of(entry: ArchiveEntry) -> int:
        index = entry_index.get(id(entry))
        if index is None:  # entry equal to, but not identical with, an archive member
            for i, candidate in enumerate(design.result.archive):
                if candidate.objectives == entry.objectives:
                    return i
            return 0
        return index

    record = {
        "format": 2,
        "key": list(_jsonify(key)),
        "placement": _canonical_placement(design.placement),
        # design_key_for layout: (name, shape, columns, traffic_label, ...).
        "traffic": key[3],
        "max_subset_size": design.problem.max_subset_size,
        "archive": archive,
        "representatives": [_index_of(e) for e in design.representatives],
        "selected": _index_of(design.selected),
        "baseline_objectives": list(design.baseline_objectives),
        "evaluations": design.result.evaluations,
        "accepted_moves": design.result.accepted_moves,
    }
    # Additive optional key (format stays 2): records without it rebuild
    # with the historical unweighted distance objective.
    if design.problem.evaluator.weight_distance_by_traffic:
        record["weight_distance_by_traffic"] = True
    return record


def design_from_record(record: Dict[str, Any]) -> AdEleDesign:
    """Rebuild a functional :class:`AdEleDesign` from a persisted record.

    The subset problem is reconstructed against the matrix of the record's
    assumed-traffic label through
    :func:`~repro.core.pipeline.assumed_traffic_matrix`, exactly what the
    search optimized against (a missing label defaults to uniform).
    """
    placement_data = record["placement"]
    mesh = Mesh3D(*placement_data["mesh"])
    placement = ElevatorPlacement(
        mesh,
        [tuple(column) for column in placement_data["columns"]],
        name=placement_data["name"],
    )
    problem = ElevatorSubsetProblem(
        placement,
        assumed_traffic_matrix(record.get("traffic", "uniform"), mesh),
        max_subset_size=record["max_subset_size"],
        weight_distance_by_traffic=record.get("weight_distance_by_traffic", False),
    )
    entries: List[ArchiveEntry[SubsetSolution]] = []
    for item in record["archive"]:
        assignment = {
            int(node): frozenset(subset)
            for node, subset in item["subsets"].items()
        }
        entries.append(
            ArchiveEntry(
                solution=SubsetSolution(assignment=assignment),
                objectives=tuple(item["objectives"]),
            )
        )
    result: AmosaResult[SubsetSolution] = AmosaResult(
        archive=entries,
        evaluations=int(record.get("evaluations", 0)),
        accepted_moves=int(record.get("accepted_moves", 0)),
    )
    return AdEleDesign(
        placement=placement,
        problem=problem,
        result=result,
        representatives=[entries[i] for i in record["representatives"]],
        selected=entries[record["selected"]],
        baseline_objectives=tuple(record["baseline_objectives"]),
    )


def _jsonify(value: Any) -> Any:
    """Recursively convert tuples to lists so a key becomes JSON-stable."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def design_key_hash(key: DesignKey) -> str:
    """Stable content hash of a design-cache key (the store's ``key_hash``)."""
    blob = json.dumps(_jsonify(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Cache directories
# ---------------------------------------------------------------------- #
def open_caches(cache_dir: Optional[str]):
    """Open the result and design caches of a cache directory.

    Args:
        cache_dir: Cache directory; its one SQLite store
            (``<cache_dir>/repro.sqlite3``, created on first use) holds
            summary rows and design records, and ``repro serve
            --cache-dir`` runs on the same file.  ``None`` returns a
            memory-only :class:`ResultCache` and no design cache (in-batch
            deduplication only).

    Returns:
        A ``(result_cache, design_cache)`` pair usable with
        :class:`~repro.exec.batch.ExperimentBatch`.
    """
    if cache_dir is None:
        return ResultCache(), None
    # Imported lazily: repro.service.store imports this module.
    from repro.service.store import (
        DEFAULT_DB_FILENAME,
        SqliteDesignCache,
        SqliteResultCache,
        SqliteStore,
    )

    store = SqliteStore(os.path.join(cache_dir, DEFAULT_DB_FILENAME))
    return SqliteResultCache(store), SqliteDesignCache(store)


def cache_stats(cache_dir: str) -> Dict[str, Any]:
    """What a cache directory holds.

    Returns:
        JSON-native ``{"backend": "sqlite", "cache_dir", "results",
        "designs", "jobs", "tasks", "manifests", "bytes"}``: the row counts
        of the directory's store, its ``manifest-*.json`` checkpoints, and
        the bytes of both on disk.  A directory without a store reports
        zero rows and is left without one; the store's bytes are measured
        after this call's own connection closes, so they count WAL/SHM
        sidecars only while another process (a live daemon) holds them.
    """
    # Imported lazily: repro.service.store imports this module.
    from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore, database_bytes

    stats: Dict[str, Any] = {"backend": "sqlite", "cache_dir": cache_dir}
    db_path = os.path.join(cache_dir, DEFAULT_DB_FILENAME)
    tables = dict.fromkeys(("results", "designs", "jobs", "tasks"), 0)
    if os.path.exists(db_path):
        store = SqliteStore(db_path)
        try:
            tables = store.table_counts()
        finally:
            store.close()
    stats.update(tables)
    manifests = [
        os.path.join(cache_dir, name)
        for name in os.listdir(cache_dir)
        if name.startswith("manifest-") and name.endswith(".json")
    ]
    stats["manifests"] = len(manifests)
    stats["bytes"] = database_bytes(db_path) + sum(
        os.path.getsize(path) for path in manifests
    )
    return stats


__all__ = [
    "SEED_SPACE",
    "canonical_config",
    "canonical_json",
    "config_key",
    "spec_from_canonical",
    "derive_seed",
    "ResultCache",
    "design_to_record",
    "design_from_record",
    "design_key_hash",
    "open_caches",
    "cache_stats",
]
