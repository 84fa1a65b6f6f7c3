"""Canonical configuration hashing, deterministic seeding and disk caches.

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
* *disk-backed caches* keyed by the canonical hash: :class:`ResultCache`
  persists ``SimulationResult.summary()`` rows and :class:`DiskDesignCache`
  persists completed AdEle offline designs, so warm re-runs and cross-process
  sweeps skip finished work entirely.

Cache files are plain JSON (one file per entry, written atomically via
rename), which keeps concurrent writers from different worker processes safe:
the worst case is two processes computing the same entry and one rename
winning, which is harmless because entries are deterministic functions of
their key.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis.runner import (
    DEFAULT_OFFLINE_AMOSA,
    DesignCache,
    DesignKey,
)
from repro.core.amosa import AmosaResult, ArchiveEntry
from repro.core.optimizers import OPTIMIZER_REGISTRY, canonical_optimizer_options
from repro.core.pipeline import AdEleDesign
from repro.core.subset_search import ElevatorSubsetProblem, SubsetSolution
from repro.obs.tracing import span
from repro.registry import Registry
from repro.routing.base import POLICY_REGISTRY
from repro.sim.backends import BACKEND_REGISTRY, DEFAULT_BACKEND
from repro.spec import ADELE_POLICY_NAMES, DesignSpec, ExperimentSpec
from repro.topology.elevators import PLACEMENT_REGISTRY, ElevatorPlacement
from repro.topology.mesh3d import Mesh3D
from repro.traffic.applications import APPLICATION_REGISTRY
from repro.traffic.patterns import PATTERN_REGISTRY, UniformTraffic

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
    # Scenario events naming a traffic pattern (traffic-phase) normalize it
    # like the experiment's own traffic field: aliases and case variants
    # never split the cache.  The scenario key itself exists only when a
    # timeline is attached, so plain specs keep their historical hash.
    scenario = data.get("scenario")
    if scenario is not None:
        for event in scenario.get("events", ()):
            if not isinstance(event, dict) or event.get("kind") != "traffic-phase":
                # Only the bundled traffic-phase kind is known to carry a
                # registry pattern name; a custom kind's 'pattern' field may
                # mean something else entirely and must hash verbatim.
                continue
            pattern = event.get("pattern")
            if isinstance(pattern, str):
                if pattern in APPLICATION_REGISTRY:
                    event["pattern"] = APPLICATION_REGISTRY.entry(pattern).name
                else:
                    event["pattern"] = _canonical_name(
                        PATTERN_REGISTRY, pattern, str.lower
                    )
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
# Atomic JSON helpers
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


def _read_json(path: str) -> Optional[Any]:
    """Load JSON from ``path``; ``None`` when missing or unreadable."""
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def iter_json_cache_entries(
    cache_dir: str, prefix: str
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Walk a JSON cache directory's ``<prefix><key>.json`` entries.

    Yields ``(key, record)`` pairs in sorted-filename order, skipping
    unreadable or non-dict files (same tolerance as the cache readers).
    Used by the SQLite migration and the shard-merge path, which both need
    to enumerate a cache directory rather than probe known keys.
    """
    if not os.path.isdir(cache_dir):
        return
    for name in sorted(os.listdir(cache_dir)):
        if not (name.startswith(prefix) and name.endswith(".json")):
            continue
        record = _read_json(os.path.join(cache_dir, name))
        if isinstance(record, dict):
            yield name[len(prefix):-len(".json")], record


def cache_stats(cache_dir: str, backend: str = "json") -> Dict[str, Any]:
    """Entry counts and on-disk bytes of a cache directory.

    Args:
        cache_dir: The ``--cache-dir`` to inspect.
        backend: ``json`` counts ``result-*.json`` / ``design-*.json`` files;
            ``sqlite`` counts table rows of the service database (bytes are
            the database file's size, WAL/SHM sidecars included).

    Returns:
        JSON-native ``{"backend", "cache_dir", "results", "designs",
        "bytes"}`` (plus ``"manifests"`` for the JSON backend, counting
        checkpoint manifests that are *not* part of the result set).
    """
    name = (backend or "json").strip().lower()
    if name not in _CACHE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; registered: "
            f"{', '.join(available_cache_backends())}"
        )
    stats: Dict[str, Any] = {
        "backend": name,
        "cache_dir": cache_dir,
        "results": 0,
        "designs": 0,
        "bytes": 0,
    }
    if name == "sqlite":
        from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore

        db_path = os.path.join(cache_dir, DEFAULT_DB_FILENAME)
        if os.path.exists(db_path):
            store = SqliteStore(db_path)
            tables = store.table_counts()
            stats["results"] = tables["results"]
            stats["designs"] = tables["designs"]
            stats["tables"] = tables
            for suffix in ("", "-wal", "-shm"):
                try:
                    stats["bytes"] += os.path.getsize(db_path + suffix)
                except OSError:
                    pass
        return stats
    stats["manifests"] = 0
    if os.path.isdir(cache_dir):
        for entry_name in os.listdir(cache_dir):
            if not entry_name.endswith(".json"):
                continue
            if entry_name.startswith("result-"):
                stats["results"] += 1
            elif entry_name.startswith("design-"):
                stats["designs"] += 1
            elif entry_name.startswith("manifest-"):
                stats["manifests"] += 1
            else:
                continue
            try:
                stats["bytes"] += os.path.getsize(
                    os.path.join(cache_dir, entry_name)
                )
            except OSError:
                pass
    return stats


# ---------------------------------------------------------------------- #
# Result cache
# ---------------------------------------------------------------------- #
class ResultCache:
    """Cache of ``SimulationResult.summary()`` rows keyed by config hash.

    Args:
        cache_dir: Optional directory for disk persistence.  Without it the
            cache is memory-only (still useful for deduplication inside one
            batch); with it entries survive the process and are shared by
            concurrent sweeps.  Non-finite floats (``inf`` latencies of
            saturated runs) survive the JSON round trip because Python's
            ``json`` emits/parses ``Infinity``.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self._memory: Dict[str, Dict[str, float]] = {}
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"result-{key}.json")

    def get(self, key: str) -> Optional[Dict[str, float]]:
        """The cached summary row for a config hash, or ``None``."""
        with span("cache.get", backend="json", key=key[:12]) as record_span:
            if key in self._memory:
                if record_span is not None:
                    record_span.args["hit"] = True
                return dict(self._memory[key])
            if self.cache_dir is not None:
                record = _read_json(self._path(key))
                if isinstance(record, dict) and "summary" in record:
                    summary = dict(record["summary"])
                    self._memory[key] = summary
                    if record_span is not None:
                        record_span.args["hit"] = True
                    return dict(summary)
            if record_span is not None:
                record_span.args["hit"] = False
            return None

    def put(
        self,
        key: str,
        config_data: Optional[Dict[str, Any]],
        summary: Dict[str, float],
    ) -> None:
        """Store a summary row (with its canonical config, for debugging)."""
        with span("cache.put", backend="json", key=key[:12]):
            self._memory[key] = dict(summary)
            if self.cache_dir is not None:
                _write_json_atomic(
                    self._path(key),
                    {"key": key, "config": config_data, "summary": summary},
                )

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        keys = set(self._memory)
        if self.cache_dir is not None and os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.startswith("result-") and name.endswith(".json"):
                    keys.add(name[len("result-"):-len(".json")])
        return len(keys)

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        self._memory.clear()
        if self.cache_dir is not None and os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.startswith("result-") and name.endswith(".json"):
                    os.unlink(os.path.join(self.cache_dir, name))


# ---------------------------------------------------------------------- #
# Disk-backed design cache
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

    # make_key layout: (name, shape, columns, traffic_label, cap, ...).
    traffic_label = key[3] if len(key) > 3 and isinstance(key[3], str) else "uniform"
    record = {
        "format": 2,
        "key": list(_jsonify(key)),
        "placement": _canonical_placement(design.placement),
        "traffic": traffic_label,
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

    The subset problem is reconstructed against the traffic matrix of the
    record's assumed-traffic label -- the registered pattern built with
    seed 0, exactly what :func:`repro.analysis.runner.design_for` optimized
    against (a missing label defaults to uniform).  Designs optimized
    against an explicit content-hashed matrix are never persisted; see
    :meth:`DiskDesignCache.put`.
    """
    placement_data = record["placement"]
    mesh = Mesh3D(*placement_data["mesh"])
    placement = ElevatorPlacement(
        mesh,
        [tuple(column) for column in placement_data["columns"]],
        name=placement_data["name"],
    )
    label = record.get("traffic", "uniform")
    if label == "uniform":
        traffic = UniformTraffic(mesh).traffic_matrix()
    else:
        traffic = PATTERN_REGISTRY.create(label, mesh, seed=0).traffic_matrix()
    problem = ElevatorSubsetProblem(
        placement,
        traffic,
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
    """Stable content hash of a design-cache key (for filenames)."""
    blob = json.dumps(_jsonify(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskDesignCache(DesignCache):
    """A :class:`~repro.analysis.runner.DesignCache` with JSON persistence.

    Completed designs are written to ``<cache_dir>/design-<hash>.json`` and
    reloaded lazily, so a warm cache directory lets new processes (parallel
    workers, repeated CLI invocations) skip the expensive offline search
    entirely.  Designs optimized against any *registered pattern* label
    (uniform included) are persisted -- the record stores the label and the
    matrix rebuilds deterministically from it (seed 0).  Designs keyed by
    an explicit content-hashed matrix (``label#digest``) stay memory-only,
    because such a matrix cannot be reconstructed from its label.
    """

    def __init__(self, cache_dir: str) -> None:
        super().__init__()
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    def _path(self, key: DesignKey) -> str:
        return os.path.join(self.cache_dir, f"design-{design_key_hash(key)}.json")

    @staticmethod
    def _persistable(key: DesignKey) -> bool:
        # make_key layout: (name, shape, columns, traffic_label, cap,
        # optimizer, options).  Labels containing '#' are content-hashed
        # explicit matrices -- not reconstructible, so memory-only; plain
        # registered-pattern labels (uniform included) rebuild from seed 0.
        return (
            len(key) >= 4
            and isinstance(key[3], str)
            and "#" not in key[3]
            and (key[3] == "uniform" or key[3] in PATTERN_REGISTRY)
        )

    def get(self, key: DesignKey) -> Optional[AdEleDesign]:
        design = super().get(key)
        if design is not None:
            return design
        if not self._persistable(key):
            return None
        record = _read_json(self._path(key))
        # Only format-2 records are reachable: the key layout (and hence
        # the file name hash) changed together with the format bump, so
        # pre-format-2 files can never resolve here.
        if not isinstance(record, dict) or record.get("format") != 2:
            return None
        design = design_from_record(record)
        super().put(key, design)
        return design

    def put(self, key: DesignKey, design: AdEleDesign) -> None:
        super().put(key, design)
        if self._persistable(key):
            _write_json_atomic(self._path(key), design_to_record(key, design))

    def clear(self) -> None:
        super().clear()
        if os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.startswith("design-") and name.endswith(".json"):
                    os.unlink(os.path.join(self.cache_dir, name))


# ---------------------------------------------------------------------- #
# Pluggable cache backends
# ---------------------------------------------------------------------- #
#: Registered cache backends: name -> factory(cache_dir) -> (result_cache,
#: design_cache).  ``json`` is the historical one-file-per-entry layout;
#: ``sqlite`` is the concurrent-safe service store (one database file,
#: same canonical keys -- see :mod:`repro.service.store`).
_CACHE_BACKENDS: Dict[str, Any] = {}


def register_cache_backend(name: str, factory) -> None:
    """Register a cache backend factory under a (lower-cased) name.

    The factory takes a cache directory and returns a
    ``(result_cache, design_cache)`` pair implementing the
    :class:`ResultCache` / :class:`~repro.analysis.runner.DesignCache`
    interfaces.
    """
    _CACHE_BACKENDS[name.strip().lower()] = factory


def available_cache_backends() -> List[str]:
    """Sorted names of every registered cache backend."""
    return sorted(_CACHE_BACKENDS)


def open_caches(cache_dir: Optional[str], backend: str = "json"):
    """Open the result and design caches of a cache directory.

    Args:
        cache_dir: Cache directory; ``None`` returns a memory-only
            :class:`ResultCache` and no design cache (in-batch
            deduplication only), whatever the backend.
        backend: Registered backend name (``json`` or ``sqlite``).

    Returns:
        A ``(result_cache, design_cache)`` pair usable with
        :class:`~repro.exec.batch.ExperimentBatch`.

    Raises:
        ValueError: Unknown backend name.
    """
    name = (backend or "json").strip().lower()
    if name not in _CACHE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; registered: "
            f"{', '.join(available_cache_backends())}"
        )
    if cache_dir is None:
        return ResultCache(), None
    return _CACHE_BACKENDS[name](cache_dir)


def _open_json_caches(cache_dir: str):
    return ResultCache(cache_dir), DiskDesignCache(cache_dir)


def _open_sqlite_caches(cache_dir: str):
    # Imported lazily: repro.service.store imports this module.
    from repro.service.store import (
        DEFAULT_DB_FILENAME,
        SqliteDesignCache,
        SqliteResultCache,
        SqliteStore,
    )

    store = SqliteStore(os.path.join(cache_dir, DEFAULT_DB_FILENAME))
    return SqliteResultCache(store), SqliteDesignCache(store)


register_cache_backend("json", _open_json_caches)
register_cache_backend("sqlite", _open_sqlite_caches)


#: Default AMOSA settings, re-exported so CLI/benchmark code can key designs
#: consistently with :func:`repro.analysis.runner.adele_design_for`.
__all__ = [
    "SEED_SPACE",
    "canonical_config",
    "canonical_json",
    "config_key",
    "spec_from_canonical",
    "derive_seed",
    "ResultCache",
    "DiskDesignCache",
    "design_to_record",
    "design_from_record",
    "design_key_hash",
    "register_cache_backend",
    "available_cache_backends",
    "open_caches",
    "iter_json_cache_entries",
    "cache_stats",
    "DEFAULT_OFFLINE_AMOSA",
]
