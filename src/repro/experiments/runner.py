"""Cached, parallel experiment runner.

Several figures are computed from the same simulations (Figs. 1, 4, 5, 6,
7, and 11 all derive from the main six-system sweep), so results are
cached at two levels:

* an in-process dictionary keyed by the *complete* run configuration
  (:class:`RunConfig`), and
* a persistent on-disk **result store** (:mod:`repro.store`) under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR``), so a figure
  sweep re-run in a new process costs zero simulations.  The store is
  the sharded segment store; a pre-store one-JSON-per-result cache is
  migrated into it on first touch, so its entries keep hitting.
  Concurrent ``run_many`` processes sharing one cache directory
  deduplicate *across processes* through store claims: each miss is
  claimed before execution, and a key some live peer already claimed is
  awaited instead of recomputed.

Cache keys are content-addressed: a SHA-256 over every field that can
change a simulation's outcome — workload, system, the full
:class:`~repro.sim.config.HTMConfig`, threads, seed, scale, and
``max_events`` — plus :data:`SCHEMA_VERSION` (bump on serialization
changes) and a fingerprint of the package's source code, so stale results
can never survive a code change.

:func:`run_many` fans a batch of configurations out over a
``ProcessPoolExecutor`` (``REPRO_WORKERS`` processes, default 1 = serial),
deduplicating identical configs before dispatch; a crashed worker is
retried once and then surfaced with the offending configuration.

Environment knobs:

* ``REPRO_SCALE`` — global input-scale factor for benches (default 0.4).
  Larger values approach the paper's input sizes at a linear cost in host
  time; every figure's *shape* is stable across scales.
* ``REPRO_THREADS`` — simulated core/thread count (default 16, Table I).
* ``REPRO_SEED`` — workload RNG seed (default 1).
* ``REPRO_WORKERS`` — worker processes for :func:`run_many` (default 1).
* ``REPRO_CACHE_DIR`` — disk cache location (default ``.repro_cache``).
* ``REPRO_NO_CACHE`` — set to ``1`` to disable the disk cache.
* ``REPRO_BACKEND`` — simulation backend: ``python`` (the default),
  ``compiled``, or ``auto`` (see :mod:`repro.accel`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import accel
from .. import store as store_pkg
from ..obs import telemetry as fleet
from ..sim.config import HTMConfig, table2_config
from ..systems.spec import SystemSpec, get_spec
from ..sim.results import SimulationResult

#: Bump when the meaning of cached payloads changes (serialization layout,
#: result semantics); old disk entries then miss and re-run.
SCHEMA_VERSION = 1

#: Event bound used by the bench sweeps (tighter than the library default:
#: a figure cell that livelocks should fail fast).
DEFAULT_MAX_EVENTS = 40_000_000

ProgressFn = Callable[[int, int, "RunConfig", str], None]


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.4"))


def bench_threads() -> int:
    return int(os.environ.get("REPRO_THREADS", "16"))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_SEED", "1"))


def default_workers() -> int:
    return max(1, int(os.environ.get("REPRO_WORKERS", "1")))


# ----------------------------------------------------------------------
# Run configuration and content-addressed keys.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one simulation's outcome."""

    workload: str
    system: SystemSpec
    htm: HTMConfig
    threads: int
    seed: int
    scale: float
    max_events: int = DEFAULT_MAX_EVENTS
    #: Cycle width for the run's IntervalMetrics time series (``None``
    #: keeps the instrumentation bus silent).  Part of the cache key: an
    #: intervals-bearing result is a different payload.
    metrics_window: Optional[int] = None

    @classmethod
    def make(
        cls,
        workload: str,
        system: "SystemSpec | str",
        *,
        htm: Optional[HTMConfig] = None,
        threads: Optional[int] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        metrics_window: Optional[int] = None,
    ) -> "RunConfig":
        """Build a config, filling unset fields from the bench defaults.

        ``system`` accepts a registered name or a :class:`SystemSpec`.
        """
        system = get_spec(system)
        return cls(
            workload=workload,
            system=system,
            htm=htm if htm is not None else table2_config(system),
            threads=threads if threads is not None else bench_threads(),
            seed=seed if seed is not None else bench_seed(),
            scale=scale if scale is not None else bench_scale(),
            max_events=max_events,
            metrics_window=metrics_window,
        )

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-stable representation (used for hashing)."""
        # A shallow copy suffices: every HTMConfig field but the two
        # replaced below is a JSON scalar, and ``dataclasses.asdict``
        # would deep-copy the whole SystemSpec only to discard it.
        htm = {
            f.name: getattr(self.htm, f.name)
            for f in dataclasses.fields(self.htm)
        }
        htm["system"] = self.htm.system.value
        if self.htm.forward_class is not None:
            htm["forward_class"] = self.htm.forward_class.value
        return {
            "workload": self.workload,
            "system": self.system.value,
            "htm": htm,
            "threads": self.threads,
            "seed": self.seed,
            "scale": self.scale,
            "max_events": self.max_events,
            "metrics_window": self.metrics_window,
        }

    def key(self) -> str:
        """Content-addressed cache key covering every field plus the
        schema version and the package source fingerprint.

        Memoized in the instance ``__dict__``, not in a field, so equality,
        hashing, :meth:`to_dict` and ``dataclasses.replace`` never see it."""
        key = self.__dict__.get("_key")
        if key is None:
            payload = json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "code": _code_fingerprint(),
                    **self.to_dict(),
                },
                sort_keys=True,
            )
            key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", key)
        return key

    def describe(self) -> str:
        text = (
            f"{self.workload}/{self.system.value} "
            f"threads={self.threads} seed={self.seed} scale={self.scale} "
            f"max_events={self.max_events}"
        )
        if self.metrics_window is not None:
            text += f" metrics_window={self.metrics_window}"
        return text


_CODE_FINGERPRINT: Optional[str] = None


def _code_fingerprint() -> str:
    """SHA-256 over the package's source files.

    Any edit to the simulator invalidates every disk-cache entry, so a
    cached result can never silently disagree with the current code.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


# ----------------------------------------------------------------------
# Cache configuration and counters.
# ----------------------------------------------------------------------
_CACHE: Dict[str, SimulationResult] = {}
_cache_dir_override: Optional[str] = None
_disk_cache_override: Optional[bool] = None
_default_progress: Optional["ProgressFn"] = None


def configure(
    *,
    cache_dir: Optional[str] = None,
    disk_cache: Optional[bool] = None,
    progress: Optional["ProgressFn"] = None,
) -> None:
    """Override the env-derived cache settings (CLI flags, conftest).

    ``progress`` installs a default callback used by every ``run_many``
    call that does not pass its own — this is how the CLI gets progress
    out of figure prefetches that it does not invoke directly.
    """
    global _cache_dir_override, _disk_cache_override, _default_progress
    if cache_dir is not None:
        _cache_dir_override = cache_dir
    if disk_cache is not None:
        _disk_cache_override = disk_cache
    if progress is not None:
        _default_progress = progress


def cache_dir() -> Path:
    if _cache_dir_override is not None:
        return Path(_cache_dir_override)
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def disk_cache_enabled() -> bool:
    if _disk_cache_override is not None:
        return _disk_cache_override
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


@dataclass
class RunnerCounters:
    """Observability for the cache layers (asserted by tests/benches)."""

    simulations: int = 0  # actual simulator executions
    memory_hits: int = 0
    disk_hits: int = 0

    def reset(self) -> None:
        self.simulations = 0
        self.memory_hits = 0
        self.disk_hits = 0


COUNTERS = RunnerCounters()


@dataclass
class ManifestEntry:
    """One configuration's fate in a :func:`run_many` batch."""

    config: RunConfig
    source: str  # "cached" | "run"
    seconds: float  # wall-time: simulation for "run", lookup for "cached"
    #: Forensic digest (``ForensicReport.digest()``) when the batch ran
    #: with ``forensics=True`` and this config actually executed; cache
    #: hits stay ``None`` — the cache stores results, not event streams.
    forensics: Optional[Dict[str, object]] = None
    #: Worker-measured resource accounting for configs that executed
    #: (``None`` for cache hits): pid, started_unix, wall/CPU seconds,
    #: peak RSS, events simulated, and events/sec.  Measured inside the
    #: worker process by :func:`_worker_resources`.
    resources: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config": self.config.describe(),
            "source": self.source,
            "seconds": round(self.seconds, 6),
        }
        if self.forensics is not None:
            out["forensics"] = self.forensics
        if self.resources is not None:
            out["resources"] = dict(self.resources)
        return out


@dataclass
class RunManifest:
    """Per-config wall-times and cache accounting for one batch.

    Populated by :func:`run_many`; the CLI reads it back through
    :func:`last_manifest` to print elapsed times next to progress lines
    and a closing ``N cached / M run`` summary.
    """

    entries: List[ManifestEntry] = field(default_factory=list)
    #: The execution backend resolved when the batch started — recorded
    #: so ``repro trend`` and the manifest archive can attribute
    #: throughput jumps to backend changes rather than code changes.
    backend: str = field(default_factory=accel.resolved_backend)

    @property
    def cached(self) -> int:
        return sum(1 for e in self.entries if e.source == "cached")

    @property
    def executed(self) -> int:
        return sum(1 for e in self.entries if e.source == "run")

    @property
    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.entries)

    @property
    def events_simulated(self) -> int:
        return sum(
            int(e.resources.get("events", 0))
            for e in self.entries
            if e.resources
        )

    @property
    def cpu_seconds(self) -> float:
        return sum(
            float(e.resources.get("cpu_seconds", 0.0))
            for e in self.entries
            if e.resources
        )

    @property
    def max_peak_rss_kb(self) -> Optional[int]:
        peaks = [
            int(e.resources["peak_rss_kb"])
            for e in self.entries
            if e.resources and e.resources.get("peak_rss_kb") is not None
        ]
        return max(peaks) if peaks else None

    def record(
        self,
        config: RunConfig,
        source: str,
        seconds: float,
        forensics: Optional[Dict[str, object]] = None,
        resources: Optional[Dict[str, object]] = None,
    ) -> None:
        self.entries.append(
            ManifestEntry(config, source, seconds, forensics, resources)
        )

    def entry_for(self, cfg: RunConfig) -> Optional[ManifestEntry]:
        """Most recent entry for ``cfg`` (identity, then equality)."""
        for entry in reversed(self.entries):
            if entry.config is cfg or entry.config == cfg:
                return entry
        return None

    def summary(self) -> str:
        return (
            f"{self.cached} cached / {self.executed} run "
            f"in {self.total_seconds:.2f}s simulation wall-time"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "cached": self.cached,
            "run": self.executed,
            "backend": self.backend,
            "total_seconds": round(self.total_seconds, 6),
            "events_simulated": self.events_simulated,
            "cpu_seconds": round(self.cpu_seconds, 6),
            "max_peak_rss_kb": self.max_peak_rss_kb,
            "entries": [e.to_dict() for e in self.entries],
        }


_LAST_MANIFEST: Optional[RunManifest] = None


def last_manifest() -> Optional[RunManifest]:
    """Manifest of the most recent :func:`run_many` call (live object:
    it fills in while the batch is still running)."""
    return _LAST_MANIFEST


def counters() -> RunnerCounters:
    return COUNTERS


def simulations_executed() -> int:
    return COUNTERS.simulations


def clear_cache() -> None:
    """Drop the in-process cache (the disk cache is left untouched)."""
    _CACHE.clear()


def cache_size() -> int:
    return len(_CACHE)


# ----------------------------------------------------------------------
# Disk cache: everything persistent goes through the result store
# (``repro.store``), one sharded store per cache directory.
# ----------------------------------------------------------------------
def result_key(key: str) -> str:
    """Store key for one simulation result (``result/<sha256>``)."""
    return f"result/{key}"


def result_store() -> "store_pkg.ResultStore":
    """The shared store instance over the current cache directory."""
    return store_pkg.store_for(cache_dir())


def _disk_load(
    cfg: RunConfig, key: Optional[str] = None
) -> Optional[SimulationResult]:
    key = key if key is not None else cfg.key()
    store = result_store()
    payload = store.get_json(result_key(key))
    if payload is None:
        return None  # missing or byte-corrupt (store already counted it)
    try:
        return SimulationResult.from_dict(payload["result"])
    except (KeyError, TypeError, ValueError) as exc:
        # Valid JSON that no longer matches the result schema: same
        # warn-once miss policy as byte-level corruption.
        store.note_corrupt(result_key(key), f"result schema mismatch: {exc}")
        return None


def _result_payload(cfg: RunConfig, result: SimulationResult) -> bytes:
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "config": cfg.to_dict(),
            "result": result.to_dict(),
        },
        sort_keys=True,
    ).encode("utf-8")


def _disk_store(cfg: RunConfig, result: SimulationResult) -> None:
    try:
        result_store().put(result_key(cfg.key()), _result_payload(cfg, result))
    except OSError:
        pass  # a read-only cache dir degrades to compute-only


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def _execute(cfg: RunConfig) -> SimulationResult:
    """Run one simulation (also the worker-process entry point)."""
    # Imported here, not at module level: a warm batch never simulates,
    # so it should not pay for loading the machine model.
    from ..sim.simulator import run_simulation
    from ..workloads.base import make_workload

    wl = make_workload(
        cfg.workload, threads=cfg.threads, seed=cfg.seed, scale=cfg.scale
    )
    result = run_simulation(
        wl,
        cfg.system,
        htm=cfg.htm,
        max_events=cfg.max_events,
        metrics_window=cfg.metrics_window,
    )
    # The finished machine is one cyclic object graph (controllers, cores
    # and their bound-method tables point at each other), so only a full
    # collection frees it.  Left to the automatic gen-2 collections, dead
    # machines pile up and raise a sweep's peak RSS by several MB; the
    # collection costs ~5 ms per cell.
    gc.collect()
    return result


#: What one executed config returns from its worker: the result, the
#: successful attempt's wall-time, the optional forensic digest, and the
#: worker-side resource sample.
ExecOutcome = Tuple[
    SimulationResult, float, Optional[Dict[str, object]], Dict[str, object]
]


def _worker_resources(
    result: SimulationResult,
    *,
    started_unix: float,
    wall_seconds: float,
    cpu_seconds: float,
) -> Dict[str, object]:
    """Resource sample measured inside the worker process.

    Plain dict of primitives so it travels through worker-pool pickling;
    folded into the batch's :class:`ManifestEntry` and, when a telemetry
    session is installed, into the per-lane ``execute`` spans.
    """
    try:
        import resource

        rss: Optional[int] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
        if sys.platform == "darwin":  # pragma: no cover - linux CI
            rss //= 1024  # macOS reports bytes, Linux KiB
    except ImportError:  # pragma: no cover - non-POSIX
        rss = None
    return {
        "pid": os.getpid(),
        "started_unix": round(started_unix, 6),
        "wall_seconds": round(wall_seconds, 6),
        "cpu_seconds": round(cpu_seconds, 6),
        "peak_rss_kb": rss,
        "events": result.events,
        "events_per_sec": (
            round(result.events / wall_seconds, 3) if wall_seconds > 0 else 0.0
        ),
        # Resolved in the process that actually simulated, so a pool
        # worker reports what really executed (workers inherit the
        # selection through REPRO_BACKEND).
        "backend": accel.resolved_backend(),
    }


def _execute_timed(cfg: RunConfig) -> ExecOutcome:
    """``_execute`` plus wall-time and resource accounting, measured
    inside the worker process."""
    started = time.time()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = _execute(cfg)
    wall = time.perf_counter() - t0
    resources = _worker_resources(
        result,
        started_unix=started,
        wall_seconds=wall,
        cpu_seconds=time.process_time() - cpu0,
    )
    return result, wall, None, resources


def _execute_forensic_timed(cfg: RunConfig) -> ExecOutcome:
    """Like :func:`_execute_timed`, but with a transaction ledger attached
    and the run's forensic digest returned alongside (``forensics=True``
    batches).  The digest is a plain dict, so it travels through the
    worker-pool pickling unchanged."""
    from ..analysis.forensics import report_for_config

    started = time.time()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result, report = report_for_config(cfg)
    wall = time.perf_counter() - t0
    resources = _worker_resources(
        result,
        started_unix=started,
        wall_seconds=wall,
        cpu_seconds=time.process_time() - cpu0,
    )
    return result, wall, report.digest(), resources


def _lookup(cfg: RunConfig, key: str) -> Optional[SimulationResult]:
    hit = _CACHE.get(key)
    if hit is not None:
        COUNTERS.memory_hits += 1
        return hit
    if disk_cache_enabled():
        result = _disk_load(cfg)
        if result is not None:
            COUNTERS.disk_hits += 1
            _CACHE[key] = result
            return result
    return None


def _store(cfg: RunConfig, key: str, result: SimulationResult) -> None:
    _CACHE[key] = result
    if disk_cache_enabled():
        _disk_store(cfg, result)


def run_config(cfg: RunConfig, *, use_cache: bool = True) -> SimulationResult:
    """Run (or fetch) the simulation described by ``cfg``."""
    key = cfg.key()
    if use_cache:
        hit = _lookup(cfg, key)
        if hit is not None:
            return hit
    result = _execute(cfg)
    COUNTERS.simulations += 1
    if use_cache:
        _store(cfg, key, result)
    return result


def run_cached(
    workload: str,
    system: "SystemSpec | str",
    *,
    htm: Optional[HTMConfig] = None,
    threads: Optional[int] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SimulationResult:
    """Run (or fetch) one simulation with bench defaults."""
    return run_config(
        RunConfig.make(
            workload,
            system,
            htm=htm,
            threads=threads,
            seed=seed,
            scale=scale,
            max_events=max_events,
        )
    )


# ----------------------------------------------------------------------
# Parallel fan-out.
# ----------------------------------------------------------------------
def _notify(
    progress: Optional[ProgressFn],
    done: int,
    total: int,
    cfg: RunConfig,
    source: str,
) -> None:
    if progress is not None:
        progress(done, total, cfg, source)


def _retry_serial(
    cfg: RunConfig,
    cause: BaseException,
    exec_timed: Callable[[RunConfig], ExecOutcome],
) -> ExecOutcome:
    """Second (and last) attempt for a config whose first run failed.

    Runs through the same ``exec_timed`` callable as the first attempt so
    a forensics-mode retry keeps its ledger (and therefore its manifest
    digest), and so the returned wall-time covers only the successful
    attempt — not the failed one."""
    try:
        return exec_timed(cfg)
    except Exception as exc:
        raise RuntimeError(
            f"simulation failed twice for config [{cfg.describe()}]: {exc}"
        ) from cause


def run_many(
    configs: Iterable[RunConfig],
    *,
    workers: Optional[int] = None,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
    forensics: bool = False,
) -> List[SimulationResult]:
    """Run a batch of configurations, in parallel when ``workers > 1``.

    Identical configs are deduplicated before dispatch and each distinct
    simulation runs exactly once; results come back in input order.  With
    ``workers=1`` (the ``REPRO_WORKERS`` default) everything runs serially
    in-process.  A worker that dies is retried once; a second failure
    raises with the offending configuration.

    ``forensics=True`` attaches a transaction ledger to every simulation
    that actually executes and records each run's forensic digest on its
    :class:`ManifestEntry` (cache hits have no event stream, so their
    entries carry no digest; pass ``use_cache=False`` for full coverage).
    """
    global _LAST_MANIFEST
    configs = list(configs)
    if progress is None:
        progress = _default_progress
    if workers is None:
        workers = default_workers()
    workers = max(1, min(workers, os.cpu_count() or 1))
    exec_timed = _execute_forensic_timed if forensics else _execute_timed
    manifest = RunManifest()
    _LAST_MANIFEST = manifest
    # Batch telemetry: the shared no-op recorder when no session is
    # installed (the fleet-level analogue of an unsubscribed Probe).
    batch = fleet.for_run_many()

    # Deduplicate, preserving first-occurrence order.
    unique: Dict[str, RunConfig] = {}
    for cfg in configs:
        unique.setdefault(cfg.key(), cfg)
    batch.open(
        configs=len(configs),
        unique=len(unique),
        workers=workers,
        backend=manifest.backend,
    )

    store = result_store() if disk_cache_enabled() else None

    results: Dict[str, SimulationResult] = {}
    misses: List[RunConfig] = []
    total = len(unique)
    done = 0
    for key, cfg in unique.items():
        start = time.perf_counter()
        mem_before, disk_before = COUNTERS.memory_hits, COUNTERS.disk_hits
        hit = _lookup(cfg, key) if use_cache else None
        probe_seconds = time.perf_counter() - start
        if use_cache:
            batch.probe(
                cfg,
                key,
                outcome="hit" if hit is not None else "miss",
                layer=(
                    "memory"
                    if COUNTERS.memory_hits > mem_before
                    else "disk"
                    if COUNTERS.disk_hits > disk_before
                    else "none"
                ),
                seconds=probe_seconds,
                store=store.kind if store is not None else None,
            )
        if hit is not None:
            results[key] = hit
            done += 1
            manifest.record(cfg, "cached", probe_seconds)
            _notify(progress, done, total, cfg, "cached")
        else:
            misses.append(cfg)

    # Cross-process dedup: claim each miss so N ``run_many`` processes
    # sharing one cache directory never simulate the same key twice.  A
    # key a *live* peer already claimed goes to ``foreign`` — we wait
    # for the peer's entry after our own work, overlapping the wait.
    claims: Dict[str, store_pkg.Claim] = {}
    foreign: List[RunConfig] = []
    if use_cache and store is not None:
        mine: List[RunConfig] = []
        for cfg in misses:
            key = cfg.key()
            claim = store.claim(result_key(key))
            if claim is None:
                foreign.append(cfg)
                continue
            # Won the claim — but the previous holder may have stored
            # the result between our probe and now.
            hit = _disk_load(cfg, key)
            if hit is not None:
                COUNTERS.disk_hits += 1
                _CACHE[key] = hit
                results[key] = hit
                done += 1
                manifest.record(cfg, "cached", 0.0)
                _notify(progress, done, total, cfg, "cached")
                claim.release()
                continue
            claims[key] = claim
            mine.append(cfg)
        misses = mine

    def _finish(cfg, outcome, retried):
        """Completion site for every executed config: count and record
        the run, persist the result, and release the key's claim so
        cross-process waiters unblock."""
        nonlocal done
        result, seconds, digest, resources = outcome
        key = cfg.key()
        COUNTERS.simulations += 1
        results[key] = result
        done += 1
        manifest.record(
            cfg, "run", seconds, forensics=digest, resources=resources
        )
        batch.finished(cfg, key, resources, retried=retried)
        if use_cache:
            t0 = time.perf_counter()
            _store(cfg, key, result)
            batch.stored(cfg, key, time.perf_counter() - t0)
        claim = claims.pop(key, None)
        if claim is not None:
            claim.release()
        _notify(progress, done, total, cfg, "run")

    def _run_here(cfg):
        """Execute ``cfg`` in this process, retrying a failure once."""
        key = cfg.key()
        batch.submitted(cfg, key)
        try:
            outcome = exec_timed(cfg)
        except Exception as exc:
            batch.failed(cfg, key, exc)
            _finish(cfg, _retry_serial(cfg, exc, exec_timed), True)
        else:
            _finish(cfg, outcome, False)

    try:
        if workers <= 1 or len(misses) <= 1:
            for cfg in misses:
                _run_here(cfg)
        else:
            # Only a batch that can fan out pays for the pool machinery.
            from concurrent.futures import (
                FIRST_COMPLETED,
                ProcessPoolExecutor,
                wait,
            )
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(misses))
                ) as pool:
                    futures = {}
                    for cfg in misses:
                        batch.submitted(cfg, cfg.key())
                        futures[pool.submit(exec_timed, cfg)] = cfg
                    retried: set = set()
                    pending = set(futures)
                    while pending:
                        finished, pending = wait(
                            pending, return_when=FIRST_COMPLETED
                        )
                        for fut in finished:
                            cfg = futures.pop(fut)
                            try:
                                outcome = fut.result()
                            except BrokenProcessPool:
                                raise  # pool is gone: fall back to serial below
                            except Exception as exc:
                                batch.failed(cfg, cfg.key(), exc)
                                if cfg.key() in retried:
                                    pool.shutdown(wait=False, cancel_futures=True)
                                    raise RuntimeError(
                                        "simulation failed twice for config "
                                        f"[{cfg.describe()}]: {exc}"
                                    ) from exc
                                retried.add(cfg.key())
                                retry = pool.submit(exec_timed, cfg)
                                futures[retry] = cfg
                                pending.add(retry)
                                continue
                            _finish(cfg, outcome, cfg.key() in retried)
            except BrokenProcessPool as crash:
                # A worker died hard (signal/OOM): finish the remainder
                # serially, retrying each config at most once in total.
                for cfg in misses:
                    if cfg.key() in results:
                        continue
                    batch.failed(cfg, cfg.key(), crash)
                    _finish(cfg, _retry_serial(cfg, crash, exec_timed), True)

        # Configs a live peer process claimed: wait for its entry instead
        # of recomputing (our own misses above overlapped the wait).  A
        # peer that died — or released — without storing falls back to
        # executing here.
        for cfg in foreign:
            key = cfg.key()
            t0 = time.perf_counter()
            raw = store.wait_for(result_key(key))
            hit = _disk_load(cfg, key) if raw is not None else None
            if hit is not None:
                COUNTERS.disk_hits += 1
                _CACHE[key] = hit
                results[key] = hit
                done += 1
                seconds = time.perf_counter() - t0
                manifest.record(cfg, "cached", seconds)
                batch.probe(
                    cfg,
                    key,
                    outcome="hit",
                    layer="disk",
                    seconds=seconds,
                    store=store.kind,
                )
                _notify(progress, done, total, cfg, "cached")
                continue
            claim = store.claim(result_key(key))
            if claim is not None:
                claims[key] = claim
            _run_here(cfg)
    finally:
        # A batch that raises (simulation failed twice) must not leave
        # its claims behind: peers would block on them until the claim
        # TTL or our process exit.
        for claim in claims.values():
            claim.release()
        claims.clear()

    batch.close(manifest.to_dict(), store)
    return [results[cfg.key()] for cfg in configs]
