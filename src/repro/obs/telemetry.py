"""Fleet telemetry: run-level spans, resource metrics, and a live view.

Where the rest of :mod:`repro.obs` watches *one simulation from the
inside* (probe events at cycle granularity), this module watches *the
fleet from the outside*: every :func:`~repro.experiments.runner.run_many`
batch — the unit the experiment service and the ``repro explore``
Pareto sweep will drive by the thousands — becomes a tree of structured
spans with wall-clock timestamps, per-run resource accounting, and
aggregate metrics.

Three pieces:

* :class:`TelemetrySession` — the span collector.  Spans (``run_many``,
  ``submit``, ``cache-probe``, ``execute``, ``retry``, ``serialize``)
  form a tree; the session serializes them as JSONL
  (``repro-telemetry/1``) and as a Chrome ``trace_event`` file so a
  whole sweep opens on one Perfetto timeline — one track per worker
  process plus a scheduler track — right next to the per-cycle
  simulation traces from :mod:`~repro.obs.trace_export`.

* :class:`MetricsRegistry` — labeled counters/gauges/histograms
  aggregating across runs, exportable as a JSON snapshot or Prometheus
  text exposition.  This is the seam a future ``repro serve`` exposes.

* :class:`LiveDashboard` — a terminal view (throughput, ETA, cache hit
  rate, per-worker lane status) fed by the span stream; behind the
  ``--live`` CLI flag.

The layer follows the :class:`~repro.obs.probe.Probe` precedent: it is
**zero-cost when no session is installed**.  The runner asks
:func:`for_run_many` for a batch recorder; with no session installed it
gets the shared :data:`NULL_BATCH` whose methods are all no-ops, and
nothing in the simulation engine ever sees telemetry at all — the hot
loops are untouched (asserted by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, Iterator, List, Optional, Tuple

#: JSONL schema tag written on the session header line.
SCHEMA = "repro-telemetry/1"

#: Schema tag of a persisted (enriched) run manifest.
MANIFEST_SCHEMA = "repro-manifest/1"

#: Schema tag of a metrics snapshot.
METRICS_SCHEMA = "repro-metrics/1"

#: The span vocabulary.  ``run_many`` is the root of one batch; every
#: other span nests under it (``execute``/``retry`` under ``submit``).
SPAN_NAMES = (
    "run_many",
    "submit",
    "cache-probe",
    "execute",
    "retry",
    "serialize",
)

#: pid used for every track of the fleet Chrome trace.
TRACE_PID = 2

#: tid of the scheduler track (worker lanes use 1..N).
SCHEDULER_TRACK = 0


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval of a batch, in unix seconds.

    ``lane`` is ``None`` for scheduler-side spans and a 1-based worker
    lane index (one lane per worker process) for ``execute`` spans.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    lane: Optional[int] = None
    status: str = "open"  # "open" | "ok" | "error"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_unix": round(self.start, 6),
            "end_unix": round(self.end, 6) if self.end is not None else None,
            "seconds": round(self.seconds, 6),
            "status": self.status,
            "attrs": self.attrs,
        }
        if self.lane is not None:
            out["lane"] = self.lane
        return out


class TelemetrySession:
    """Collects the span tree and metrics of one CLI invocation.

    One session can span several ``run_many`` batches (``repro report``
    prefetches a union sweep and then re-enters the runner per figure);
    each batch contributes its own ``run_many`` root span.
    """

    def __init__(self, *, registry: Optional["MetricsRegistry"] = None):
        self.started_unix = time.time()
        self.run_id = f"{int(self.started_unix * 1e6):x}-{os.getpid():x}"
        self.spans: List[Span] = []
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._next_id = 1
        self._lanes: Dict[int, int] = {}  # worker pid -> lane index
        self._listeners: Tuple = ()
        self._manifests = 0

    # -- span lifecycle -------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        lane: Optional[int] = None,
        **attrs,
    ) -> Span:
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            lane=lane,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._notify("begin", span)
        return span

    def finish(self, span: Span, *, status: str = "ok", **attrs) -> Span:
        span.end = time.time()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._notify("finish", span)
        return span

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[Span] = None,
        lane: Optional[int] = None,
        status: str = "ok",
        **attrs,
    ) -> Span:
        """Record a span retroactively (e.g. a worker-measured execution
        whose timestamps travelled back with the result)."""
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            end=max(start, end),
            lane=lane,
            status=status,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._notify("add", span)
        return span

    @contextmanager
    def span(self, name: str, *, parent: Optional[Span] = None, **attrs):
        sp = self.begin(name, parent=parent, **attrs)
        try:
            yield sp
        except BaseException:
            self.finish(sp, status="error")
            raise
        self.finish(sp)

    @property
    def span_count(self) -> int:
        return len(self.spans)

    def lane_for(self, pid: int) -> int:
        """Stable 1-based lane index for a worker process id."""
        lane = self._lanes.get(pid)
        if lane is None:
            lane = len(self._lanes) + 1
            self._lanes[pid] = lane
        return lane

    @property
    def lanes(self) -> Dict[int, int]:
        """Worker pid -> lane index mapping seen so far."""
        return dict(self._lanes)

    # -- listeners (the live dashboard) ---------------------------------
    def add_listener(self, fn) -> None:
        if fn not in self._listeners:
            self._listeners = self._listeners + (fn,)

    def remove_listener(self, fn) -> None:
        self._listeners = tuple(f for f in self._listeners if f != fn)

    def _notify(self, phase: str, span: Span) -> None:
        for fn in self._listeners:
            fn(phase, span)

    # -- manifest persistence -------------------------------------------
    def persist_manifest(
        self, manifest_dict: Dict[str, object], store
    ) -> str:
        """Persist one batch's enriched manifest into the result store.

        The entry name carries a content hash instead of the old
        per-session sequence number, so concurrent sessions (or two
        batches racing inside one session) can never overwrite each
        other's manifest — identical payloads collapse to one entry,
        distinct payloads always get distinct keys.  The sequence
        number still appears *inside* the payload (and therefore in the
        hash), ordering a session's manifests on read-back.  Returns
        the store key."""
        self._manifests += 1
        payload = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "seq": self._manifests,
            "created_unix": int(time.time()),
            **manifest_dict,
        }
        body = json.dumps(payload, sort_keys=True)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]
        key = f"manifest/MANIFEST_{self.run_id}_{digest}"
        store.put(key, body.encode("utf-8"))
        return key

    # -- export ----------------------------------------------------------
    def jsonl_lines(self) -> Iterator[str]:
        header = {
            "kind": "session",
            "schema": SCHEMA,
            "run_id": self.run_id,
            "started_unix": round(self.started_unix, 6),
            "pid": os.getpid(),
        }
        yield json.dumps(header, sort_keys=True)
        for span in self.spans:
            yield json.dumps(span.to_dict(), sort_keys=True)

    def write_jsonl(self, destination) -> int:
        """Write the span log; returns the number of span lines."""
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8") as fh:
                return self.write_jsonl(fh)
        count = 0
        for line in self.jsonl_lines():
            destination.write(line)
            destination.write("\n")
            count += 1
        return count - 1  # header line is not a span

    def to_chrome(self) -> Dict[str, object]:
        """Chrome ``trace_event`` payload: scheduler track 0 + one track
        per worker lane, timestamps in microseconds since session start.

        Scheduler-side spans that legitimately overlap (``submit`` and
        ``retry`` windows of concurrently in-flight configs) are emitted
        as async ``b``/``e`` pairs; everything else is a complete ``X``
        slice.
        """
        t0 = self.started_unix
        now = time.time()

        def us(t: float) -> int:
            return max(0, int(round((t - t0) * 1e6)))

        entries: List[Dict[str, object]] = []
        for span in self.spans:
            args = dict(span.attrs)
            args["status"] = span.status
            start = us(span.start)
            end = us(span.end if span.end is not None else now)
            tid = SCHEDULER_TRACK if span.lane is None else span.lane
            if span.name in ("submit", "retry"):
                common = {
                    "name": span.name,
                    "cat": "sched",
                    "id": span.span_id,
                    "pid": TRACE_PID,
                    "tid": tid,
                }
                entries.append({**common, "ph": "b", "ts": start, "args": args})
                entries.append({**common, "ph": "e", "ts": end})
            else:
                entries.append(
                    {
                        "name": span.name,
                        "cat": "fleet",
                        "ph": "X",
                        "ts": start,
                        "dur": max(0, end - start),
                        "pid": TRACE_PID,
                        "tid": tid,
                        "args": args,
                    }
                )
        # Parents sort before children at equal ts (longer dur first).
        entries.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
        meta: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {"name": "repro fleet"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": SCHEDULER_TRACK,
                "args": {"name": "scheduler"},
            },
        ]
        for pid, lane in sorted(self._lanes.items(), key=lambda kv: kv[1]):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": lane,
                    "args": {"name": f"worker {pid}"},
                }
            )
        return {
            "traceEvents": meta + entries,
            "displayTimeUnit": "ms",
            "otherData": {
                "run_id": self.run_id,
                "time_unit": "1 trace us = 1 wall-clock us since session start",
            },
        }

    def write_chrome(self, destination) -> None:
        payload = self.to_chrome()
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, destination)

    def summary(self) -> str:
        names: Dict[str, int] = {}
        for span in self.spans:
            names[span.name] = names.get(span.name, 0) + 1
        parts = ", ".join(f"{n}={c}" for n, c in sorted(names.items()))
        return f"{len(self.spans)} spans ({parts}) run_id={self.run_id}"


# ----------------------------------------------------------------------
# Module-level session installation (the Probe-style on/off switch).
# ----------------------------------------------------------------------
_SESSION: Optional[TelemetrySession] = None


def current_session() -> Optional[TelemetrySession]:
    """The installed session, or ``None`` (telemetry off, zero cost)."""
    return _SESSION


def install(session: TelemetrySession) -> TelemetrySession:
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("a telemetry session is already installed")
    _SESSION = session
    return session


def uninstall(session: Optional[TelemetrySession] = None) -> None:
    """Remove the installed session (idempotent; ``session`` asserts
    which one the caller thinks is active)."""
    global _SESSION
    if session is not None and _SESSION is not session:
        return
    _SESSION = None


@contextmanager
def session_scope(**kwargs) -> Iterator[TelemetrySession]:
    session = install(TelemetrySession(**kwargs))
    try:
        yield session
    finally:
        uninstall(session)


# ----------------------------------------------------------------------
# The runner-facing batch recorder.
# ----------------------------------------------------------------------
class NullBatch:
    """No-op batch recorder handed out while telemetry is off.

    A shared singleton: the runner pays one module-global read and a few
    no-op method calls per *configuration* (never per engine event)."""

    __slots__ = ()

    def open(self, *, configs: int, unique: int, workers: int,
             backend: str = "python") -> None:
        pass

    def probe(self, cfg, key: str, *, outcome: str, layer: str,
              seconds: float, store: Optional[str] = None) -> None:
        pass

    def submitted(self, cfg, key: str) -> None:
        pass

    def finished(self, cfg, key: str, resources, *, retried: bool = False
                 ) -> None:
        pass

    def failed(self, cfg, key: str, error: BaseException) -> None:
        pass

    def stored(self, cfg, key: str, seconds: float) -> None:
        pass

    def close(self, manifest_dict, store=None) -> None:
        pass


NULL_BATCH = NullBatch()


class RunBatch(NullBatch):
    """Span bookkeeping for one live ``run_many`` batch."""

    __slots__ = ("_session", "_root", "_submits", "_retries")

    def __init__(self, session: TelemetrySession):
        self._session = session
        self._root: Optional[Span] = None
        self._submits: Dict[str, Span] = {}
        self._retries: Dict[str, Span] = {}

    def open(self, *, configs: int, unique: int, workers: int,
             backend: str = "python") -> None:
        self._root = self._session.begin(
            "run_many",
            configs=configs,
            unique=unique,
            workers=workers,
            backend=backend,
        )
        m = self._session.metrics
        m.counter(
            "repro_batches_total", "run_many batches started"
        ).inc()
        m.gauge(
            "repro_batch_configs", "configurations in the latest batch"
        ).set(unique)

    def probe(self, cfg, key: str, *, outcome: str, layer: str,
              seconds: float, store: Optional[str] = None) -> None:
        now = time.time()
        attrs: Dict[str, object] = {
            "config": cfg.describe(),
            "key": key[:12],
            "outcome": outcome,
            "layer": layer,
        }
        if store is not None:
            # The kind of store that answered the disk layer —
            # attribution for probe-latency regressions.
            attrs["store"] = store
        self._session.add(
            "cache-probe",
            now - seconds,
            now,
            parent=self._root,
            **attrs,
        )
        m = self._session.metrics
        m.counter(
            "repro_cache_probes_total",
            "result-cache probes by layer and outcome",
            labels=("layer", "outcome"),
        ).inc(layer=layer, outcome=outcome)
        if outcome == "hit":
            m.counter(
                "repro_runs_total",
                "configurations resolved, by source",
                labels=("source",),
            ).inc(source="cached")

    def submitted(self, cfg, key: str) -> None:
        self._submits[key] = self._session.begin(
            "submit",
            parent=self._root,
            config=cfg.describe(),
            key=key[:12],
        )

    def finished(self, cfg, key: str, resources, *, retried: bool = False
                 ) -> None:
        submit = self._submits.get(key)
        parent = self._retries.get(key, submit) if retried else submit
        m = self._session.metrics
        if resources:
            lane = self._session.lane_for(int(resources.get("pid", 0)))
            start = float(resources.get("started_unix", time.time()))
            wall = float(resources.get("wall_seconds", 0.0))
            self._session.add(
                "execute",
                start,
                start + wall,
                parent=parent,
                lane=lane,
                config=cfg.describe(),
                **{
                    k: v
                    for k, v in resources.items()
                    if k not in ("started_unix",) and v is not None
                },
            )
            m.histogram(
                "repro_run_wall_seconds", "per-run wall time in the worker"
            ).observe(wall)
            m.histogram(
                "repro_run_cpu_seconds", "per-run CPU (process) time"
            ).observe(float(resources.get("cpu_seconds", 0.0)))
            events = int(resources.get("events", 0))
            m.counter(
                "repro_events_simulated_total", "engine events simulated"
            ).inc(events)
            rss = resources.get("peak_rss_kb")
            if rss is not None:
                m.gauge(
                    "repro_worker_peak_rss_kb",
                    "peak resident set per worker",
                    labels=("pid",),
                ).set(int(rss), pid=str(resources.get("pid", 0)))
        m.counter(
            "repro_runs_total",
            "configurations resolved, by source",
            labels=("source",),
        ).inc(source="run")
        retry = self._retries.pop(key, None)
        if retry is not None:
            self._session.finish(retry)
        if submit is not None:
            self._session.finish(submit)

    def failed(self, cfg, key: str, error: BaseException) -> None:
        submit = self._submits.get(key)
        parent = self._retries.get(key, submit)
        now = time.time()
        self._session.add(
            "execute",
            now,
            now,
            parent=parent,
            status="error",
            config=cfg.describe(),
            error=f"{type(error).__name__}: {error}",
        )
        if key in self._retries:
            # Second failure: the batch is about to raise.
            self._session.finish(self._retries.pop(key), status="error")
            if submit is not None:
                self._session.finish(submit, status="error")
            return
        self._retries[key] = self._session.begin(
            "retry", parent=submit, config=cfg.describe(), key=key[:12]
        )
        self._session.metrics.counter(
            "repro_retries_total", "configs retried after a failed attempt"
        ).inc()

    def stored(self, cfg, key: str, seconds: float) -> None:
        now = time.time()
        self._session.add(
            "serialize",
            now - seconds,
            now,
            parent=self._submits.get(key, self._root),
            key=key[:12],
        )

    def close(self, manifest_dict, store=None) -> None:
        if self._root is not None:
            self._session.finish(
                self._root,
                cached=manifest_dict.get("cached"),
                run=manifest_dict.get("run"),
            )
        if store is not None:
            try:
                self._session.persist_manifest(manifest_dict, store)
            except OSError:
                pass  # read-only cache dir: telemetry stays in memory


def for_run_many() -> NullBatch:
    """Batch recorder for the installed session — or the shared no-op."""
    session = _SESSION
    if session is None:
        return NULL_BATCH
    return RunBatch(session)


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------
class MetricError(ValueError):
    """Metric re-registered with a different kind or label set."""


#: Default histogram buckets (seconds): spans micro-runs to long sweeps.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: Tuple[str, ...]):
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)

    def _key(self, label_values: Dict[str, object]) -> Tuple[str, ...]:
        if set(label_values) != set(self.labels):
            raise MetricError(
                f"{self.name}: expected labels {self.labels}, "
                f"got {tuple(sorted(label_values))}"
            )
        return tuple(str(label_values[label]) for label in self.labels)

    def _series(self):  # -> Iterable[Tuple[Tuple[str, ...], object]]
        raise NotImplementedError


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name, help_text="", labels=()):
        super().__init__(name, help_text, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0)

    def _series(self):
        return self._values.items()


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name, help_text="", labels=()):
        super().__init__(name, help_text, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = value

    def set_max(self, value: float, **labels) -> None:
        key = self._key(labels)
        if key not in self._values or value > self._values[key]:
            self._values[key] = value

    def value(self, **labels) -> Optional[float]:
        return self._values.get(self._key(labels))

    def _series(self):
        return self._values.items()


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name, help_text="", labels=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, help_text, labels)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricError(f"{name}: a histogram needs buckets")
        # key -> [per-bucket counts..., +Inf count, sum, count]
        self._values: Dict[Tuple[str, ...], List[float]] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        cells = self._values.get(key)
        if cells is None:
            cells = self._values[key] = [0] * (len(self.buckets) + 3)
        idx = bisect.bisect_left(self.buckets, value)
        cells[idx] += 1  # idx == len(buckets) is the +Inf bucket
        cells[-2] += value
        cells[-1] += 1

    def count(self, **labels) -> int:
        cells = self._values.get(self._key(labels))
        return int(cells[-1]) if cells else 0

    def sum(self, **labels) -> float:
        cells = self._values.get(self._key(labels))
        return cells[-2] if cells else 0.0

    def _series(self):
        for key, cells in self._values.items():
            cumulative = []
            running = 0
            for i in range(len(self.buckets) + 1):
                running += cells[i]
                cumulative.append(running)
            yield key, {
                "buckets": cumulative,
                "sum": cells[-2],
                "count": int(cells[-1]),
            }


class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Re-requesting a name with the same kind and labels returns the
    existing metric (so call sites need no shared setup); a conflicting
    re-registration raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help_text, labels, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help_text, tuple(labels), **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls) or metric.labels != tuple(labels):
            raise MetricError(
                f"metric {name!r} already registered as {metric.kind} "
                f"with labels {metric.labels}"
            )
        return metric

    def counter(self, name, help_text="", labels=()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name, help_text="", labels=()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(
        self, name, help_text="", labels=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump of every metric and series."""
        metrics: Dict[str, object] = {}
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            series = []
            for key, value in metric._series():
                series.append(
                    {
                        "labels": dict(zip(metric.labels, key)),
                        "value": value,
                    }
                )
            entry: Dict[str, object] = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labels),
                "series": series,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            metrics[metric.name] = entry
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""

        def fmt_labels(keys: Tuple[str, ...], names: Tuple[str, ...],
                       extra: str = "") -> str:
            pairs = [f'{n}="{_escape(v)}"' for n, v in zip(names, keys)]
            if extra:
                pairs.append(extra)
            return "{" + ",".join(pairs) + "}" if pairs else ""

        def _escape(value: str) -> str:
            return (
                value.replace("\\", r"\\").replace('"', r"\"")
                .replace("\n", r"\n")
            )

        def fmt_value(v: float) -> str:
            if isinstance(v, float) and math.isinf(v):
                return "+Inf" if v > 0 else "-Inf"
            if float(v) == int(v):
                return str(int(v))
            return repr(float(v))

        lines: List[str] = []
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                bounds = [fmt_value(b) for b in metric.buckets] + ["+Inf"]
                for key, cells in metric._series():
                    for bound, cum in zip(bounds, cells["buckets"]):
                        le = 'le="%s"' % bound
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{fmt_labels(key, metric.labels, le)}"
                            f" {fmt_value(cum)}"
                        )
                    lines.append(
                        f"{metric.name}_sum{fmt_labels(key, metric.labels)} "
                        f"{fmt_value(cells['sum'])}"
                    )
                    lines.append(
                        f"{metric.name}_count{fmt_labels(key, metric.labels)} "
                        f"{fmt_value(cells['count'])}"
                    )
            else:
                for key, value in metric._series():
                    lines.append(
                        f"{metric.name}{fmt_labels(key, metric.labels)} "
                        f"{fmt_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def write_snapshot(self, path) -> None:
        """Write the registry to ``path``: Prometheus text for ``.prom``
        (and ``.txt``) suffixes, a JSON snapshot otherwise."""
        path = Path(path)
        if path.suffix in (".prom", ".txt"):
            path.write_text(self.to_prometheus(), "utf-8")
        else:
            path.write_text(
                json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
                "utf-8",
            )


# ----------------------------------------------------------------------
# Live terminal dashboard.
# ----------------------------------------------------------------------
class LiveDashboard:
    """Terminal sweep view fed by the telemetry span stream.

    Shows batch progress, throughput, ETA, the cache hit rate, and one
    status line per worker lane.  Repaints in place on a TTY (ANSI
    cursor movement); on a non-TTY stream only the final summary frame
    is written, so piped/CI output stays readable.
    """

    def __init__(
        self,
        session: TelemetrySession,
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.1,
    ):
        self._session = session
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._t0 = time.perf_counter()
        self._last_draw = 0.0
        self._lines_drawn = 0
        self._done = 0
        self._total = 0
        self._cached = 0
        self._run = 0
        self._retries = 0
        self._events = 0
        self._inflight = 0
        # lane -> {"pid", "runs", "busy", "last"}
        self._lane_state: Dict[int, Dict[str, object]] = {}
        session.add_listener(self._on_span)

    # ``ProgressFn``-compatible: plugs straight into the runner.
    def progress(self, done: int, total: int, cfg, source: str) -> None:
        self._done = done
        self._total = max(self._total, total)
        if source == "cached":
            self._cached += 1
        else:
            self._run += 1
        self._draw()

    def _on_span(self, phase: str, span: Span) -> None:
        if span.name == "submit":
            if phase == "begin":
                self._inflight += 1
            elif phase == "finish":
                self._inflight = max(0, self._inflight - 1)
        elif span.name == "retry" and phase == "begin":
            self._retries += 1
        elif span.name == "execute" and phase == "add" and span.status == "ok":
            lane = span.lane or 0
            state = self._lane_state.setdefault(
                lane, {"pid": span.attrs.get("pid"), "runs": 0,
                       "busy": 0.0, "last": ""}
            )
            state["runs"] = int(state["runs"]) + 1
            state["busy"] = float(state["busy"]) + span.seconds
            state["last"] = str(span.attrs.get("config", ""))
            self._events += int(span.attrs.get("events", 0) or 0)
        self._draw()

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        elapsed = time.perf_counter() - self._t0
        total = max(self._total, self._done, 1)
        frac = self._done / total
        width = 28
        filled = int(frac * width)
        bar = "#" * filled + "-" * (width - filled)
        rate = self._done / elapsed if elapsed > 0 else 0.0
        remaining = total - self._done
        eta = f"{remaining / rate:4.0f}s" if rate > 0 and remaining else "   -"
        hit = self._cached / self._done if self._done else 0.0
        evps = self._events / elapsed if elapsed > 0 else 0.0
        lines = [
            f"sweep [{bar}] {self._done}/{total} ({frac:4.0%})  "
            f"elapsed {elapsed:5.1f}s  eta {eta}",
            f"cache {self._cached} hit ({hit:4.0%})  run {self._run}  "
            f"retries {self._retries}  in-flight {self._inflight}  "
            f"{rate:5.2f} cfg/s  {evps:,.0f} ev/s",
        ]
        for lane in sorted(self._lane_state):
            state = self._lane_state[lane]
            lines.append(
                f"  lane {lane} [pid {state['pid']}]: "
                f"{state['runs']} runs  busy {float(state['busy']):6.2f}s  "
                f"last {state['last']}"
            )
        return "\n".join(lines)

    def _draw(self, final: bool = False) -> None:
        interactive = getattr(self._stream, "isatty", lambda: False)()
        if not interactive and not final:
            return
        now = time.perf_counter()
        if not final and now - self._last_draw < self._min_interval:
            return
        self._last_draw = now
        text = self.render()
        if interactive and self._lines_drawn:
            # Repaint in place: up N lines, then clear to end of screen.
            self._stream.write(f"\x1b[{self._lines_drawn}F\x1b[J")
        self._stream.write(text + "\n")
        self._stream.flush()
        self._lines_drawn = text.count("\n") + 1

    def close(self) -> None:
        """Final frame (written even on non-TTY streams)."""
        self._draw(final=True)
        self._session.remove_listener(self._on_span)
