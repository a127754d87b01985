"""Observability: the per-simulator instrumentation bus and its subscribers.

``repro.obs`` is the cross-cutting tracing/metrics layer.  The machine
components (:class:`~repro.sim.core.Core`,
:class:`~repro.net.network.Crossbar`, :class:`~repro.mem.directory.Directory`,
the L1/validation controllers, and the fallback/power paths) emit typed,
frozen :mod:`~repro.obs.events` into a per-simulator
:class:`~repro.obs.probe.Probe`; emission is zero-cost while no
subscriber is attached.

Shipped subscribers:

* :class:`~repro.obs.tracer.Tracer` — filtered in-memory event log;
* :class:`~repro.obs.interval.IntervalMetrics` — fixed-window time
  series, serialized into :class:`~repro.sim.results.SimulationResult`;
* :class:`~repro.obs.trace_export.JsonlTraceWriter` /
  :class:`~repro.obs.trace_export.ChromeTraceExporter` — on-disk traces
  (JSONL, Perfetto-loadable Chrome ``trace_event``);
* :class:`~repro.obs.chains.ChainInspector` — forwarding-chain
  reconstruction for post-mortem debugging;
* :class:`~repro.obs.ledger.TxLedger` — per-attempt lifecycle ledger,
  the substrate for causal abort attribution
  (:func:`~repro.obs.attribution.attribute_aborts`) and wasted-work
  accounting (:class:`~repro.obs.ledger.WastedWork`) behind
  ``repro inspect``.

One level up, :mod:`~repro.obs.telemetry` watches the *fleet* instead of
one simulator: run-level spans for every ``run_many`` batch, per-run
resource accounting, a :class:`~repro.obs.telemetry.MetricsRegistry`
(JSON / Prometheus snapshots), and the ``--live`` terminal dashboard.
Same contract: zero cost while no session is installed.

See ``docs/OBSERVABILITY.md`` for the workflow.
"""

import importlib

#: Public name -> submodule that defines it, resolved on first access
#: (PEP 562): the runner needs only :mod:`~repro.obs.telemetry`, so
#: importing this package must not load the event, ledger and exporter
#: modules a warm report never uses.
_EXPORTS = {
    "Abort": "events",
    "AttributedAbort": "attribution",
    "AttributionReport": "attribution",
    "CAUSE_KINDS": "attribution",
    "Cascade": "attribution",
    "Chain": "chains",
    "ChainEdge": "chains",
    "ChainInspector": "chains",
    "ChromeTraceExporter": "trace_export",
    "Commit": "events",
    "Counter": "telemetry",
    "DEFAULT_WINDOW": "interval",
    "DirForward": "events",
    "DirInvRound": "events",
    "EVENT_TYPES": "events",
    "FallbackAcquire": "events",
    "FallbackCommit": "events",
    "FallbackSpan": "ledger",
    "ForwardEdge": "ledger",
    "Gauge": "telemetry",
    "Histogram": "telemetry",
    "IntervalMetrics": "interval",
    "JsonlTraceWriter": "trace_export",
    "LiveDashboard": "telemetry",
    "MetricError": "telemetry",
    "MetricsRegistry": "telemetry",
    "MsgSent": "events",
    "PicUpdate": "events",
    "PowerElevate": "events",
    "Probe": "probe",
    "ProbeEvent": "events",
    "Span": "telemetry",
    "SpecForward": "events",
    "TelemetrySession": "telemetry",
    "TraceEvent": "tracer",
    "Tracer": "tracer",
    "TxAttempt": "ledger",
    "TxBegin": "events",
    "TxLedger": "ledger",
    "ValidationMismatch": "events",
    "ValidationOk": "events",
    "ValidationStart": "events",
    "VsbDrain": "events",
    "VsbInsert": "events",
    "WASTED_WORK_BUCKETS": "ledger",
    "WastedWork": "ledger",
    "attribute_aborts": "attribution",
    "current_session": "telemetry",
    "install": "telemetry",
    "link_chains": "chains",
    "session_scope": "telemetry",
    "timeline_rows": "interval",
    "uninstall": "telemetry",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
