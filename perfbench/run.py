"""End-to-end benchmark of the CHATS reproduction (see README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-forwarding --seed 1 \
        --seconds 25 --trace 0

Workloads: ``sweep-forwarding`` and ``sweep-baseline`` (cold
``run_many`` sweeps, one cell per op, fresh temporary store per pass)
and ``report-warm`` (one warm-report child process per op).  Every op
is bracketed by runs of the frozen yardstick (``yardstick.py``) and its
time is reported in yardstick-normalized seconds.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` the per-layer metrics, from a run
with the layer wrappers of ``layers.py`` installed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
every raw op time, every yardstick time and the exact counts.  Temporary
stores, run records and span dumps live under ``.perfbench_out/`` in the
checkout; the repository's own ``.repro_cache/`` is never touched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import cells
import layers
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep-forwarding", "sweep-baseline", "report-warm")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Longest a child process may take before its op counts as failed.
CHILD_TIMEOUT_S = 120


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Bench:
    """Runs ops between yardstick runs and keeps every timing."""

    def __init__(self, args, tmp: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = tmp
        self.ops = []
        self.yardsticks = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        yardstick.run()  # warm-up, not recorded
        self._y_last = self._yardstick()

    def _yardstick(self) -> float:
        y = yardstick.run()
        self.yardsticks.append(y)
        return y

    def op(self, name: str, fn, *, count: bool = True):
        """Time ``fn()`` and normalize it by the yardstick runs on either
        side.  An exception fails the op (``count`` decides whether it
        enters ``attempted``/``failed``) and the run goes on."""
        t0 = time.perf_counter()
        try:
            value, ok = fn(), True
        except Exception as exc:  # the op boundary: record and carry on
            value, ok = exc, False
            print(f"op {name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        raw = time.perf_counter() - t0
        y_before, y_after = self._y_last, self._yardstick()
        self._y_last = y_after
        norm = yardstick.normalize(raw, y_before, y_after)
        self.ops.append({
            "name": name, "ok": ok, "raw_s": raw, "y_before_s": y_before,
            "y_after_s": y_after, "norm_s": norm,
        })
        if count:
            self.attempted += 1
            self.failed += not ok
        return ok, value, norm

    def child(self, args, env) -> dict:
        """Run one child process to completion; its last stdout line is
        JSON.  A non-zero exit raises."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_probes(self, env):
        """``SETUP_PROBES`` fresh-interpreter set-ups: returns the median
        normalized set-up seconds and the median normalized import ms."""
        setups, imports = [], []
        for _ in range(SETUP_PROBES):
            ok, out, norm = self.op(
                "setup",
                lambda: self.child(
                    ["setup", self.workload, str(self.seed)], env
                ),
                count=False,
            )
            if not ok:
                raise RuntimeError("set-up failed") from out
            scale = norm / self.ops[-1]["raw_s"]
            setups.append(norm)
            imports.append(out["import_s"] * scale * 1000)
        return _median(setups), _median(imports)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# Sweeps.
# ----------------------------------------------------------------------
def _sweep_pass(bench: Bench, configs, traced: bool):
    """One cold pass: a fresh store, one ``run_many`` call per cell."""
    from repro import store as store_pkg
    from repro.experiments import runner

    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=bench.tmp))
    runner.configure(cache_dir=str(store_dir))
    runner.clear_cache()
    trace = layers.LayerTrace() if traced else None
    if trace is not None:
        trace.install()
    cells_out, results, norms = [], [], []
    try:
        for cfg in configs:
            name = f"{cfg.workload}/{cfg.system.value}"
            ok, result, norm = bench.op(
                name, lambda cfg=cfg: runner.run_many([cfg], workers=1)[0]
            )
            if ok:
                results.append(result)
                cells_out.append((name, result.events, result.cycles))
            else:
                cells_out.append((name, None, None))
            norms.append(norm if ok else None)
    finally:
        if trace is not None:
            trace.uninstall()
    store = runner.result_store()
    stats = store.stats()
    store_counts = {
        "puts": store.counters.puts,
        "gets": store.counters.hits + store.counters.misses,
        "hits": store.counters.hits,
        "bytes_written": stats["physical_bytes"],
    }
    store_pkg.drop_cached_instances()
    shutil.rmtree(store_dir, ignore_errors=True)
    return {
        "traced": traced,
        "cells": cells_out,
        "counts": cells.exact_counts(results),
        "store": store_counts,
        "norms": norms,
        "layers": trace.table() if trace is not None else None,
        "spans": trace.spans if trace is not None else None,
    }


def run_sweep(bench: Bench, env):
    from repro import accel

    setup_s, import_ms = bench.setup_probes(env)
    configs = cells.sweep_cells(bench.workload, bench.seed)
    passes = []
    start = time.perf_counter()
    # Whole passes only, so every run measures the same cell mix: at
    # least two (one untraced and one traced with --trace 1), then more
    # while another pass still fits in the measuring time.
    while True:
        p0 = time.perf_counter()
        passes.append(_sweep_pass(bench, configs, traced=False))
        if bench.trace:
            passes.append(_sweep_pass(bench, configs, traced=True))
        last = time.perf_counter() - p0
        if len(passes) >= 2 and (
            time.perf_counter() - start + last > bench.seconds
        ):
            break

    first = passes[0]
    for p in passes[1:]:
        bench.check(
            p["cells"] == first["cells"],
            "a cell's (events, cycles) differ between passes of one run",
        )
    counts = first["counts"]
    forwarding = bench.workload == "sweep-forwarding"
    for key in ("spec_forwards", "validations"):
        bench.check(
            (counts[key] > 0) if forwarding else (counts[key] == 0),
            f"{key} = {counts[key]} on {bench.workload}",
        )
    untraced = [p for p in passes if not p["traced"]]
    norms = [n for p in untraced for n in p["norms"] if n is not None]
    cells_ok = len(norms)
    total = sum(norms) or float("nan")
    # Op latency per fixed quantum of work: a cell's host ms per 10,000
    # simulated events, averaged over the passes.  Cell sizes change with
    # the seed; this does not, so runs of different seeds compare.
    per_10k = []
    for i, (_, cell_events, _) in enumerate(first["cells"]):
        times = [p["norms"][i] for p in untraced if p["norms"][i] is not None]
        if times and cell_events:
            per_10k.append(statistics.mean(times) * 1e7 / cell_events)
    events = sum(p["counts"]["events"] for p in untraced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {"backend": accel.resolved_backend(), "passes": len(untraced)}
    record = {"cells": first["cells"], "counts": counts, "store": first["store"]}
    if not bench.trace:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "cells_per_s": _metric(cells_ok / total, "1/s"),
            "events_per_s": _metric(events / total, "1/s"),
            "op_p50_ms": _metric(_median(per_10k), "ms"),
            "op_p90_ms": _metric(_p90(per_10k), "ms"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "sim_cycles": _metric(counts["cycles"], "cycles"),
        }
        return metrics, record, detail
    traced = [p for p in passes if p["traced"]]
    overhead = sum(
        n for p in traced for n in p["norms"] if n is not None
    ) / total
    table = layers.merge((p["layers"] for p in traced), len(traced))
    metrics = layer_metrics(counts, first["store"], table, import_ms, overhead)
    detail["spans"] = [s for p in traced for s in p["spans"]]
    print(layers.format_table(
        table, title=f"{bench.workload} (per pass)", overhead=overhead
    ))
    return metrics, record, detail


# ----------------------------------------------------------------------
# Warm report.
# ----------------------------------------------------------------------
def run_report(bench: Bench, env):
    from repro import store as store_pkg
    from repro.experiments import figures, runner

    os.environ.update(cells.report_env(bench.seed))
    env = {**env, **cells.report_env(bench.seed)}
    setup_s, import_ms = bench.setup_probes(env)

    # Populate the store once, as a cold report would, one run_many call
    # per cell so each cell sits between two yardstick runs.
    store_dir = bench.tmp / "report-store"
    runner.configure(cache_dir=str(store_dir))
    env["REPRO_CACHE_DIR"] = str(store_dir)
    configs = cells.report_cells()
    results, populate_s = [], 0.0
    for cfg in configs:
        name = f"{cfg.workload}/{cfg.system.value}"
        ok, out, norm = bench.op(
            f"populate/{name}",
            lambda cfg=cfg: runner.run_many([cfg], workers=1)[0],
            count=False,
        )
        if not ok:
            raise RuntimeError(f"populating {name} failed") from out
        results.append(out)
        populate_s += norm
    digests = []
    for fid in cells.REPORT_FIGURES:
        ok, out, norm = bench.op(
            f"populate/{fid}", lambda fid=fid: figures.run_figure(fid),
            count=False,
        )
        if not ok:
            raise RuntimeError(f"rendering {fid} failed") from out
        digests.append(hashlib.sha256(out.rendering.encode()).hexdigest())
        setup_s += norm
    setup_s += populate_s
    runner.result_store().flush()
    populated_bytes = runner.result_store().stats()["physical_bytes"]
    store_pkg.drop_cached_instances()
    runner.clear_cache()
    counts = cells.exact_counts(results)

    def warm_op(traced):
        out = bench.child(["report", "--trace"] if traced else ["report"], env)
        problems = []
        if out["simulations"] != 0:
            problems.append(f"simulated {out['simulations']} cells")
        if out["disk_hits"] != len(configs):
            problems.append(f"{out['disk_hits']} store hits, not {len(configs)}")
        if out["counts"] != counts:
            problems.append("summed counts differ from set-up's")
        if out["figures"] != digests:
            problems.append("figure renderings differ from set-up's")
        if problems:
            raise RuntimeError("; ".join(problems))
        return out

    norms, traced_norms, outs = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < bench.seconds:
        # With --trace 1, untraced and traced ops alternate.
        traced = bench.trace and len(norms) > len(traced_norms)
        ok, out, norm = bench.op("report" + "+trace" * traced,
                                 lambda: warm_op(traced))
        if ok:
            (traced_norms if traced else norms).append(norm)
            outs.append(out)
    bench.check(bool(outs), "no warm-report op succeeded")
    last = outs[-1] if outs else {"store": {}, "backend": None, "layers": None}
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    detail = {
        "backend": last["backend"], "cells": len(configs), "warm_ops": len(outs),
    }
    store = last["store"]
    written = runner.result_store().stats()["physical_bytes"] - populated_bytes
    store_counts = {
        "puts": store.get("puts", 0),
        "gets": store.get("hits", 0) + store.get("misses", 0),
        "hits": store.get("hits", 0),
        "bytes_written": written / max(1, len(outs)),
    }
    record = {
        "counts": counts,
        "figures": digests,
        "store": {k: store_counts[k] for k in ("puts", "gets", "hits")},
    }
    total = sum(norms) or float("nan")
    if not bench.trace:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "cells_per_s": _metric(len(configs) * len(norms) / total, "1/s"),
            # The cold half of the report: simulated while populating.
            "events_per_s": _metric(counts["events"] / populate_s, "1/s"),
            "op_p50_ms": _metric(_median(norms) * 1000, "ms"),
            "op_p90_ms": _metric(_p90(norms) * 1000, "ms"),
            "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
            "sim_cycles": _metric(counts["cycles"], "cycles"),
        }
        return metrics, record, detail
    tables = [o["layers"] for o in outs if o["layers"] is not None]
    overhead = _median(traced_norms) / (_median(norms) or float("nan"))
    table = layers.merge(tables, max(1, len(tables)))
    metrics = layer_metrics(counts, store_counts, table, import_ms, overhead)
    print(layers.format_table(
        table, title="report-warm (per op)", overhead=overhead
    ))
    return metrics, record, detail


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------
def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counts, store, table, import_ms, overhead):
    """Exact counts (summed per pass) and traced self-time shares and
    calls (a :func:`layers.merge` table: per pass or op)."""
    commits = counts["tx_commits"] + counts["fallback_commits"]
    out = {
        "htm.commit_ratio": (_ratio(counts["tx_commits"], counts["tx_attempts"]), "ratio"),
        "htm.aborts_per_commit": (_ratio(counts["aborts"], commits), "ratio"),
        "htm.spec_forwards": (counts["spec_forwards"], "count"),
        "htm.validations": (counts["validations"], "count"),
        "htm.validation_success_ratio": (
            _ratio(counts["validations_succeeded"], counts["validations"]), "ratio"),
        "htm.vsb_stall_cycles": (counts["vsb_stall_cycles"], "cycles"),
        "htm.fallback_commits": (counts["fallback_commits"], "count"),
        "net.messages": (counts["messages"], "count"),
        "net.flits": (counts["flits"], "count"),
        "net.flits_per_commit": (_ratio(counts["flits"], commits), "ratio"),
        "dir.requests": (counts["dir_requests"], "count"),
        "dir.forwards": (counts["dir_forwards"], "count"),
        "dir.memory_fetches": (counts["dir_memory_fetches"], "count"),
        "engine.events": (counts["events"], "count"),
        "store.puts": (store["puts"], "count"),
        "store.gets": (store["gets"], "count"),
        "store.hit_ratio": (_ratio(store["hits"], store["gets"]), "ratio"),
        "store.bytes_written": (store["bytes_written"], "bytes"),
    }
    total = sum(row["self_ns"] for row in table.values())
    for layer in layers.LAYERS:
        row = table[layer]
        out[f"{layer}.self_share"] = (_ratio(row["self_ns"], total), "share")
        out[f"{layer}.calls"] = (row["calls"], "count")
    out["import_ms"] = (import_ms, "ms")
    out["trace.overhead"] = (overhead, "ratio")
    return {name: _metric(value, unit) for name, (value, unit) in out.items()}


# ----------------------------------------------------------------------
# Runs of one seed must agree exactly.
# ----------------------------------------------------------------------
def compare_record(bench: Bench, record, cell_keys) -> None:
    """Compare this run's exact results with the first run of the same
    seed, cells and benchmark code (stored under
    ``.perfbench_out/records``), or store them if this is that first
    run."""
    # Keyed by the cells (their keys cover the program's code) and by
    # the benchmark's own code, which decides what a record holds.
    blob = "\n".join(cell_keys).encode()
    for path in sorted(HERE.glob("*.py")):
        blob += path.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    path = OUT / "records" / f"{bench.workload}-seed{bench.seed}-{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(json.dumps(record))  # tuples -> lists
    if path.exists():
        bench.check(
            json.loads(path.read_text()) == record,
            f"exact counts differ from an earlier run of this seed ({path.name})",
        )
        return
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)


def _environment() -> dict:
    """The children's environment: the program on ``PYTHONPATH`` and no
    inherited ``REPRO_*`` setting (the default backend and store)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    env = _environment()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        bench = Bench(args, tmp)
        if args.workload == "report-warm":
            metrics, record, detail = run_report(bench, env)
            keys = [cfg.key() for cfg in cells.report_cells()]
        else:
            metrics, record, detail = run_sweep(bench, env)
            keys = [cfg.key() for cfg in cells.sweep_cells(args.workload, args.seed)]
        compare_record(bench, record, keys)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spans = detail.pop("spans", None)
    if spans is not None:
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps(
            [dict(zip(("layer", "name", "start_ns", "end_ns", "parent"), s))
             for s in spans]
        ))
        detail["spans_file"] = str(dump.relative_to(ROOT))
    print(json.dumps({
        "detail": {
            "workload": args.workload, "seed": args.seed,
            "y_nominal_s": yardstick.Y_NOMINAL,
            "sensitivity": yardstick.SENSITIVITY, **detail,
            "problems": bench.problems, "ops": bench.ops,
            "yardsticks_s": bench.yardsticks, "exact": record,
        }
    }))
    print(json.dumps({
        "correct": not bench.problems and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
