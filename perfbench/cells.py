"""The simulation cells each workload runs, and the exact counts summed
over them.

Shared by the benchmark process (``run.py``) and its children.
Importing this module imports nothing from ``repro``; the functions do,
so the caller must have put the program's ``src`` directory on
``sys.path`` first.
"""

from __future__ import annotations

#: Simulated threads in every cell (Table I's 16 cores).
THREADS = 16
#: Input scale of the two cold sweeps (the program's default).
SWEEP_SCALE = 0.4
#: Input scale of the report-warm store population.  It keeps set-up
#: (66 cells, ~10 s of simulation) inside the per-run time budget; the warm op itself
#: only reads results, so its cost does not depend on the scale.  Every
#: cell passes its oracle here (checked by set-up on each run); at 0.1,
#: intruder fails its oracle (a known defect, see ROADMAP.md).
REPORT_SCALE = 0.2
#: Figures a warm report renders: those drawn from the main six-system
#: sweep (11 workloads x 6 paper systems = 66 cells).
REPORT_FIGURES = ("fig4", "fig5", "fig7")

#: Sweep workloads: (STAMP workloads, systems); one cell per pair.
SWEEPS = {
    # Contended inputs under the forwarding systems: PiC, the VSB,
    # validation and abort/retry all run.
    "sweep-forwarding": (
        ("genome", "kmeans-h", "llb-h", "yada", "intruder"),
        ("chats", "pchats", "naive-rs", "levc-be-idealized"),
    ),
    # Requester-wins systems never forward or validate.
    "sweep-baseline": (
        ("ssca2", "labyrinth", "vacation", "kmeans-l", "llb-l", "cadd"),
        ("baseline", "power"),
    ),
}


def report_env(seed: int) -> dict:
    """``REPRO_*`` settings under which the figures' own config lists
    are the report-warm cells."""
    return {
        "REPRO_SCALE": str(REPORT_SCALE),
        "REPRO_THREADS": str(THREADS),
        "REPRO_SEED": str(seed),
        "REPRO_WORKERS": "1",
    }


def sweep_cells(workload: str, seed: int):
    from repro.experiments.runner import RunConfig

    workloads, systems = SWEEPS[workload]
    return [
        RunConfig.make(w, s, threads=THREADS, seed=seed, scale=SWEEP_SCALE)
        for s in systems
        for w in workloads
    ]


def report_cells():
    """The union of the report figures' cells, as ``repro report``
    batches them (reads ``REPRO_*`` from the environment)."""
    from repro.experiments.registry import experiment_configs

    unique = {}
    for fid in REPORT_FIGURES:
        for cfg in experiment_configs(fid):
            unique.setdefault(cfg.key(), cfg)
    return list(unique.values())


def build(workload: str, seed: int):
    """The cell list of ``workload`` (what set-up builds)."""
    if workload in SWEEPS:
        return sweep_cells(workload, seed)
    return report_cells()


def exact_counts(results) -> dict:
    """Simulated-machine counts summed over ``results``: exact, so equal
    on every run of one seed."""
    keys = (
        "tx_attempts", "tx_commits", "aborts", "spec_forwards",
        "validations", "validations_succeeded", "vsb_stall_cycles",
        "fallback_commits", "messages", "flits", "dir_requests",
        "dir_forwards", "dir_memory_fetches", "events", "cycles",
    )
    out = dict.fromkeys(keys, 0)
    for r in results:
        s = r.stats
        out["tx_attempts"] += s.tx_attempts
        out["tx_commits"] += s.tx_commits
        out["aborts"] += s.total_aborts
        out["spec_forwards"] += s.spec_forwards
        out["validations"] += s.validations_attempted
        out["validations_succeeded"] += s.validations_succeeded
        out["vsb_stall_cycles"] += s.vsb_stall_cycles
        out["fallback_commits"] += s.tx_fallback_commits
        out["messages"] += r.network.get("messages", 0)
        out["flits"] += r.network.get("flits", 0)
        out["dir_requests"] += r.directory.get("requests", 0)
        out["dir_forwards"] += r.directory.get("forwards", 0)
        out["dir_memory_fetches"] += r.directory.get("memory_fetches", 0)
        out["events"] += r.events
        out["cycles"] += r.cycles
    return out
