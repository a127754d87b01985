"""repro — a full Python reproduction of *Chaining Transactions for
Effective Concurrency Management in Hardware Transactional Memory*
(CHATS, MICRO 2024).

The package contains an event-driven multicore simulator (cores, MESI
directory coherence, L1 caches with speculative versioning, a crossbar
interconnect), a registry of best-effort HTM systems composed from
pluggable mechanism layers (the paper's six — requester-wins baseline,
naive requester-speculates, CHATS, PowerTM, PCHATS, LEVC-BE-Idealized —
plus registry-defined extras), re-implementations of the STAMP benchmarks
plus the paper's two microbenchmarks, and a harness regenerating every
table and figure of the paper's evaluation.

Quickstart::

    from repro import run_workload

    base = run_workload("kmeans-h", system="baseline", scale=0.1)
    chats = run_workload("kmeans-h", system="chats", scale=0.1)
    print(chats.normalized_time(base))  # < 1.0: CHATS is faster

New systems are composed and registered without touching the simulator —
see :mod:`repro.systems` (``register``/``SystemSpec``) and the "Systems
registry" section of ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .sim.config import HTMConfig, SystemConfig
    from .sim.results import SimulationResult
    from .systems import SystemSpec

__version__ = "1.0.0"

#: Public name -> submodule that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro`` loads no simulator module until
#: a caller touches one: a warm report never builds a machine.
_EXPORTS = {
    "ForwardClass": "sim.config",
    "HTMConfig": "sim.config",
    "SystemConfig": "sim.config",
    "SystemKind": "sim.config",
    "all_system_kinds": "sim.config",
    "table2_config": "sim.config",
    "InvariantViolation": "sim.invariants",
    "check_invariants": "sim.invariants",
    "check_quiescent": "sim.invariants",
    "SimulationResult": "sim.results",
    "DeadlockError": "sim.simulator",
    "Simulator": "sim.simulator",
    "run_simulation": "sim.simulator",
    "TraceEvent": "obs.tracer",
    "Tracer": "obs.tracer",
    "SystemSpec": "systems",
    "UnknownSystemError": "systems",
    "get_spec": "systems",
    "paper_systems": "systems",
    "register": "systems",
    "registered_systems": "systems",
    "Workload": "workloads.base",
    "make_workload": "workloads.base",
    "workload_names": "workloads.base",
    "ScriptedWorkload": "workloads.scripted",
}

__all__ = [*_EXPORTS, "run_workload"]


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


def run_workload(
    name: str,
    system: "SystemSpec | str" = "baseline",
    *,
    threads: int = 16,
    seed: int = 1,
    scale: float = 1.0,
    htm: Optional[HTMConfig] = None,
    config: Optional[SystemConfig] = None,
    max_events: int = 80_000_000,
) -> SimulationResult:
    """Run a registered workload under an HTM system and return results.

    This is the primary public entry point: it instantiates the workload,
    builds the machine with the Table II configuration for ``system``
    (unless an explicit ``htm`` overrides it), runs to completion, checks
    the workload's correctness invariants, and returns the
    :class:`SimulationResult`.
    """
    from .sim.simulator import run_simulation
    from .workloads.base import make_workload

    workload = make_workload(name, threads=threads, seed=seed, scale=scale)
    return run_simulation(
        workload, system, htm=htm, config=config, max_events=max_events
    )
