"""Layer tracing for the benchmark's traced run.

The program is left untouched: ``LayerTrace.install`` replaces each
layer's entry points, from outside, with timing wrappers and
``uninstall`` puts the originals back.  Every wrapped call is a span.
A layer's *self time* is its spans' duration minus the time their child
spans cover, so code no wrapper covers counts toward its caller.

A sweep pass makes over ten million wrapped calls, far too many spans
to keep one by one, so each span is folded into per-layer totals (self
nanoseconds, calls) the moment it closes.  Spans of the coarse layers
(runner, store, figures: a few per op) are also kept whole, in memory,
with their parent, and written out when the benchmark ends.

Wrappers must be installed before a simulator is built: the program
binds hot methods (``engine.schedule``, ``l1.handle``, ...) into
attributes at construction time, and those bindings then capture the
wrapper.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from typing import Dict, List, Tuple

#: Layers, named after the modules they cover, in report order.
LAYERS = (
    "engine",
    "core",
    "l1",
    "dir",
    "net",
    "cache",
    "memory",
    "htm",
    "systems",
    "workloads",
    "runner",
    "store",
    "figures",
)

#: Layers whose spans are kept whole (they run a few times per op).
COARSE = frozenset({"runner", "store", "figures"})

#: Every non-dunder method defined on these classes is wrapped.
_CLASSES: Dict[str, Tuple[str, ...]] = {
    "core": ("repro.sim.core:Core",),
    "l1": ("repro.mem.l1controller:L1Controller",),
    "dir": ("repro.mem.directory:Directory",),
    "cache": ("repro.mem.cache:L1Cache",),
    "memory": ("repro.mem.memory:MainMemory", "repro.mem.memory:SpeculativeStore"),
    "htm": (
        "repro.htm.txstate:TxState",
        "repro.htm.signature:PerfectSignature",
        "repro.htm.signature:BoundedPerfectSignature",
        "repro.htm.signature:BloomSignature",
        "repro.core.vsb:ValidationStateBuffer",
        "repro.core.pic:PiCRegister",
        "repro.core.validation:ValidationController",
    ),
    "systems": (
        "repro.systems.base:ConflictPolicy",
        "repro.systems.conflict:BaselineRW",
        "repro.systems.conflict:RequesterSpeculates",
        "repro.systems.conflict:NaiveRS",
        "repro.systems.conflict:CHATS",
        "repro.systems.conflict:RequesterStalls",
        "repro.systems.conflict:LEVCBEIdealized",
        "repro.systems.ordering:OrderingScheme",
        "repro.systems.ordering:PicOrdering",
        "repro.systems.ordering:TimestampOrdering",
        "repro.systems.priority:PowerPriority",
        "repro.systems.validation:ValidationScheme",
        "repro.systems.validation:NaiveBudgetValidation",
    ),
}

#: Only the named methods are wrapped on these classes.
_METHODS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "engine": (("repro.sim.engine:Engine", ("run", "schedule")),),
    # Send path, delivery, and message alloc/release.
    "net": (
        ("repro.net.network:Crossbar", ("_send_python",)),
        ("repro.sim.simulator:Simulator", ("_route",)),
        ("repro.net.messages:Message", ("__init__", "release")),
    ),
    "runner": (("repro.experiments.runner:RunConfig", ("key",)),),
    "store": (
        ("repro.store.base:ResultStore", ("claim",)),
        ("repro.store.sharded:ShardedStore", ("get", "put")),
        ("repro.store.legacy:LegacyJsonStore", ("get", "put")),
    ),
}

#: Module-level functions, replaced in every loaded ``repro`` module
#: that bound them by name.
_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "runner": ("repro.experiments.runner:run_many",),
    "figures": ("repro.experiments.figures:run_figure",),
}


def _resolve(ref: str):
    module, _, name = ref.partition(":")
    mod = importlib.import_module(module)
    return mod, getattr(mod, name)


class LayerTrace:
    """Per-layer self time and call counts, plus the coarse spans."""

    def __init__(self):
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: Closed coarse spans: (layer, name, start_ns, end_ns, parent).
        self.spans: List[Tuple[str, str, int, int, int]] = []
        # One frame per open span: [child_ns, span_id]; the bottom frame
        # stands for the benchmark process itself.
        self._stack: List[list] = [[0, -1]]
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        slot = LAYERS.index(layer)
        self_ns = self.self_ns
        calls = self.calls
        stack = self._stack
        clock = time.perf_counter_ns
        if layer not in COARSE:

            def span(*args, **kwargs):
                frame = [0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_ns[slot] += dt - frame[0]
                    calls[slot] += 1
                    stack[-1][0] += dt

        else:
            spans = self.spans

            def span(*args, **kwargs):
                parent = stack[-1][1]
                frame = [0, len(spans)]
                spans.append(None)  # reserve the id; filled on close
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stack.pop()
                    self_ns[slot] += dt - frame[0]
                    calls[slot] += 1
                    stack[-1][0] += dt
                    spans[frame[1]] = (layer, name, t0, t1, parent)

        span.__wrapped__ = fn
        return span

    def _timed_generator(self, gen):
        """A stand-in for a workload generator whose resumes are spans."""
        return types.SimpleNamespace(
            send=self._wrap("workloads", "resume", gen.send),
            throw=gen.throw,
            close=gen.close,
        )

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer trace already installed")
        for layer, refs in _CLASSES.items():
            for ref in refs:
                _, cls = _resolve(ref)
                for name, value in list(vars(cls).items()):
                    if isinstance(value, types.FunctionType) and not (
                        name.startswith("__") and name.endswith("__")
                    ):
                        self._patch(cls, name, self._wrap(layer, name, value))
        for layer, entries in _METHODS.items():
            for ref, names in entries:
                _, cls = _resolve(ref)
                for name in names:
                    fn = vars(cls)[name]
                    self._patch(cls, name, self._wrap(layer, name, fn))
        for layer, refs in _FUNCTIONS.items():
            for ref in refs:
                _, fn = _resolve(ref)
                wrapper = self._wrap(layer, fn.__name__, fn)
                for mod in _repro_modules():
                    if vars(mod).get(fn.__name__) is fn:
                        self._patch(mod, fn.__name__, wrapper)
        self._wrap_workload_generators()

    def _wrap_workload_generators(self) -> None:
        _, core_cls = _resolve("repro.sim.core:Core")
        _, txn_cls = _resolve("repro.sim.ops:Txn")
        start = core_cls.start  # already the core-layer wrapper
        txn_init = txn_cls.__init__
        timed = self._timed_generator

        def core_start(core, thread):
            return start(core, timed(thread))

        def txn_init_timed(txn, body, *args, **kwargs):
            txn_init(txn, lambda *a: timed(body(*a)), *args, **kwargs)

        self._patch(core_cls, "start", core_start)
        self._patch(txn_cls, "__init__", txn_init_timed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_ns": n, "calls": n}}`` accumulated so far."""
        return {
            layer: {"self_ns": self.self_ns[i], "calls": self.calls[i]}
            for i, layer in enumerate(LAYERS)
        }


def _repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and isinstance(mod, types.ModuleType)
    ]


def merge(tables, n: int = 1) -> Dict[str, Dict[str, float]]:
    """The mean of ``n`` layer tables, given as an iterable."""
    out = {layer: {"self_ns": 0, "calls": 0} for layer in LAYERS}
    for table in tables:
        for layer, row in table.items():
            for key, value in row.items():
                out[layer][key] += value / n
    return out


def format_table(table, *, title: str, overhead: float) -> str:
    """The per-layer table: self-time share, self ms and calls."""
    total = sum(row["self_ns"] for row in table.values()) or 1
    lines = [
        f"{title}: per-layer self time (traced run; trace.overhead "
        f"{overhead:.2f}x)",
        f"  {'layer':<10} {'self share':>10} {'self ms':>10} {'calls':>12}",
    ]
    for layer in LAYERS:
        row = table[layer]
        lines.append(
            f"  {layer:<10} {row['self_ns'] / total:>9.1%} "
            f"{row['self_ns'] / 1e6:>10.1f} {row['calls']:>12,.0f}"
        )
    return "\n".join(lines)
