"""Workload abstraction and registry.

A workload owns a simulated :class:`~repro.mem.address.AddressSpace`, lays
out its shared data structures in it, seeds committed memory in
:meth:`Workload.setup`, and provides one generator coroutine per thread
(:meth:`Workload.thread_body`).  Thread bodies yield
:mod:`~repro.sim.ops` operations; transactions are expressed as
:class:`~repro.sim.ops.Txn` markers whose bodies are generator functions,
restartable on abort.

``scale`` shrinks or grows the input sizes uniformly: benches use 1.0
(the calibrated default), unit/integration tests use smaller values for
speed.  All randomness flows from a seeded ``random.Random`` so every run
is reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, Generator, List

from ..mem.address import AddressSpace
from ..mem.memory import MainMemory


class Workload(ABC):
    """Base class of every benchmark."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self, *, threads: int = 16, seed: int = 1, scale: float = 1.0):
        if threads < 1:
            raise ValueError("need at least one thread")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.num_threads = threads
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.space = AddressSpace()

    def scaled(self, value: int, *, floor: int = 1) -> int:
        """Apply the scale factor to an input-size parameter."""
        return max(floor, int(round(value * self.scale)))

    @abstractmethod
    def setup(self, memory: MainMemory) -> None:
        """Seed committed memory with the initial data image."""

    @abstractmethod
    def thread_body(self, tid: int) -> Generator:
        """Generator coroutine executed by thread ``tid``."""

    def verify(self, memory: MainMemory) -> None:
        """Check workload invariants on the final committed image.

        Called automatically at the end of every simulation; raising makes
        the run fail.  Subclasses override with real invariants — this is
        the serializability oracle of the test suite.
        """


WorkloadFactory = Callable[..., Workload]

_REGISTRY: Dict[str, WorkloadFactory] = {}


def register(factory: WorkloadFactory) -> WorkloadFactory:
    """Class decorator adding a workload to the global registry."""
    name = getattr(factory, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"workload {factory!r} needs a concrete name")
    if name in _REGISTRY:
        raise ValueError(f"duplicate workload name {name!r}")
    _REGISTRY[name] = factory
    return factory


def _registry() -> Dict[str, WorkloadFactory]:
    """The registry with the built-in workloads loaded.

    Importing a workload module runs its ``@register`` decorators; doing
    it on first read keeps ``import repro`` free of every workload.
    """
    from . import synth  # noqa: F401
    from .stamp import register_all

    register_all()
    return _REGISTRY


def make_workload(
    name: str, *, threads: int = 16, seed: int = 1, scale: float = 1.0
) -> Workload:
    """Instantiate a registered workload by name."""
    registry = _registry()
    try:
        factory = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(registry)}"
        ) from None
    return factory(threads=threads, seed=seed, scale=scale)


def workload_names() -> List[str]:
    return sorted(_registry())
