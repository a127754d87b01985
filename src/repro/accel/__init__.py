"""Backend selection for the accelerated hot core.

Two execution backends sit behind one interface:

``python``
    The pure-Python hot paths (``sim/engine.py``, ``net/messages.py``,
    ``Simulator._route``, ``Crossbar.send``).  Always available; the
    default.
``compiled``
    The ``_hotcore`` C extension: compiled engine, pooled message
    factory, delivery router, and crossbar send.  Built opt-in via
    ``pip install -e .[accel]`` or ``python scripts/build_accel.py``;
    falls back to ``python`` (with a single warning) when absent.

Selection order: an explicit :func:`select_backend` call (the CLI's
``--backend``) wins, else the ``REPRO_BACKEND`` environment variable,
else ``python``.  ``auto`` resolves to ``compiled`` when the extension
is importable and degrades to ``python`` otherwise.  Selection also
writes ``REPRO_BACKEND`` so ``ProcessPoolExecutor`` workers inherit the
choice.

Every backend produces byte-identical :class:`SimulationResult`s — the
golden-determinism suite is parametrized over the available backends,
so this is CI-enforced, not asserted.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Iterator, Optional

#: Names accepted by ``select_backend`` / ``--backend`` / REPRO_BACKEND.
BACKENDS = ("python", "compiled", "auto")

_ENV_VAR = "REPRO_BACKEND"
_selected: Optional[str] = None  # None -> read from the environment
_warned_fallbacks: set = set()


class UnknownBackendError(ValueError):
    """Raised for a backend name outside :data:`BACKENDS`."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}"
        )


# ----------------------------------------------------------------------
# Availability probes (cached, import-free on the hot path)
# ----------------------------------------------------------------------

_compiled_mod = None
_compiled_probe_done = False


def _load_compiled():
    """Import the ``_hotcore`` extension once; None when not built."""
    global _compiled_mod, _compiled_probe_done
    if not _compiled_probe_done:
        _compiled_probe_done = True
        try:
            from . import _hotcore  # type: ignore[attr-defined]

            _compiled_mod = _hotcore
        except ImportError:
            _compiled_mod = None
    return _compiled_mod


def compiled_available() -> bool:
    """True when the ``_hotcore`` C extension is importable."""
    return _load_compiled() is not None


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def select_backend(name: str) -> str:
    """Select ``name`` for this process (and, via the environment, for
    pool workers).  Returns the *resolved* backend actually in effect."""
    if name not in BACKENDS:
        raise UnknownBackendError(name)
    global _selected
    _selected = name
    os.environ[_ENV_VAR] = name
    return resolved_backend()


def current_backend() -> str:
    """The *requested* backend (may be ``auto``; may be unavailable)."""
    if _selected is not None:
        return _selected
    env = os.environ.get(_ENV_VAR, "").strip()
    if env:
        if env not in BACKENDS:
            raise UnknownBackendError(env)
        return env
    return "python"


def _warn_fallback(requested: str, reason: str) -> None:
    """Warn exactly once per (requested backend, process)."""
    if requested in _warned_fallbacks:
        return
    _warned_fallbacks.add(requested)
    warnings.warn(
        f"backend {requested!r} unavailable ({reason}); "
        "falling back to the pure-Python backend",
        RuntimeWarning,
        stacklevel=3,
    )


def resolved_backend() -> str:
    """The backend that actually executes: ``python`` or ``compiled``.
    ``auto`` and ``compiled`` resolve to ``compiled`` when the extension
    is built and degrade to ``python`` (with one warning) when not."""
    requested = current_backend()
    if requested == "python":
        return "python"
    if compiled_available():
        return "compiled"
    _warn_fallback(requested, "the _hotcore extension is not built")
    return "python"


def compiled_active() -> bool:
    """True when the in-simulator hot core should be the C extension."""
    return resolved_backend() == "compiled"


@contextlib.contextmanager
def use(name: str) -> Iterator[str]:
    """Temporarily select ``name`` (tests); restores the prior state."""
    global _selected
    prior_selected = _selected
    prior_env = os.environ.get(_ENV_VAR)
    try:
        yield select_backend(name)
    finally:
        _selected = prior_selected
        if prior_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = prior_env


# ----------------------------------------------------------------------
# Component factories (called at Simulator construction time)
# ----------------------------------------------------------------------


def make_engine():
    """An event engine for the resolved backend."""
    if compiled_active():
        return _load_compiled().Engine()
    from ..sim.engine import Engine

    return Engine()


def message_factory():
    """The message constructor the L1/directory should bind: the C
    ``make_message`` fastcall factory, or the Python ``Message`` class."""
    if compiled_active():
        return _load_compiled().make_message
    from ..net.messages import Message

    return Message


def make_router(dst_handler_tables, fallback):
    """A delivery callable: dst index -> kind index -> handler (the
    compiled router then releases the pooled message).
    ``dst_handler_tables`` is the list of dense per-kind handler lists
    (directory last); ``fallback`` is the Python route."""
    if compiled_active():
        return _load_compiled().Router(list(dst_handler_tables))
    return fallback


def hotcore():
    """The raw extension module (or None) — for the crossbar's SendCore
    wiring and for tests."""
    return _load_compiled() if compiled_active() else None
