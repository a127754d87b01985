"""Conflict-resolution components (the ``conflict`` layer).

Three base behaviours, each parameterised by an ordering scheme and a
validation scheme rather than hardwired to one system:

* :class:`BaselineRW` — requester-wins: the holder always aborts.
* :class:`RequesterSpeculates` — forward whenever the shared guards allow,
  with the ordering scheme deciding chain admission.  Naive R-S is this
  with ``none`` ordering, CHATS with ``pic``, chats-ts with
  ``ideal-timestamp``.
* :class:`RequesterStalls` — NACK conflicting requesters so they retry
  later; deadlock freedom comes from wound-wait on ideal timestamps.

:class:`LEVCBEIdealized` keeps its own class: LEVC's endpoint-flag
ordering is inseparable from its requester-stall fallback (a failed
forwarding restriction degrades to NACK-or-abort rather than to
requester-wins), so it composes the two behaviours internally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import ConflictPolicy
from .outcome import ABORT, FORWARD_SPEC, NACK
from .ordering import OrderingScheme
from .validation import ValidationScheme

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.config import HTMConfig


class BaselineRW(ConflictPolicy):
    """Intel RTM-like requester-wins: the holder always aborts."""

    def resolve(self, holder, msg, inflight_write):
        return ABORT


#: Layer-vocabulary alias: ``conflict == "requester-wins"``.
RequesterWins = BaselineRW


class RequesterSpeculates(ConflictPolicy):
    """Requester-speculates, parameterised by ordering and validation.

    The shared guards (non-transactional probes, VSB availability, the
    forward class) decide *whether* forwarding is structurally possible;
    the ordering scheme decides whether it is *safe* and stamps the chain
    position; the validation scheme supplies the consumer-side escape
    hooks."""

    def __init__(
        self,
        htm: "HTMConfig",
        ordering: OrderingScheme,
        validation: ValidationScheme,
    ):
        super().__init__(htm)
        self.ordering = ordering
        self.validation = validation

    def resolve(self, holder, msg, inflight_write):
        guard = self._common_guards(holder, msg, inflight_write)
        if guard is not None:
            return guard
        return self.ordering.forward_decision(holder, msg)

    def on_unsuccessful_validation(self, tx):
        return self.validation.on_unsuccessful(tx)

    def on_successful_validation(self, tx):
        self.validation.on_successful(tx)


class NaiveRS(RequesterSpeculates):
    """Naive requester-speculates: forward whenever structurally possible,
    with no dependency tracking.  Consumers escape cyclic waits through a
    4-bit unsuccessful-validation counter (Section VI-B).

    Kept as a named class for its docstring and direct construction in
    tests; behaviourally it is ``RequesterSpeculates`` with ``none``
    ordering and the ``naive-budget`` validation scheme."""

    def __init__(self, htm: "HTMConfig"):
        from .validation import NaiveBudgetValidation

        super().__init__(htm, OrderingScheme(htm), NaiveBudgetValidation(htm))


class CHATS(RequesterSpeculates):
    """The paper's proposal: PiC-guided choice between requester-speculates
    and requester-wins (Sections III-B and IV-C) — ``RequesterSpeculates``
    with ``pic`` ordering and the ``pic-check`` validation scheme."""

    def __init__(self, htm: "HTMConfig"):
        from .ordering import PicOrdering

        super().__init__(htm, PicOrdering(htm), ValidationScheme(htm))


class RequesterStalls(ConflictPolicy):
    """Pure requester-stalls: a conflicting requester is NACKed and
    retries after ``nack_retry_delay`` cycles while the holder runs to
    completion.

    Unconditional stalling deadlocks the moment two holders wait on each
    other, so the stall is tempered by *wound-wait* on ideal timestamps
    when the spec's ordering layer is ``ideal-timestamp``: an **older**
    requester aborts the holder instead of stalling behind it (the old
    transaction "wounds" the young one and can never itself be made to
    wait on it), which makes every wait point from younger to older and
    keeps the wait-for graph acyclic.  Non-transactional requests always
    win, as in every system (Section IV-A)."""

    def __init__(self, htm: "HTMConfig", *, wound_wait: bool):
        super().__init__(htm)
        self._wound_wait = wound_wait

    def resolve(self, holder, msg, inflight_write):
        if msg.non_transactional:
            return ABORT
        if self._wound_wait and (
            msg.timestamp is None
            or holder.timestamp is None
            or msg.timestamp < holder.timestamp
        ):
            # The requester is older (or the order is unknown): holder
            # yields rather than risk a wait cycle.
            return ABORT
        return NACK


class LEVCBEIdealized(ConflictPolicy):
    """Best-effort adaptation of LEVC (Section VI-B).

    Built on a requester-stall base with *ideal* timestamps: on a conflict
    the holder forwards a speculative value when LEVC's restrictions allow
    — the producer must not already have a consumer, must not itself have
    consumed (chains of length at most 1), and the requester must be an
    endpoint too.  Otherwise the classic timestamp order decides: an older
    requester aborts the holder, a younger requester is NACKed and stalls.

    The deadlock-avoidance scheme is *unaware* of forwarding dependencies
    (the paper's key criticism): a producer can be selected as victim after
    having forwarded, silently dooming its consumer to a validation abort.
    """

    def resolve(self, holder, msg, inflight_write):
        if msg.non_transactional:
            return ABORT
        guard = self._common_guards(holder, msg, inflight_write)
        restrictions_ok = (
            guard is None
            and not holder.levc_has_consumer  # single consumer per producer
            and not holder.levc_has_consumed  # chain length <= 1
            and not msg.req_produced  # requester must be a chain endpoint
            and not msg.req_consumed
        )
        if restrictions_ok:
            return FORWARD_SPEC
        if (
            msg.timestamp is not None
            and holder.timestamp is not None
            and msg.timestamp < holder.timestamp
        ):
            # Older requester wins: the holder is the victim, regardless of
            # any forwarding it has done (cascading aborts follow).
            return ABORT
        return NACK


__all__ = [
    "BaselineRW",
    "CHATS",
    "LEVCBEIdealized",
    "NaiveRS",
    "RequesterSpeculates",
    "RequesterStalls",
    "RequesterWins",
]
