"""The priority-token layer (``priority == "power"``).

:class:`PowerPriority` wraps any base conflict component with PowerTM's
dual-priority rules (Section VI-B): the (single) power transaction wins
every conflict.  As a *holder* it refuses to die — it NACKs plain
requesters, or, when the base component forwards and the block is
eligible, answers with a PiC-less ``SpecResp`` (PCHATS: power producers
sit above every chain and consumers keep their PiC).  As a *requester* it
aborts the holder.  Conflicts not involving the power transaction fall
through to the wrapped base component untouched.

Wrapping ``BaselineRW`` reproduces PowerTM; wrapping CHATS reproduces
PCHATS — and wrapping any future registry entry gives it a power token
for free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import ConflictPolicy
from .forwardrules import block_is_forwardable
from .outcome import ABORT, ABORT_POWER, FORWARD_POWER, NACK

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.config import HTMConfig


class PowerPriority(ConflictPolicy):
    """Power-token rules layered over a base conflict component."""

    def __init__(self, htm: "HTMConfig", base: ConflictPolicy):
        super().__init__(htm)
        self.base = base
        # Whether a power *holder* may answer with a SpecResp at all:
        # only in systems whose base component forwards (PCHATS, not
        # PowerTM).
        self._base_forwards = htm.system.forwards

    def resolve(self, holder, msg, inflight_write):
        if msg.non_transactional:
            return ABORT
        if holder.power:
            if (
                self._base_forwards
                and msg.can_consume
                and self.htm.forward_class is not None
                and block_is_forwardable(
                    self.htm.forward_class, holder, msg.block, inflight_write
                )
            ):
                return FORWARD_POWER
            return NACK
        if msg.power:
            # Power requesters never consume; the holder yields.
            return ABORT_POWER
        return self.base.resolve(holder, msg, inflight_write)

    # Validation hooks delegate to the wrapped component (the power
    # transaction itself never consumes, so they only fire for plain
    # transactions governed by the base rules).
    def on_unsuccessful_validation(self, tx):
        return self.base.on_unsuccessful_validation(tx)

    def on_successful_validation(self, tx):
        self.base.on_successful_validation(tx)
