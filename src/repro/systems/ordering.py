"""Chain-ordering schemes: how a forwarding holder keeps chains acyclic.

Once the shared guards of a requester-speculates policy pass, the ordering
scheme owns the forward/abort decision (and any chain-state update on the
holder).  Each scheme corresponds to one value of
:attr:`~repro.systems.spec.SystemSpec.ordering`:

* ``none`` — no dependency tracking: always forward (the naive scheme;
  cyclic waits are broken by the validation layer's escape budget).
* ``pic`` — the CHATS Position-in-Chain register (Sections III-B, IV-C):
  the holder compares the requester's PiC against its own, re-anchors when
  safe, and falls back to requester-wins when forwarding could close a
  cycle.
* ``ideal-timestamp`` — chain positions come from ideal begin timestamps:
  forward only to *younger* requesters (producer strictly older than
  consumer), which keeps every chain acyclic by construction; an older
  requester wins the conflict instead.

(The fourth ordering, ``levc-flags``, is inseparable from its
requester-stall fallback and lives in
:class:`repro.systems.conflict.LEVCBEIdealized`.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.pic import HolderAction
from .outcome import ABORT_CYCLE, FORWARD_SPEC, PolicyOutcome, Resolution

if TYPE_CHECKING:  # pragma: no cover
    from ..htm.txstate import TxState
    from ..net.messages import Message
    from ..sim.config import HTMConfig


class OrderingScheme:
    """``none``: forward unconditionally, carrying no chain position."""

    name = "none"

    def __init__(self, htm: "HTMConfig"):
        self.htm = htm

    def forward_decision(self, holder: "TxState", msg: "Message") -> PolicyOutcome:
        return FORWARD_SPEC


class PicOrdering(OrderingScheme):
    """``pic``: PiC-guided choice between requester-speculates and
    requester-wins, mutating the holder's PiC exactly where the hardware
    would."""

    name = "pic"

    def forward_decision(self, holder: "TxState", msg: "Message") -> PolicyOutcome:
        decision = holder.pic.decide_as_holder(msg.pic)
        if decision.action is HolderAction.ABORT_LOCAL:
            return ABORT_CYCLE
        if decision.new_local_pic is not None:
            holder.pic.value = decision.new_local_pic
        return PolicyOutcome(
            Resolution.FORWARD_SPEC, message_pic=decision.message_pic
        )


class TimestampOrdering(OrderingScheme):
    """``ideal-timestamp``: forward only when the requester is strictly
    younger than the holder.

    Every forwarding then points from an older producer to a younger
    consumer, so the wait-for graph follows the (total) timestamp order
    and cycles are impossible by construction — the idealised ordering
    the PiC register approximates in a bounded register.  An older
    requester wins the conflict (charged as a cycle-avoidance abort,
    mirroring the PiC scheme's refusals)."""

    name = "ideal-timestamp"

    def forward_decision(self, holder: "TxState", msg: "Message") -> PolicyOutcome:
        if (
            msg.timestamp is None
            or holder.timestamp is None
            or msg.timestamp < holder.timestamp
        ):
            return ABORT_CYCLE
        return FORWARD_SPEC
