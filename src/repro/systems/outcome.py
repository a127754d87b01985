"""Conflict-resolution outcome records shared by every mechanism layer.

A policy names one of three resolutions for a conflict detected at the
*holder*:

* ``ABORT_LOCAL`` — requester-wins: the holder's transaction aborts and
  the request is satisfied with non-speculative data;
* ``FORWARD_SPEC`` — requester-speculates: the holder answers with a
  ``SpecResp`` carrying its current (speculative) value and cancels the
  request at the directory, retaining coherence ownership;
* ``NACK`` — requester-stalls: the requester receives a negative response
  and retries later.

:class:`PolicyOutcome` is frozen (and slotted): the module-level ``ABORT``
singleton is returned from every requester-wins path of every policy, so
an accidental caller-side mutation would silently cross-contaminate later
resolutions — freezing turns that hazard into an immediate error.  The
other fixed outcomes below are shared the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..htm.stats import AbortReason


class Resolution(Enum):
    ABORT_LOCAL = "abort-local"
    FORWARD_SPEC = "forward-spec"
    NACK = "nack"


@dataclass(frozen=True, slots=True)
class PolicyOutcome:
    resolution: Resolution
    #: PiC stamped on the SpecResp (None for naive/LEVC/power producers).
    message_pic: Optional[int] = None
    #: Abort reason charged to the holder on ABORT_LOCAL.
    abort_reason: AbortReason = AbortReason.CONFLICT
    #: SpecResp originates from a power transaction (PCHATS): the consumer
    #: keeps its PiC.
    from_power: bool = False


# The fixed outcomes, shared so a conflict never pays the frozen
# dataclass ``__init__`` (safe to share: frozen).  Outcomes that carry a
# PiC are built per call.
#: Requester-wins.
ABORT = PolicyOutcome(Resolution.ABORT_LOCAL)
#: Requester-wins charged as a cycle-avoidance abort.
ABORT_CYCLE = PolicyOutcome(
    Resolution.ABORT_LOCAL, abort_reason=AbortReason.CYCLE
)
#: Requester-wins against a power requester.
ABORT_POWER = PolicyOutcome(
    Resolution.ABORT_LOCAL, abort_reason=AbortReason.POWER
)
#: Requester-stalls.
NACK = PolicyOutcome(Resolution.NACK)
#: Requester-speculates with a PiC-less ``SpecResp``.
FORWARD_SPEC = PolicyOutcome(Resolution.FORWARD_SPEC, message_pic=None)
#: A power holder's PiC-less ``SpecResp`` (PCHATS).
FORWARD_POWER = PolicyOutcome(
    Resolution.FORWARD_SPEC, message_pic=None, from_power=True
)
