"""Coherence message taxonomy and flit accounting.

The simplified MESI protocol exchanges the message kinds below.  For
Fig. 7 the only property that matters is whether a message carries a data
payload (5 flits at 16-byte flits for a 64-byte line plus header) or is
control-only (1 flit), mirroring Table I.

Hot-path design: a :class:`Message` is created for every hop of every
coherence exchange, so it is a ``__slots__`` class (no per-instance
``__dict__``).  It is not pooled: constructing a fresh record costs half
of what a free-list ``__new__`` plus a ``release()`` per delivery did,
so a delivered message is simply dropped.  (The compiled backend's C
message keeps its own free list behind the same ``retain``/``release``
calls.)  The per-kind hot attributes (``carries_data``, ``idx``) are
precomputed once on the enum members, so the send path pays plain
C-speed attribute loads instead of property calls and enum hashing.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple


class MessageKind(Enum):
    # Requests (core → directory).
    GETS = "GETS"  # read permission
    GETX = "GETX"  # exclusive / write permission
    UPGRADE = "UPGRADE"  # S → M without data
    # Directory → owner/sharers.
    FWD_GETS = "FwdGETS"
    FWD_GETX = "FwdGETX"
    INV = "Inv"
    # Responses.
    DATA = "Data"  # data, shared permission
    DATA_E = "DataE"  # data, exclusive permission
    SPEC_RESP = "SpecResp"  # speculative data hint, no permission (CHATS)
    NACK = "Nack"  # negative response, no data (PowerTM holder)
    ACK = "Ack"  # invalidation acknowledgement
    # Core → directory notifications.
    CANCEL = "Cancel"  # request cancelled after SpecResp (unblock)
    UNBLOCK = "Unblock"  # request completed
    WRITEBACK = "Writeback"  # eviction of an owned block


# Precompute the hot per-kind attributes once.  ``carries_data`` used to
# be a property doing tuple membership per call; it is now a plain bool
# on each member (read-only by convention).  ``idx`` gives each kind a
# dense index for table-driven dispatch and flit accounting.
_DATA_KINDS = frozenset(
    (
        MessageKind.DATA,
        MessageKind.DATA_E,
        MessageKind.SPEC_RESP,
        MessageKind.WRITEBACK,
    )
)
for _i, _kind in enumerate(MessageKind):
    _kind.idx = _i
    _kind.carries_data = _kind in _DATA_KINDS


#: Node id of the directory in message src/dst fields.
DIRECTORY = -1


class Message:
    """One message on the interconnect.

    ``pic`` carries the sender's Position-in-Chain at *send* time (stale by
    delivery time if the sender changed it meanwhile — deliberately so, per
    Section IV-C).  ``power`` marks messages from an elevated-priority
    transaction.  ``epoch`` tags the requester's transaction attempt so that
    responses to a dead attempt can be recognised and dropped.  ``req_id``
    threads a response back to the request that caused it.
    """

    __slots__ = (
        "kind",
        "src",
        "dst",
        "block",
        "data",
        "requester",
        "exclusive",
        "pic",
        "power",
        "timestamp",
        "epoch",
        "req_id",
        "can_consume",
        "is_validation",
        "non_transactional",
        "req_produced",
        "req_consumed",
        "action",
    )

    def __init__(
        self,
        kind: MessageKind,
        src: int = 0,
        dst: int = 0,
        block: int = 0,
        data: Optional[Tuple[int, ...]] = None,
        requester: Optional[int] = None,
        exclusive: bool = False,
        pic: Optional[int] = None,
        power: bool = False,
        timestamp: Optional[int] = None,
        epoch: int = 0,
        req_id: int = 0,
        can_consume: bool = True,
        is_validation: bool = False,
        non_transactional: bool = False,
        # LEVC-BE-Idealized: requester chain-endpoint flags (idealized —
        # carried on every request at no cost, like its ideal timestamps).
        req_produced: bool = False,
        req_consumed: bool = False,
        # UNBLOCK sub-action from a probed cache back to the directory:
        # 'xfer' (ownership moved to requester), 'downgrade' (owner became
        # sharer), 'aborted' (holder aborted; supply memory data),
        # 'not_present' (stale owner; supply memory data), 'recv'
        # (grantee acknowledges a directory-sourced response).
        action: Optional[str] = None,
    ):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.block = block
        self.data = data
        self.requester = requester
        self.exclusive = exclusive
        self.pic = pic
        self.power = power
        self.timestamp = timestamp
        self.epoch = epoch
        self.req_id = req_id
        self.can_consume = can_consume
        self.is_validation = is_validation
        self.non_transactional = non_transactional
        self.req_produced = req_produced
        self.req_consumed = req_consumed
        self.action = action

    # ------------------------------------------------------------------
    def retain(self) -> "Message":
        """Keep this message past its delivery callback.  Python messages
        are never recycled, so this only returns ``self``; the call marks
        the ownership point the compiled backend's pooled message needs."""
        return self

    def release(self) -> None:
        """Mark the message released: ``kind`` is cleared, so a
        use-after-release fails loudly instead of reading stale fields."""
        self.kind = None  # type: ignore[assignment]

    @property
    def flits(self) -> int:
        # Resolved by the network against its configured flit counts; this
        # property only distinguishes the payload class.
        return 5 if self.kind.carries_data else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is None:
            return "<released Message>"
        return (
            f"<{self.kind.value} {self.src}->{self.dst} blk={self.block:#x}"
            f"{' V' if self.is_validation else ''}"
            f"{' P' if self.power else ''} e{self.epoch}>"
        )
