"""Directory-based MESI coherence (simplified, Table I: "MESI,
directory-based").

The directory tracks, per block, the exclusive owner (a core whose L1 holds
the line E/M) or a set of sharers.  Requests are processed atomically at
the directory; while a request is being resolved by a remote cache (a
forward to the owner, or an invalidation round to sharers) the block is
*busy* and later requests queue FIFO.

CHATS' key protocol property is implemented here by *omission*: when a
probed holder answers with a ``SpecResp`` it sends the directory a
``CANCEL``, and the directory simply unbusies the block — no ownership or
sharer change, exactly as Section IV-A prescribes ("the directory is
oblivious to the forwarding").

Hot-path notes: per-block state and invalidation rounds are ``__slots__``
records, and the message entry point dispatches through a dense
per-kind table (``kind.idx``) instead of an if/elif ladder.  Messages the
directory stores past their delivery callback (queued requests,
invalidation-round requests) are ``retain()``-ed so the compiled
backend's message free list never recycles them under us.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set

from .. import accel
from ..net.messages import DIRECTORY, Message, MessageKind
from ..net.network import Crossbar
from ..obs.events import DirForward, DirInvRound
from ..obs.probe import Probe
from ..sim.config import SystemConfig
from ..sim.engine import Engine
from .memory import MainMemory


class _InvRound:
    """State of an in-progress invalidation round for a GETX."""

    __slots__ = ("request", "pending", "refused")

    def __init__(self, request: Message, pending: int):
        self.request = request
        self.pending = pending
        self.refused = False


class _BlockEntry:
    """Per-block directory state: owner/sharers plus the busy/queue pair."""

    __slots__ = ("owner", "sharers", "busy", "queue", "inv_round")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.sharers: Set[int] = set()
        self.busy = False
        self.queue: Deque[Message] = deque()
        self.inv_round: Optional[_InvRound] = None


class Directory:
    """The coherence directory (co-located with the shared L3)."""

    __slots__ = (
        "_engine",
        "_config",
        "_memory",
        "_network",
        "_probe",
        "_blocks",
        "_ever_cached",
        "_handlers",
        "_Message",
        "requests",
        "forwards",
        "inv_rounds",
        "memory_fetches",
    )

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        memory: MainMemory,
        network: Crossbar,
        *,
        probe: Optional[Probe] = None,
    ):
        self._engine = engine
        self._config = config
        self._memory = memory
        self._network = network
        self._probe = probe if probe is not None else Probe()
        self._blocks: Dict[int, _BlockEntry] = {}
        self._ever_cached: Set[int] = set()
        self._Message = accel.message_factory()
        # Statistics.
        self.requests = 0
        self.forwards = 0
        self.inv_rounds = 0
        self.memory_fetches = 0
        # Dense dispatch table indexed by ``MessageKind.idx``; the
        # simulator's router calls it directly.  Kinds the directory
        # never receives hold a raiser.
        handlers = [self._unsupported] * len(MessageKind)
        handlers[MessageKind.GETS.idx] = self._handle_request
        handlers[MessageKind.GETX.idx] = self._handle_request
        handlers[MessageKind.UPGRADE.idx] = self._handle_request
        handlers[MessageKind.CANCEL.idx] = self._handle_cancel
        handlers[MessageKind.UNBLOCK.idx] = self._handle_unblock
        handlers[MessageKind.WRITEBACK.idx] = self._handle_writeback
        handlers[MessageKind.ACK.idx] = self._handle_inv_ack
        self._handlers = handlers

    # ------------------------------------------------------------------
    def _entry(self, block: int) -> _BlockEntry:
        entry = self._blocks.get(block)
        if entry is None:
            entry = _BlockEntry()
            self._blocks[block] = entry
        return entry

    def owner_of(self, block: int) -> Optional[int]:
        return self._entry(block).owner

    def sharers_of(self, block: int) -> Set[int]:
        return set(self._entry(block).sharers)

    def _fetch_latency(self, block: int) -> int:
        """L3 roundtrip for warm blocks, DRAM for cold ones."""
        if block in self._ever_cached:
            return self._config.l3_roundtrip
        self._ever_cached.add(block)
        self.memory_fetches += 1
        return self._config.memory_latency

    # ------------------------------------------------------------------
    # Message entry point.
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        self._handlers[msg.kind.idx](msg)

    def _unsupported(self, msg: Message) -> None:
        raise RuntimeError(f"directory cannot handle {msg!r}")

    def _handle_cancel(self, msg: Message) -> None:
        self._finish(msg.block)

    # ------------------------------------------------------------------
    def _handle_request(self, msg: Message) -> None:
        entry = self._entry(msg.block)
        if entry.busy or entry.queue:
            # Strict FIFO: while older requests wait, new arrivals may not
            # jump ahead (otherwise retry convoys — e.g. CAS spinners on
            # the fallback lock — starve a queued request forever).
            entry.queue.append(msg.retain())
            return
        self._process_request(entry, msg)

    def _process_request(self, entry: _BlockEntry, msg: Message) -> None:
        self.requests += 1
        if msg.kind is MessageKind.GETS:
            self._process_gets(entry, msg)
        else:
            self._process_getx(entry, msg)

    def _process_gets(self, entry: _BlockEntry, msg: Message) -> None:
        owner = entry.owner
        if owner is not None and owner != msg.src:
            entry.busy = True
            self.forwards += 1
            if self._probe._subscribers:
                self._probe.emit(
                    DirForward(
                        cycle=self._engine.now, block=msg.block, owner=owner,
                        requester=msg.src, exclusive=False,
                    )
                )
            self._network.send(
                self._forward(MessageKind.FWD_GETS, owner, msg),
                extra_delay=self._config.directory_latency,
            )
            return
        if owner == msg.src:
            # Stale self-ownership after a silent gang-invalidation.
            entry.owner = None
        self._grant_shared(entry, msg)

    def _process_getx(self, entry: _BlockEntry, msg: Message) -> None:
        owner = entry.owner
        if owner is not None and owner != msg.src:
            entry.busy = True
            self.forwards += 1
            if self._probe._subscribers:
                self._probe.emit(
                    DirForward(
                        cycle=self._engine.now, block=msg.block, owner=owner,
                        requester=msg.src, exclusive=True,
                    )
                )
            self._network.send(
                self._forward(MessageKind.FWD_GETX, owner, msg),
                extra_delay=self._config.directory_latency,
            )
            return
        if owner == msg.src:
            entry.owner = None
        others = entry.sharers - {msg.src}
        if others:
            entry.busy = True
            entry.inv_round = _InvRound(request=msg.retain(), pending=len(others))
            self.inv_rounds += 1
            if self._probe._subscribers:
                self._probe.emit(
                    DirInvRound(
                        cycle=self._engine.now, block=msg.block,
                        requester=msg.src, sharers=len(others),
                    )
                )
            for sharer in sorted(others):
                self._network.send(
                    self._forward(MessageKind.INV, sharer, msg),
                    extra_delay=self._config.directory_latency,
                )
            return
        self._grant_exclusive(entry, msg)

    def _forward(self, kind: MessageKind, dst: int, req: Message) -> Message:
        """Build a probe carrying the requester's identity and chain info."""
        return self._Message(
            kind=kind,
            src=DIRECTORY,
            dst=dst,
            block=req.block,
            requester=req.src,
            exclusive=req.kind is not MessageKind.GETS,
            pic=req.pic,
            power=req.power,
            timestamp=req.timestamp,
            epoch=req.epoch,
            req_id=req.req_id,
            can_consume=req.can_consume,
            is_validation=req.is_validation,
            non_transactional=req.non_transactional,
            req_produced=req.req_produced,
            req_consumed=req.req_consumed,
        )

    # ------------------------------------------------------------------
    def _grant_shared(self, entry: _BlockEntry, msg: Message) -> None:
        # The block stays busy until the grantee acknowledges receipt
        # ('recv' unblock): the grant travels with L3/DRAM latency and a
        # probe must not be allowed to outrun it.
        entry.sharers.add(msg.src)
        entry.busy = True
        self._network.send(
            self._Message(
                kind=MessageKind.DATA,
                src=DIRECTORY,
                dst=msg.src,
                block=msg.block,
                data=self._memory.block_value(msg.block),
                epoch=msg.epoch,
                req_id=msg.req_id,
            ),
            extra_delay=self._fetch_latency(msg.block),
        )

    def _grant_exclusive(self, entry: _BlockEntry, msg: Message) -> None:
        entry.owner = msg.src
        entry.sharers = set()
        entry.busy = True  # until the grantee's 'recv' unblock
        self._network.send(
            self._Message(
                kind=MessageKind.DATA_E,
                src=DIRECTORY,
                dst=msg.src,
                block=msg.block,
                data=self._memory.block_value(msg.block),
                epoch=msg.epoch,
                req_id=msg.req_id,
            ),
            extra_delay=self._fetch_latency(msg.block),
        )

    # ------------------------------------------------------------------
    def _handle_unblock(self, msg: Message) -> None:
        """A probed owner resolved the request; update state accordingly."""
        entry = self._entry(msg.block)
        action = msg.action
        if action == "recv":
            # Grantee confirms it received a directory-sourced response.
            self._finish(msg.block)
        elif action == "xfer":
            entry.owner = msg.requester
            entry.sharers = set()
            self._finish(msg.block)
        elif action == "downgrade":
            entry.sharers.add(msg.src)
            if msg.requester is not None:
                entry.sharers.add(msg.requester)
            entry.owner = None
            self._finish(msg.block)
        elif action in ("aborted", "not_present"):
            # The holder no longer has the block; satisfy the original
            # request from memory (non-speculative data, Section III).
            entry.owner = None
            original = self._Message(
                kind=MessageKind.GETS if not msg.exclusive else MessageKind.GETX,
                src=msg.requester,
                dst=DIRECTORY,
                block=msg.block,
                epoch=msg.epoch,
                req_id=msg.req_id,
            )
            if msg.exclusive:
                self._grant_exclusive(entry, original)
            else:
                self._grant_shared(entry, original)
            # ``original`` never travelled the network, so recycle it
            # here (the grant paths read it synchronously).
            original.release()
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"bad unblock action {action!r}")

    def _handle_writeback(self, msg: Message) -> None:
        entry = self._entry(msg.block)
        if entry.owner == msg.src:
            entry.owner = None
        # Values are already reflected in committed memory (commit-time
        # flush); the message exists for timing/flit accounting.

    def _handle_inv_ack(self, msg: Message) -> None:
        entry = self._entry(msg.block)
        round_ = entry.inv_round
        if round_ is None:
            # Ack from a stale sharer outside any round (silent eviction
            # races); nothing to do.
            return
        if msg.action == "invalidated":
            entry.sharers.discard(msg.src)
        elif msg.action == "refused":
            round_.refused = True
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"bad inv-ack action {msg.action!r}")
        round_.pending -= 1
        if round_.pending > 0:
            return
        request = round_.request
        entry.inv_round = None
        if round_.refused:
            # At least one sharer kept its copy and answered the requester
            # directly (SpecResp or NACK): no ownership change.
            self._finish(msg.block)
        else:
            self._grant_exclusive(entry, request)

    # ------------------------------------------------------------------
    def _finish(self, block: int) -> None:
        entry = self._entry(block)
        entry.busy = False
        self._drain(block)

    def _drain(self, block: int) -> None:
        entry = self._entry(block)
        if entry.busy or not entry.queue:
            return
        nxt = entry.queue.popleft()
        # Process synchronously so nothing can slip in between the pop and
        # the processing (recursion is bounded: every request either
        # busies the block or finishes by sending messages).
        self._process_request(entry, nxt)
