"""Per-core L1 controller: the meeting point of coherence and HTM.

Each core owns one :class:`L1Controller`.  It performs the core's memory
operations against the simulated machine (cache lookup, request issue,
response handling) and services incoming probes (forwards from the
directory, invalidations), where transactional conflicts are detected and
resolved through the configured :class:`~repro.systems.base.ConflictPolicy`.

Request/response bookkeeping uses per-request ids plus the transaction
attempt *epoch*: responses addressed to a dead attempt are dropped, which
is how the hardware's "ignore stale replies after rollback" behaviour is
modelled.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .. import accel
from ..htm.fallback import OwnershipTable
from ..htm.signature import FootprintOverflow
from ..htm.stats import AbortReason, HTMStats
from ..htm.txstate import TxState
from ..net.messages import DIRECTORY, Message, MessageKind
from ..net.network import Crossbar
from ..obs.events import PicUpdate, VsbInsert
from ..obs.probe import Probe
from ..sim.config import HTMConfig, SystemConfig
from ..sim.engine import Engine
from ..systems.base import ConflictPolicy
from ..systems.outcome import Resolution
from .address import Geometry
from .cache import CapacityAbort, L1Cache
from .memory import MainMemory

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Core

ValueCallback = Callable[[int], None]
MsgCallback = Callable[[Message], None]


class _Outstanding:
    """One MSHR entry: an in-flight request and its completion context.

    A ``__slots__`` record — one is allocated per coherence request, so
    it must stay a single compact allocation with no ``__dict__``.
    """

    __slots__ = (
        "block",
        "exclusive",
        "transactional",
        "epoch",
        "is_validation",
        "on_value",
        "on_message",
        "write_value",
        "addr",
        "cas",
    )

    def __init__(
        self,
        block: int,
        exclusive: bool,
        transactional: bool,
        epoch: int,
        is_validation: bool,
        # Exactly one of the two callbacks is set.
        on_value: Optional[ValueCallback] = None,
        on_message: Optional[MsgCallback] = None,
        # Pending non-transactional side effects applied at completion.
        write_value: Optional[int] = None,
        addr: int = 0,
        cas: Optional[tuple] = None,  # (expect, new)
    ):
        self.block = block
        self.exclusive = exclusive
        self.transactional = transactional
        self.epoch = epoch
        self.is_validation = is_validation
        self.on_value = on_value
        self.on_message = on_message
        self.write_value = write_value
        self.addr = addr
        self.cas = cas


class L1Controller:
    """Coherence + HTM endpoint for one core."""

    __slots__ = (
        "core_id",
        "_engine",
        "_config",
        "_htm",
        "_geometry",
        "_memory",
        "_network",
        "_policy",
        "_stats",
        "_lock_block",
        "_probe",
        "_orecs",
        "cache",
        "_outstanding",
        "_handlers",
        "core",
        "_forwards",
        "_block_of",
        "_hit_latency",
        "_send",
        "_schedule",
        "_Message",
    )

    _req_ids = itertools.count(1)

    def __init__(
        self,
        core_id: int,
        engine: Engine,
        config: SystemConfig,
        htm: HTMConfig,
        geometry: Geometry,
        memory: MainMemory,
        network: Crossbar,
        policy: ConflictPolicy,
        stats: HTMStats,
        lock_block: int,
        probe: Optional[Probe] = None,
        orecs: Optional[OwnershipTable] = None,
    ):
        self.core_id = core_id
        self._engine = engine
        self._config = config
        self._htm = htm
        self._geometry = geometry
        self._memory = memory
        self._network = network
        self._policy = policy
        self._stats = stats
        self._lock_block = lock_block
        self._probe = probe if probe is not None else Probe()
        # Hybrid-fallback systems only: the shared ownership-record table
        # hardware transactions must check on every access.  ``None`` for
        # every other system, keeping their access paths untouched.
        self._orecs = orecs
        self.cache = L1Cache(config)
        self._outstanding: Dict[int, _Outstanding] = {}
        # Hot-path constants/bound methods: the spec's forwarding hook
        # (derived from its conflict layer), the address→block map, the
        # L1 hit latency, the network injector and the engine scheduler
        # are all invariant after construction.
        self._forwards = htm.system.forwards
        self._block_of = geometry.block_of
        self._hit_latency = config.l1_hit_latency
        self._send = network.send
        self._schedule = engine.schedule
        self._Message = accel.message_factory()
        #: Set lazily by the simulator after cores are built.
        self.core: "Core" = None  # type: ignore[assignment]
        # Dense dispatch table indexed by ``MessageKind.idx``; the
        # simulator's router calls it directly.  Kinds an L1 never
        # receives hold a raiser.
        handlers: List[Callable[[Message], None]] = (
            [self._unsupported] * len(MessageKind)
        )
        handlers[MessageKind.FWD_GETS.idx] = self._handle_forwarded_probe
        handlers[MessageKind.FWD_GETX.idx] = self._handle_forwarded_probe
        handlers[MessageKind.INV.idx] = self._handle_inv
        handlers[MessageKind.DATA.idx] = self._handle_response
        handlers[MessageKind.DATA_E.idx] = self._handle_response
        handlers[MessageKind.SPEC_RESP.idx] = self._handle_response
        handlers[MessageKind.NACK.idx] = self._handle_response
        self._handlers = handlers

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------
    def _tx(self) -> Optional[TxState]:
        core = self.core
        tx = core.tx if core is not None else None
        if tx is not None and tx.active:
            return tx
        return None

    def has_inflight_exclusive(self, block: int) -> bool:
        """Rrestrict/W heuristic probe: is a local write to ``block``
        in flight or imminent?  Covers both an outstanding exclusive
        request and the store-address prediction from earlier attempts of
        the same transaction."""
        if any(
            o.exclusive and o.block == block and not o.is_validation
            for o in self._outstanding.values()
        ):
            return True
        return self.core is not None and self.core.write_predicted(block)

    def _send_request(
        self,
        kind: MessageKind,
        block: int,
        out: _Outstanding,
        *,
        non_transactional: bool = False,
        is_validation: bool = False,
    ) -> int:
        req_id = next(self._req_ids)
        self._outstanding[req_id] = out
        tx = self._tx() if not non_transactional else None
        msg = self._Message(
            kind=kind,
            src=self.core_id,
            dst=DIRECTORY,
            block=block,
            epoch=out.epoch,
            req_id=req_id,
            non_transactional=non_transactional,
            is_validation=is_validation,
        )
        if tx is not None:
            msg.pic = tx.pic.value
            msg.power = tx.power
            msg.timestamp = tx.timestamp
            msg.req_produced = tx.levc_has_produced
            msg.req_consumed = tx.levc_has_consumed
            msg.can_consume = is_validation or (
                self._forwards and not tx.power and not tx.vsb.full
            )
        else:
            msg.can_consume = False
        self._send(msg)
        return req_id

    def _abort_capacity(self, tx: TxState, block: int) -> None:
        self.core.abort_tx(AbortReason.CAPACITY, block=block)

    def _check_orec(self, block: int) -> bool:
        """Hybrid instrumentation: a hardware transaction touching a block
        owned by another core's software slow path must abort (the slow
        path holds the record until its redo log is published, so reading
        around it would see a half-committed transaction).  Returns True
        when the access killed the attempt."""
        owner = self._orecs.owner(block)
        if owner is not None and owner != self.core_id:
            self.core.abort_tx(
                AbortReason.HYBRID, src=owner, block=block
            )
            return True
        return False

    def _install(self, block: int, state: str, **flags) -> bool:
        """Install a line; on a capacity abort of the running transaction
        returns False (the caller's operation dies with the attempt)."""
        try:
            victim = self.cache.install(block, state, **flags)
        except CapacityAbort:
            tx = self._tx()
            if tx is not None:
                self._abort_capacity(tx, block)
                return False
            raise
        if victim is not None and victim.state in ("E", "M"):
            # Notify the directory for owned victims so it does not keep
            # forwarding to us; shared victims are evicted silently.
            self._send(
                self._Message(
                    kind=MessageKind.WRITEBACK,
                    src=self.core_id,
                    dst=DIRECTORY,
                    block=victim.block,
                    data=self._memory.block_value(victim.block),
                )
            )
        return True

    # ------------------------------------------------------------------
    # Transactional operations (called by the core driver).
    # ------------------------------------------------------------------
    def tx_read(self, tx: TxState, addr: int, callback: ValueCallback) -> None:
        block = self._block_of(addr)
        if self._orecs is not None and self._check_orec(block):
            return  # hybrid slow-path owner: the attempt just died
        try:
            tx.track_read(block)
        except FootprintOverflow:
            self._abort_capacity(tx, block)
            return
        line = self.cache.lookup(block)
        if line is not None:
            self._schedule(self._hit_latency, callback, tx.store.read_word(addr))
            return
        out = _Outstanding(
            block=block,
            exclusive=False,
            transactional=True,
            epoch=tx.epoch,
            is_validation=False,
            on_value=callback,
            addr=addr,
        )
        self._send_request(MessageKind.GETS, block, out)

    def tx_write(
        self, tx: TxState, addr: int, value: int, callback: ValueCallback
    ) -> None:
        block = self._block_of(addr)
        if self._orecs is not None and self._check_orec(block):
            return  # hybrid slow-path owner: the attempt just died
        try:
            tx.track_write(block)
        except FootprintOverflow:
            self._abort_capacity(tx, block)
            return
        tx.store.write_word(addr, value)
        line = self.cache.lookup(block)
        if line is not None and line.state in ("E", "M"):
            line.state = "M"
            if not line.speculative:
                self.cache.mark_speculative(block)
            self._schedule(self._hit_latency, callback, 0)
            return
        out = _Outstanding(
            block=block,
            exclusive=True,
            transactional=True,
            epoch=tx.epoch,
            is_validation=False,
            on_value=callback,
            addr=addr,
        )
        kind = MessageKind.UPGRADE if line is not None else MessageKind.GETX
        self._send_request(kind, block, out)

    def issue_validation(
        self, tx: TxState, block: int, callback: MsgCallback
    ) -> None:
        """Validation controller path: exclusive re-request of a VSB block."""
        out = _Outstanding(
            block=block,
            exclusive=True,
            transactional=True,
            epoch=tx.epoch,
            is_validation=True,
            on_message=callback,
        )
        self._send_request(MessageKind.GETX, block, out, is_validation=True)

    # ------------------------------------------------------------------
    # Non-transactional operations.
    # ------------------------------------------------------------------
    def nontx_read(self, addr: int, callback: ValueCallback) -> None:
        block = self._block_of(addr)
        line = self.cache.lookup(block)
        if line is not None:
            self._schedule(
                self._hit_latency, callback, self._memory.read_word(addr)
            )
            return
        out = _Outstanding(
            block=block,
            exclusive=False,
            transactional=False,
            epoch=0,
            is_validation=False,
            on_value=callback,
            addr=addr,
        )
        self._send_request(MessageKind.GETS, block, out, non_transactional=True)

    def nontx_write(self, addr: int, value: int, callback: ValueCallback) -> None:
        block = self._block_of(addr)
        line = self.cache.lookup(block)
        if line is not None and line.state in ("E", "M") and not line.speculative:
            line.state = "M"
            self._memory.write_word(addr, value)
            self._schedule(self._hit_latency, callback, 0)
            return
        out = _Outstanding(
            block=block,
            exclusive=True,
            transactional=False,
            epoch=0,
            is_validation=False,
            on_value=callback,
            addr=addr,
            write_value=value,
        )
        self._send_request(MessageKind.GETX, block, out, non_transactional=True)

    def nontx_cas(
        self, addr: int, expect: int, new: int, callback: ValueCallback
    ) -> None:
        block = self._block_of(addr)
        line = self.cache.lookup(block)
        if line is not None and line.state in ("E", "M") and not line.speculative:
            observed = self._memory.read_word(addr)
            if observed == expect:
                self._memory.write_word(addr, new)
            self._schedule(self._hit_latency, callback, observed)
            return
        out = _Outstanding(
            block=block,
            exclusive=True,
            transactional=False,
            epoch=0,
            is_validation=False,
            on_value=callback,
            addr=addr,
            cas=(expect, new),
        )
        self._send_request(MessageKind.GETX, block, out, non_transactional=True)

    # ------------------------------------------------------------------
    # Incoming message dispatch.
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        self._handlers[msg.kind.idx](msg)

    def _unsupported(self, msg: Message) -> None:
        raise RuntimeError(f"L1 {self.core_id} cannot handle {msg!r}")

    # -- Holder side: probes -------------------------------------------
    def _handle_forwarded_probe(self, msg: Message) -> None:
        block = msg.block
        line = self.cache.peek(block)
        if line is None or line.state not in ("E", "M"):
            # Stale ownership (gang invalidation, silent eviction, or a
            # dropped grant raced with this probe): drop any stale shared
            # copy and let the directory heal from memory.
            self.cache.invalidate(block)
            self._unblock(msg, "not_present")
            return
        tx = self._tx()
        exclusive = msg.kind is MessageKind.FWD_GETX
        conflict = tx is not None and (
            tx.conflicts_with_read(block) if exclusive else tx.conflicts_with_write(block)
        )
        if conflict:
            self._resolve_conflict(tx, msg, invalidate_on_abort=True)
            return
        # Plain MESI service.
        data = self._memory.block_value(block)
        if exclusive:
            self.cache.invalidate(block)
            self._respond_data(msg, MessageKind.DATA_E, data)
            self._unblock(msg, "xfer")
        else:
            line.state = "S"
            self._respond_data(msg, MessageKind.DATA, data)
            self._unblock(msg, "downgrade")

    def _handle_inv(self, msg: Message) -> None:
        block = msg.block
        tx = self._tx()
        conflict = tx is not None and tx.conflicts_with_read(block)
        if conflict:
            self._resolve_conflict(tx, msg, invalidate_on_abort=True, via_inv=True)
            return
        self.cache.invalidate(block)
        self._ack_inv(msg, "invalidated")

    def _resolve_conflict(
        self,
        tx: TxState,
        msg: Message,
        *,
        invalidate_on_abort: bool,
        via_inv: bool = False,
    ) -> None:
        """Apply the conflict policy as the holder of ``msg.block``."""
        pic_before = tx.pic.value
        outcome = self._policy.resolve(tx, msg, self.has_inflight_exclusive)
        if outcome.resolution is Resolution.FORWARD_SPEC:
            tx.mark_forwarded()
            self._stats.spec_forwards += 1
            if self._probe._subscribers and tx.pic.value != pic_before:
                self._probe.emit(
                    PicUpdate(
                        cycle=self._engine.now, core=self.core_id,
                        value=tx.pic.value, source="forward",
                    )
                )
            self._send(
                self._Message(
                    kind=MessageKind.SPEC_RESP,
                    src=self.core_id,
                    dst=msg.requester,
                    block=msg.block,
                    data=tx.store.block_value(msg.block),
                    pic=outcome.message_pic,
                    power=outcome.from_power,
                    epoch=msg.epoch,
                    req_id=msg.req_id,
                )
            )
            if via_inv:
                self._ack_inv(msg, "refused")
            else:
                self._cancel(msg)
            return
        if outcome.resolution is Resolution.NACK:
            tx.mark_conflicted()
            self._send(
                self._Message(
                    kind=MessageKind.NACK,
                    src=self.core_id,
                    dst=msg.requester,
                    block=msg.block,
                    epoch=msg.epoch,
                    req_id=msg.req_id,
                )
            )
            if via_inv:
                self._ack_inv(msg, "refused")
            else:
                self._cancel(msg)
            return
        # Requester-wins: the holder's transaction dies.
        tx.mark_conflicted()
        reason = outcome.abort_reason
        if msg.block == self._lock_block:
            reason = AbortReason.LOCK
        elif msg.power and reason is AbortReason.CONFLICT:
            reason = AbortReason.POWER
        elif (
            reason is AbortReason.CONFLICT
            and msg.non_transactional
            and self._orecs is not None
            and self._orecs.in_slowpath(msg.requester)
        ):
            # The requester is a hybrid software slow path (reading a
            # block it is about to own, or publishing its redo log): the
            # same cause as a failed orec check, so classify it alike.
            reason = AbortReason.HYBRID
        self.core.abort_tx(reason, src=msg.requester, block=msg.block)
        # Gang invalidation dropped the SM lines, but the probed block may
        # be cached *non-speculatively* (e.g. the fallback lock block, or a
        # block owned before the transaction began).  The directory will
        # hand it to the requester from memory, so our copy must go too.
        self.cache.invalidate(msg.block)
        if via_inv:
            self._ack_inv(msg, "invalidated")
        else:
            # The directory supplies non-speculative data from memory.
            self._unblock(msg, "aborted")

    def _respond_data(self, probe: Message, kind: MessageKind, data) -> None:
        self._send(
            self._Message(
                kind=kind,
                src=self.core_id,
                dst=probe.requester,
                block=probe.block,
                data=data,
                epoch=probe.epoch,
                req_id=probe.req_id,
            )
        )

    def _unblock(self, probe: Message, action: str) -> None:
        self._send(
            self._Message(
                kind=MessageKind.UNBLOCK,
                src=self.core_id,
                dst=DIRECTORY,
                block=probe.block,
                requester=probe.requester,
                exclusive=probe.exclusive,
                epoch=probe.epoch,
                req_id=probe.req_id,
                action=action,
            )
        )

    def _cancel(self, probe: Message) -> None:
        self._send(
            self._Message(
                kind=MessageKind.CANCEL,
                src=self.core_id,
                dst=DIRECTORY,
                block=probe.block,
                requester=probe.requester,
                epoch=probe.epoch,
                req_id=probe.req_id,
            )
        )

    def _ack_inv(self, probe: Message, action: str) -> None:
        self._send(
            self._Message(
                kind=MessageKind.ACK,
                src=self.core_id,
                dst=DIRECTORY,
                block=probe.block,
                requester=probe.requester,
                epoch=probe.epoch,
                req_id=probe.req_id,
                action=action,
            )
        )

    # -- Requester side: responses --------------------------------------
    def _handle_response(self, msg: Message) -> None:
        if msg.src == DIRECTORY and msg.kind in (
            MessageKind.DATA,
            MessageKind.DATA_E,
        ):
            # Directory-sourced grants keep the block busy until this
            # acknowledgement — sent unconditionally, even for responses
            # addressed to a rolled-back attempt.
            self._send(
                self._Message(
                    kind=MessageKind.UNBLOCK,
                    src=self.core_id,
                    dst=DIRECTORY,
                    block=msg.block,
                    action="recv",
                )
            )
        out = self._outstanding.pop(msg.req_id, None)
        if out is None:
            return  # duplicate response (e.g. two refusing sharers)
        if out.transactional:
            tx = self._tx()
            if tx is None or tx.epoch != out.epoch:
                # Response to a rolled-back attempt.  The sender may have
                # recorded us as owner/sharer, but we will not install the
                # line — drop any older cached copy too, so no read can hit
                # a line the directory no longer associates with us (the
                # next probe heals the directory via 'not_present').
                if msg.kind in (MessageKind.DATA, MessageKind.DATA_E):
                    self.cache.invalidate(msg.block)
                if (
                    msg.kind is MessageKind.DATA_E
                    and tx is not None
                    and (tx.reads(msg.block) or tx.writes(msg.block))
                ):
                    # The stale exclusive grant erased our sharer record at
                    # the directory, so invalidations for this block will
                    # no longer reach us — yet the *current* attempt has
                    # already read it.  Its isolation can no longer be
                    # policed; it must roll back.  (A directory race, not
                    # another core's action: no ``src`` to attribute.)
                    self.core.abort_tx(AbortReason.CONFLICT, block=msg.block)
                return
            if out.is_validation:
                self._complete_validation(tx, out, msg)
            else:
                self._complete_tx_request(tx, out, msg)
        else:
            self._complete_nontx_request(out, msg)

    def _complete_tx_request(
        self, tx: TxState, out: _Outstanding, msg: Message
    ) -> None:
        if msg.kind is MessageKind.NACK:
            # Requester-stall: retry the access later (Power/LEVC holders).
            self._engine.schedule(
                self._htm.nack_retry_delay, self._retry_tx_request, tx.epoch, out
            )
            return
        if msg.kind is MessageKind.SPEC_RESP:
            self._consume_spec_resp(tx, out, msg)
            return
        # Ordinary data response.
        state = "E" if msg.kind is MessageKind.DATA_E else "S"
        if out.exclusive:
            state = "M"
        if not self._install(out.block, state, speculative=out.exclusive):
            return  # capacity abort killed the attempt
        assert out.on_value is not None
        out.on_value(tx.store.read_word(out.addr))

    def _retry_tx_request(self, epoch: int, out: _Outstanding) -> None:
        tx = self._tx()
        if tx is None or tx.epoch != epoch:
            return
        kind = MessageKind.GETX if out.exclusive else MessageKind.GETS
        self._send_request(kind, out.block, out)

    def _consume_spec_resp(
        self, tx: TxState, out: _Outstanding, msg: Message
    ) -> None:
        """Accept speculative data: VSB copy, cache insert into the write
        set, PiC adoption (Sections III-A and IV-A)."""
        assert msg.data is not None
        if not tx.vsb.insert(out.block, msg.data):
            # VSB full (a race slipped past the can_consume advertisement):
            # we cannot use the hint; retry the plain request later.
            self._engine.schedule(
                self._htm.nack_retry_delay, self._retry_tx_request, tx.epoch, out
            )
            return
        occupancy = tx.vsb.occupancy()
        if occupancy > self._stats.vsb_high_water:
            self._stats.vsb_high_water = occupancy
        tx.store.install_received_block(out.block, msg.data)
        try:
            tx.track_write(out.block)
        except FootprintOverflow:
            self._abort_capacity(tx, out.block)
            return
        tx.mark_consumed()
        pic_before = tx.pic.value
        tx.pic.adopt_from_spec_resp(msg.pic)
        if self._probe._subscribers:
            self._probe.emit(
                VsbInsert(
                    cycle=self._engine.now, core=self.core_id,
                    block=out.block, occupancy=occupancy,
                )
            )
            if tx.pic.value != pic_before:
                self._probe.emit(
                    PicUpdate(
                        cycle=self._engine.now, core=self.core_id,
                        value=tx.pic.value, source="adopt",
                    )
                )
        if not self._install(
            out.block, "M", speculative=True, spec_received=True
        ):
            return  # capacity abort
        self.core.validation.arm(tx)
        assert out.on_value is not None
        out.on_value(tx.store.read_word(out.addr))

    def _complete_validation(
        self, tx: TxState, out: _Outstanding, msg: Message
    ) -> None:
        if msg.kind is MessageKind.DATA_E:
            # We are now the genuine owner of the block.
            line = self.cache.peek(out.block)
            if line is not None:
                line.state = "M"
                line.spec_received = False
            else:
                # The line must still be cached (it is SM write-set data);
                # a missing line means the attempt already died.
                return
        assert out.on_message is not None
        out.on_message(msg)

    def _complete_nontx_request(self, out: _Outstanding, msg: Message) -> None:
        if msg.kind is MessageKind.NACK:
            self._engine.schedule(
                self._htm.nack_retry_delay, self._retry_nontx_request, out
            )
            return
        if msg.kind is MessageKind.SPEC_RESP:  # pragma: no cover - forbidden
            raise RuntimeError("speculative response to a non-transactional request")
        result = 0
        if out.cas is not None:
            expect, new = out.cas
            result = self._memory.read_word(out.addr)
            if result == expect:
                self._memory.write_word(out.addr, new)
            self._install(out.block, "M")
        elif out.write_value is not None:
            self._memory.write_word(out.addr, out.write_value)
            self._install(out.block, "M")
        else:
            result = self._memory.read_word(out.addr)
            self._install(out.block, "E" if msg.kind is MessageKind.DATA_E else "S")
        assert out.on_value is not None
        out.on_value(result)

    def _retry_nontx_request(self, out: _Outstanding) -> None:
        kind = MessageKind.GETX if out.exclusive else MessageKind.GETS
        self._send_request(kind, out.block, out, non_transactional=True)
