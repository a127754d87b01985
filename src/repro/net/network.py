"""Crossbar interconnect model.

The paper's machine uses a single-cycle crossbar (Table I).  We model it as
a fixed per-hop latency and count flits per message class for Fig. 7.  The
network never reorders messages between the same (src, dst) pair: ties in
delivery time are broken by send order via the engine's FIFO tie-break.

``send`` is one of the two hottest functions in the simulator (with
``Engine.run``), so the per-message work is precomputed: flit counts are
bound at construction, per-kind accounting indexes a dense list via
``kind.idx`` instead of hashing enum members, and the deliver callback is
scheduled directly (no wrapper frame).  The *deliver callback* is the
simulator's router, which hands each message straight to the receiver's
per-kind handler (and, under the compiled backend, returns the pooled C
message to its free list unless the handler retained it).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Optional

from .. import accel
from ..obs.events import MsgSent, SpecForward
from ..obs.probe import Probe
from ..sim.config import SystemConfig
from ..sim.engine import Engine
from .messages import Message, MessageKind


class Crossbar:
    """Delivers messages after ``link_latency`` cycles and accounts flits.

    ``send`` is an *instance* slot, bound at construction to either the
    pure-Python implementation or — when the compiled backend is active
    and the engine is the compiled one — to the C ``SendCore``'s send,
    which keeps the flit accounting, probe gate, and delivery schedule
    entirely in C.  Counter reads (``stats``/``flits_by_kind``) are
    transparent to the choice.
    """

    __slots__ = (
        "_engine",
        "_config",
        "_deliver",
        "_probe",
        "_schedule",
        "_data_flits",
        "_control_flits",
        "_link_latency",
        "flits_sent",
        "messages_sent",
        "_flits_by_idx",
        "send",
        "_sendcore",
    )

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        deliver: Callable[[Message], None],
        *,
        probe: Optional[Probe] = None,
    ):
        self._engine = engine
        self._config = config
        self._deliver = deliver
        self._probe = probe if probe is not None else Probe()
        self._schedule = engine.schedule
        self._data_flits = config.data_message_flits
        self._control_flits = config.control_message_flits
        self._link_latency = config.link_latency
        self.flits_sent: int = 0
        self.messages_sent: int = 0
        self._flits_by_idx = [0] * len(MessageKind)
        core = accel.hotcore()
        if core is not None and isinstance(engine, core.Engine):
            self._sendcore = core.SendCore(
                engine=engine,
                deliver=deliver,
                probe=self._probe,
                emit_hook=self._emit_traced,
                link_latency=self._link_latency,
                data_flits=self._data_flits,
                control_flits=self._control_flits,
            )
            self.send = self._sendcore.send
        else:
            self._sendcore = None
            self.send = self._send_python

    def finalize_deliver(self, deliver: Callable[[Message], None]) -> None:
        """Rebind the delivery callback once the handler tables exist.

        The crossbar is constructed before the L1s and directory, so the
        simulator wires the real router (the compiled dense router, or
        its own ``_route``) here.
        """
        self._deliver = deliver
        if self._sendcore is not None:
            self._sendcore.set_deliver(deliver)

    def _counters(self):
        """(flits_sent, messages_sent, per-kind flit list) — whichever
        side of the backend actually counted."""
        core = self._sendcore
        if core is None:
            return self.flits_sent, self.messages_sent, self._flits_by_idx
        return core.flits_sent, core.messages_sent, core.flits_list()

    @property
    def flits_by_kind(self) -> Counter:
        """Per-kind flit totals (Counter keyed by :class:`MessageKind`)."""
        _, _, by_idx = self._counters()
        return Counter(
            {
                kind: by_idx[kind.idx]
                for kind in MessageKind
                if by_idx[kind.idx]
            }
        )

    def _emit_traced(self, msg: Message) -> None:
        """Probe emission for a traced send (the compiled send calls
        this only when subscribers exist, mirroring the Python gate)."""
        kind = msg.kind
        now = self._engine.now
        probe = self._probe
        probe.emit(
            MsgSent(
                cycle=now,
                src=msg.src,
                dst=msg.dst,
                msg_kind=kind.value,
                block=msg.block,
                pic=msg.pic,
                power=msg.power,
                is_validation=msg.is_validation,
                non_transactional=msg.non_transactional,
                action=msg.action,
            )
        )
        if kind is MessageKind.SPEC_RESP:
            probe.emit(
                SpecForward(
                    cycle=now,
                    producer=msg.src,
                    consumer=msg.dst,
                    block=msg.block,
                    pic=msg.pic,
                )
            )

    def _send_python(self, msg: Message, *, extra_delay: int = 0) -> None:
        """Inject ``msg``; it is delivered after the link latency."""
        kind = msg.kind
        flits = self._data_flits if kind.carries_data else self._control_flits
        self.flits_sent += flits
        self.messages_sent += 1
        self._flits_by_idx[kind.idx] += flits
        probe = self._probe
        if probe._subscribers:
            now = self._engine.now
            probe.emit(
                MsgSent(
                    cycle=now,
                    src=msg.src,
                    dst=msg.dst,
                    msg_kind=kind.value,
                    block=msg.block,
                    pic=msg.pic,
                    power=msg.power,
                    is_validation=msg.is_validation,
                    non_transactional=msg.non_transactional,
                    action=msg.action,
                )
            )
            if kind is MessageKind.SPEC_RESP:
                probe.emit(
                    SpecForward(
                        cycle=now,
                        producer=msg.src,
                        consumer=msg.dst,
                        block=msg.block,
                        pic=msg.pic,
                    )
                )
        if extra_delay:
            self._schedule(self._link_latency + extra_delay, self._deliver, msg)
        else:
            self._schedule(self._link_latency, self._deliver, msg)

    def stats(self) -> Dict[str, int]:
        validation_kinds = (MessageKind.GETX, MessageKind.SPEC_RESP)
        flits_sent, messages_sent, by_idx = self._counters()
        return {
            "flits": flits_sent,
            "messages": messages_sent,
            "data_flits": sum(
                by_idx[kind.idx] for kind in MessageKind if kind.carries_data
            ),
            "control_flits": sum(
                by_idx[kind.idx] for kind in MessageKind if not kind.carries_data
            ),
            "spec_resp_flits": by_idx[MessageKind.SPEC_RESP.idx],
            "_validation_kinds": sum(
                by_idx[kind.idx] for kind in validation_kinds
            ),
        }
