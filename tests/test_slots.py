"""Hot-path records must stay compact: no ``__dict__`` on a per-event,
per-message, or per-attempt object.

These tests pin the memory layout of everything allocated on the
simulator's hot paths.  A refactor that silently drops ``__slots__`` (or
``slots=True`` on a dataclass) costs both memory and speed without
failing any behavioural test — this is the regression net.
"""

import dataclasses

import pytest

from repro.htm import stats as stats_mod
from repro.htm.signature import BloomSignature, PerfectSignature
from repro.htm.stats import AttemptRecord, HTMStats
from repro.htm.txstate import TxState
from repro.mem.cache import CacheLine, L1Cache
from repro.mem.memory import MainMemory, SpeculativeStore
from repro.net.messages import Message, MessageKind
from repro.net.network import Crossbar
from repro.obs import events as events_mod
from repro.obs.events import ProbeEvent
from repro.obs.probe import Probe
from repro.core.vsb import VSBEntry
from repro.mem.address import Geometry
from repro.sim.config import HTMConfig, SystemConfig
from repro.sim.engine import Engine
from repro.sim import ops as ops_mod


def assert_slotted(obj) -> None:
    assert not hasattr(obj, "__dict__"), (
        f"{type(obj).__name__} grew a __dict__ — add __slots__ "
        f"(or slots=True for dataclasses)"
    )
    # TypeError is accepted alongside AttributeError: on CPython < 3.12 a
    # frozen slots=True dataclass with inheritance raises TypeError from
    # its generated __setattr__ (the closure captures the pre-slots
    # class).  Either way, the stray attribute must be rejected.
    with pytest.raises((AttributeError, TypeError)):
        obj.attribute_that_must_not_exist = 1


class TestEngineRecords:
    def test_event_is_slotted(self):
        engine = Engine()
        event = engine.schedule(3, lambda: None)
        assert type(event) is list
        assert_slotted(event)

    def test_engine_is_slotted(self):
        assert_slotted(Engine())


class TestMessages:
    def test_message_is_slotted(self):
        assert_slotted(Message(kind=MessageKind.GETS))


class TestOps:
    @pytest.mark.parametrize(
        "op",
        [
            ops_mod.Read(0),
            ops_mod.Write(0, 1),
            ops_mod.AtomicCAS(0, 0, 1),
            ops_mod.Work(4),
            ops_mod.Abort(),
            ops_mod.Txn(lambda: None),
        ],
        ids=lambda op: type(op).__name__,
    )
    def test_ops_are_slotted(self, op):
        assert_slotted(op)


class TestMemoryRecords:
    def test_memory_and_store(self):
        memory = MainMemory(Geometry())
        assert_slotted(memory)
        assert_slotted(SpeculativeStore(memory))

    def test_cache_and_line(self):
        cache = L1Cache(SystemConfig())
        assert_slotted(cache)
        line = cache.install(0x40, "S")
        assert line is None
        assert_slotted(cache.lookup(0x40))
        assert_slotted(CacheLine(1, "S"))


class TestHtmRecords:
    def test_txstate_and_machinery(self):
        memory = MainMemory(Geometry())
        tx = TxState(core_id=0, epoch=1, memory=memory, htm=HTMConfig())
        assert_slotted(tx)
        assert_slotted(tx.pic)
        assert_slotted(tx.vsb)
        assert_slotted(tx.store)

    def test_signatures(self):
        assert_slotted(PerfectSignature())
        assert_slotted(BloomSignature(bits=64))

    def test_vsb_entry(self):
        assert_slotted(VSBEntry())

    def test_stats_dataclasses(self):
        assert_slotted(AttemptRecord())
        assert_slotted(HTMStats())

    def test_all_stats_dataclasses_declare_slots(self):
        for name in dir(stats_mod):
            cls = getattr(stats_mod, name)
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                assert "__slots__" in cls.__dict__, f"{name} lacks slots=True"


class TestProbeEvents:
    def test_every_probe_event_is_slotted(self):
        classes = [
            cls
            for name in dir(events_mod)
            if isinstance(cls := getattr(events_mod, name), type)
            and issubclass(cls, ProbeEvent)
        ]
        assert len(classes) > 10  # the taxonomy, not just the base
        for cls in classes:
            assert "__slots__" in cls.__dict__, f"{cls.__name__} lacks slots=True"

    def test_probe_event_instance(self):
        event = events_mod.MsgSent(cycle=1, src=0, dst=1)
        assert_slotted(event)
        # slots=True must not break the serialization contract.
        assert event.to_dict()["kind"] == "message"


class TestInfrastructure:
    def test_probe_is_slotted(self):
        assert_slotted(Probe())

    def test_crossbar_is_slotted(self):
        net = Crossbar(Engine(), SystemConfig(), lambda msg: None)
        assert_slotted(net)
