"""Unit tests for messages and the crossbar interconnect."""

from repro.net.messages import DIRECTORY, Message, MessageKind
from repro.net.network import Crossbar
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine


class TestMessageKinds:
    def test_data_carrying_kinds(self):
        carrying = {k for k in MessageKind if k.carries_data}
        assert carrying == {
            MessageKind.DATA,
            MessageKind.DATA_E,
            MessageKind.SPEC_RESP,
            MessageKind.WRITEBACK,
        }

    def test_flit_classification(self):
        data = Message(kind=MessageKind.SPEC_RESP, src=0, dst=1, block=1)
        ctrl = Message(kind=MessageKind.GETS, src=0, dst=DIRECTORY, block=1)
        assert data.flits == 5
        assert ctrl.flits == 1


class TestCrossbar:
    def _net(self):
        engine = Engine()
        delivered = []
        # Retain on capture: the crossbar recycles delivered messages.
        net = Crossbar(
            engine, SystemConfig(), lambda m: delivered.append(m.retain())
        )
        return engine, net, delivered

    def test_delivery_after_link_latency(self):
        engine, net, delivered = self._net()
        net.send(Message(kind=MessageKind.GETS, src=0, dst=1, block=1))
        assert delivered == []
        engine.run()
        assert len(delivered) == 1
        assert engine.now == 1  # Table I: single-cycle crossbar

    def test_extra_delay(self):
        engine, net, delivered = self._net()
        net.send(
            Message(kind=MessageKind.DATA, src=DIRECTORY, dst=1, block=1),
            extra_delay=30,
        )
        engine.run()
        assert engine.now == 31

    def test_flit_accounting(self):
        engine, net, _ = self._net()
        net.send(Message(kind=MessageKind.GETS, src=0, dst=-1, block=1))
        net.send(Message(kind=MessageKind.DATA, src=-1, dst=0, block=1))
        stats = net.stats()
        assert stats["messages"] == 2
        assert stats["flits"] == 6  # 1 control + 5 data
        assert stats["control_flits"] == 1
        assert stats["data_flits"] == 5

    def test_spec_resp_flits_tracked(self):
        engine, net, _ = self._net()
        net.send(Message(kind=MessageKind.SPEC_RESP, src=0, dst=1, block=1))
        assert net.stats()["spec_resp_flits"] == 5

    def test_fifo_between_same_pair(self):
        engine, net, delivered = self._net()
        for i in range(5):
            net.send(Message(kind=MessageKind.GETS, src=0, dst=1, block=i))
        engine.run()
        assert [m.block for m in delivered] == list(range(5))
