"""Unit tests for the six conflict-resolution policies.

Each test constructs a holder transaction state and a conflicting probe
message directly and checks the decision matrix of Section VI-B.
"""

import pytest

from repro.htm.stats import AbortReason
from repro.htm.txstate import TxState
from repro.mem.address import Geometry
from repro.mem.memory import MainMemory
from repro.net.messages import Message, MessageKind
from repro.sim.config import ForwardClass, SystemKind, table2_config
from repro.systems.compose import make_policy
from repro.systems.conflict import BaselineRW
from repro.systems.outcome import Resolution

BLOCK = 42


def holder_tx(
    memory,
    *,
    system=SystemKind.CHATS,
    wrote=True,
    read=False,
    pic=None,
    cons=False,
    power=False,
    timestamp=None,
):
    tx = TxState(
        core_id=0,
        epoch=1,
        memory=memory,
        htm=table2_config(system),
        power=power,
        timestamp=timestamp,
    )
    if wrote:
        tx.track_write(BLOCK)
    if read:
        tx.track_read(BLOCK)
    tx.pic.value = pic
    tx.pic.cons = cons
    return tx


def probe(
    *,
    pic=None,
    power=False,
    can_consume=True,
    non_transactional=False,
    timestamp=None,
    req_produced=False,
    req_consumed=False,
):
    return Message(
        kind=MessageKind.FWD_GETX,
        src=-1,
        dst=0,
        block=BLOCK,
        requester=1,
        exclusive=True,
        pic=pic,
        power=power,
        can_consume=can_consume,
        non_transactional=non_transactional,
        timestamp=timestamp,
        req_produced=req_produced,
        req_consumed=req_consumed,
    )


def no_inflight(block):
    return False


@pytest.fixture
def mem():
    return MainMemory(Geometry())


class TestBaseline:
    def test_always_requester_wins(self, mem):
        policy = make_policy(table2_config(SystemKind.BASELINE))
        assert isinstance(policy, BaselineRW)
        out = policy.resolve(holder_tx(mem, system=SystemKind.BASELINE), probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.CONFLICT


class TestNaive:
    def policy(self):
        return make_policy(table2_config(SystemKind.NAIVE_RS))

    def test_forwards_without_restrictions(self, mem):
        out = self.policy().resolve(
            holder_tx(mem, system=SystemKind.NAIVE_RS), probe(), no_inflight
        )
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic is None  # naive carries no PiC

    def test_non_transactional_requests_always_win(self, mem):
        out = self.policy().resolve(
            holder_tx(mem, system=SystemKind.NAIVE_RS),
            probe(non_transactional=True),
            no_inflight,
        )
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_requester_without_vsb_slot(self, mem):
        out = self.policy().resolve(
            holder_tx(mem, system=SystemKind.NAIVE_RS),
            probe(can_consume=False),
            no_inflight,
        )
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_validation_budget_exhaustion(self, mem):
        policy = self.policy()
        tx = holder_tx(mem, system=SystemKind.NAIVE_RS)
        tx.naive_budget = 2
        assert policy.on_unsuccessful_validation(tx) is None
        assert policy.on_unsuccessful_validation(tx) is AbortReason.NAIVE_LIMIT

    def test_successful_validation_resets_budget(self, mem):
        policy = self.policy()
        tx = holder_tx(mem, system=SystemKind.NAIVE_RS)
        tx.naive_budget = 1
        policy.on_successful_validation(tx)
        assert tx.naive_budget == 16


class TestCHATSPolicy:
    def policy(self):
        return make_policy(table2_config(SystemKind.CHATS))

    def test_forward_unchained_pair(self, mem):
        tx = holder_tx(mem)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic == 15
        assert tx.pic.value == 15  # holder anchored at PiC_init

    def test_requester_wins_on_cycle_risk(self, mem):
        tx = holder_tx(mem, pic=10, cons=True)
        out = self.policy().resolve(tx, probe(pic=12), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.CYCLE

    def test_forward_to_lower_pic(self, mem):
        tx = holder_tx(mem, pic=10, cons=True)
        out = self.policy().resolve(tx, probe(pic=5), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic == 10

    def test_spec_received_block_never_forwarded(self, mem):
        tx = holder_tx(mem)
        tx.vsb.insert(BLOCK, (0,) * 8)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.CONFLICT

    def test_heuristic_blocks_read_set_with_pending_write(self, mem):
        tx = holder_tx(mem, wrote=False, read=True)
        out = self.policy().resolve(tx, probe(), lambda b: b == BLOCK)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_written_block_forwards_despite_heuristic(self, mem):
        tx = holder_tx(mem, wrote=True)
        out = self.policy().resolve(tx, probe(), lambda b: b == BLOCK)
        assert out.resolution is Resolution.FORWARD_SPEC

    def test_w_class_refuses_read_only_blocks(self, mem):
        htm = table2_config(SystemKind.CHATS).replace(forward_class=ForwardClass.W)
        policy = make_policy(htm)
        tx = holder_tx(mem, wrote=False, read=True)
        out = policy.resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_rw_class_forwards_read_only_blocks(self, mem):
        htm = table2_config(SystemKind.CHATS).replace(forward_class=ForwardClass.RW)
        policy = make_policy(htm)
        tx = holder_tx(mem, wrote=False, read=True)
        out = policy.resolve(tx, probe(), lambda b: True)  # heuristic off
        assert out.resolution is Resolution.FORWARD_SPEC


class TestPowerPolicy:
    def policy(self):
        return make_policy(table2_config(SystemKind.POWER))

    def test_power_holder_nacks(self, mem):
        tx = holder_tx(mem, system=SystemKind.POWER, power=True)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.NACK

    def test_power_requester_wins(self, mem):
        tx = holder_tx(mem, system=SystemKind.POWER)
        out = self.policy().resolve(tx, probe(power=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.POWER

    def test_plain_conflicts_use_requester_wins(self, mem):
        tx = holder_tx(mem, system=SystemKind.POWER)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_non_tx_beats_power_holder(self, mem):
        tx = holder_tx(mem, system=SystemKind.POWER, power=True)
        out = self.policy().resolve(tx, probe(non_transactional=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL


class TestPCHATSPolicy:
    def policy(self):
        return make_policy(table2_config(SystemKind.PCHATS))

    def test_power_holder_forwards_without_pic(self, mem):
        tx = holder_tx(mem, system=SystemKind.PCHATS, power=True)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic is None
        assert out.from_power

    def test_power_holder_nacks_when_unforwardable(self, mem):
        tx = holder_tx(mem, system=SystemKind.PCHATS, power=True)
        out = self.policy().resolve(tx, probe(can_consume=False), no_inflight)
        assert out.resolution is Resolution.NACK

    def test_power_requester_never_consumes(self, mem):
        tx = holder_tx(mem, system=SystemKind.PCHATS)
        out = self.policy().resolve(tx, probe(power=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.POWER

    def test_plain_conflicts_fall_back_to_chats(self, mem):
        tx = holder_tx(mem, system=SystemKind.PCHATS)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic == 15


class TestLEVCPolicy:
    def policy(self):
        return make_policy(table2_config(SystemKind.LEVC))

    def fresh(self, mem, **kw):
        return holder_tx(mem, system=SystemKind.LEVC, timestamp=10, **kw)

    def test_forwards_when_unrestricted(self, mem):
        tx = self.fresh(mem)
        out = self.policy().resolve(tx, probe(timestamp=20), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic is None

    def test_single_consumer_restriction(self, mem):
        tx = self.fresh(mem)
        tx.levc_has_consumer = True
        out = self.policy().resolve(tx, probe(timestamp=20), no_inflight)
        assert out.resolution is Resolution.NACK  # younger requester stalls

    def test_chain_length_restriction(self, mem):
        tx = self.fresh(mem)
        tx.levc_has_consumed = True
        out = self.policy().resolve(tx, probe(timestamp=20), no_inflight)
        assert out.resolution is Resolution.NACK

    def test_requester_must_be_endpoint(self, mem):
        tx = self.fresh(mem)
        out = self.policy().resolve(
            tx, probe(timestamp=20, req_produced=True), no_inflight
        )
        assert out.resolution is Resolution.NACK

    def test_older_requester_aborts_holder(self, mem):
        """The forwarding-oblivious victim selection the paper criticises:
        even a holder that has forwarded loses to an older requester."""
        tx = self.fresh(mem)
        tx.levc_has_consumer = True  # it has a dependent consumer!
        out = self.policy().resolve(tx, probe(timestamp=5), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_non_transactional_wins(self, mem):
        tx = self.fresh(mem)
        out = self.policy().resolve(tx, probe(non_transactional=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
