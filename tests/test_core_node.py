"""Unit-level tests of GPBFTNode behaviour and core message types."""

import pytest

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.core.messages import (
    BlockProposalOperation,
    CommitteeInfo,
    EraSwitchOperation,
    GeoReportMsg,
    TxOperation,
    TxSubmission,
)
from repro.chain.block import Block
from repro.chain.transaction import NormalTransaction
from repro.geo.coords import LatLng
from repro.geo.reports import GeoReport

HK = LatLng(22.3193, 114.1694)


def make_tx(sender=1, nonce=0):
    geo = GeoReport(node=sender, position=HK, timestamp=0.0)
    return NormalTransaction(sender=sender, nonce=nonce, fee=1.0, geo=geo)


class TestCoreMessages:
    def test_geo_report_size(self):
        msg = GeoReportMsg(GeoReport(node=1, position=HK, timestamp=0.0))
        assert msg.size_bytes == 32 + 64
        assert msg.kind == "geo.report"

    def test_committee_info_validation(self):
        with pytest.raises(ConsensusError):
            CommitteeInfo(era=-1, committee=(0,), sender=0)
        with pytest.raises(ConsensusError):
            CommitteeInfo(era=1, committee=(), sender=0)
        info = CommitteeInfo(era=1, committee=(0, 1, 2, 3), sender=0)
        assert info.size_bytes > 4 * 4

    def test_era_switch_operation_validation(self):
        with pytest.raises(ConsensusError):
            EraSwitchOperation(new_era=0, committee=(0, 1), added=(), removed=())
        with pytest.raises(ConsensusError):
            EraSwitchOperation(new_era=1, committee=(0,), added=(5,), removed=(5,))
        op = EraSwitchOperation(new_era=1, committee=(0, 1, 2, 3), added=(3,), removed=())
        assert op.op_id == "era-switch:1"
        assert op.signing_bytes() == EraSwitchOperation(
            new_era=1, committee=(0, 1, 2, 3), added=(3,), removed=()
        ).signing_bytes()

    def test_tx_operation_delegates_to_tx(self):
        tx = make_tx()
        op = TxOperation(tx)
        assert op.op_id == tx.tx_id
        assert op.size_bytes == tx.size_bytes
        assert op.signing_bytes() == tx.signing_bytes()

    def test_block_proposal_operation(self):
        tx = make_tx()
        block = Block.assemble(1, b"\x00" * 32, 0, 0, 1, 0, 0.0, [tx])
        op = BlockProposalOperation(block=block, producer=0)
        assert op.op_id.startswith("block:")
        assert op.size_bytes > block.size_bytes - 10

    def test_tx_submission_size(self):
        sub = TxSubmission(make_tx())
        assert sub.kind == "tx.submit"
        assert sub.size_bytes == make_tx().size_bytes + 4


class TestNodeRouting:
    def test_first_hop_is_nearest_endorser(self):
        dep = TopologySpec.single(8, 4, seed=21, start_reports=False).build()
        device = dep.nodes[7]
        hop = device._first_hop()
        assert hop in dep.committee
        dist_hop = device.position.distance_to(dep.directory[hop])
        for member in dep.committee:
            assert dist_hop <= device.position.distance_to(dep.directory[member]) + 1e-9

    def test_member_routes_to_itself(self):
        dep = TopologySpec.single(4, 4, seed=22, start_reports=False).build()
        assert dep.nodes[2]._first_hop() == 2

    def test_move_updates_directory(self):
        dep = TopologySpec.single(4, 4, seed=23, start_reports=False).build()
        new_pos = HK.offset_m(300.0, 0.0)
        dep.nodes[3].move_to(new_pos)
        assert dep.directory[3] == new_pos


class TestNodeLifecycle:
    def test_geo_reports_ignored_by_devices(self):
        dep = TopologySpec.single(6, 4, seed=24, start_reports=False).build()
        device = dep.nodes[5]
        report = GeoReport(node=1, position=HK, timestamp=0.0)
        device._on_geo_report(GeoReportMsg(report))
        assert device.election_table.tracked_nodes == []

    def test_tx_submission_requires_membership(self):
        dep = TopologySpec.single(6, 4, seed=25, mode="block",
                                  start_reports=False).build()
        device = dep.nodes[5]
        device._on_tx_submission(TxSubmission(make_tx()))
        assert len(device.mempool) == 0

    def test_committee_info_needs_f_plus_one_votes(self):
        # committee of 4 -> f+1 = 2 matching announcements required
        dep = TopologySpec.single(6, 4, seed=26, start_reports=False).build()
        device = dep.nodes[5]
        assert device.replica is None
        info0 = CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=0)
        device._on_committee_info(info0)
        assert not device.is_member  # one announcer could be lying
        info1 = CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=1)
        device._on_committee_info(info1)
        assert device.is_member
        assert device.replica is not None
        assert device.era == 1

    def test_duplicate_sender_votes_not_double_counted(self):
        dep = TopologySpec.single(6, 4, seed=26, start_reports=False).build()
        device = dep.nodes[5]
        info = CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=0)
        device._on_committee_info(info)
        device._on_committee_info(info)  # same sender repeats itself
        assert not device.is_member

    def test_conflicting_announcements_do_not_merge(self):
        dep = TopologySpec.single(6, 4, seed=26, start_reports=False).build()
        device = dep.nodes[5]
        device._on_committee_info(
            CommitteeInfo(era=1, committee=(0, 1, 2, 3, 5), sender=0))
        # a liar announcing a different committee must not help the quorum
        device._on_committee_info(
            CommitteeInfo(era=1, committee=(0, 1, 2, 5), sender=1))
        assert not device.is_member

    def test_committee_info_deactivates_removed_member(self):
        dep = TopologySpec.single(5, 5, seed=27, start_reports=False).build()
        member = dep.nodes[4]
        assert member.replica is not None
        for sender in (0, 1):  # f+1 = 2 for a committee of 5
            member._on_committee_info(
                CommitteeInfo(era=1, committee=(0, 1, 2, 3), sender=sender))
        assert not member.is_member
        assert member.replica is None

    def test_stale_committee_info_ignored(self):
        dep = TopologySpec.single(5, 4, seed=28, start_reports=False).build()
        node = dep.nodes[0]
        node.era = 3
        node._on_committee_info(CommitteeInfo(era=1, committee=(1, 2, 3, 4), sender=1))
        assert node.era == 3
        assert node.is_member

    def test_requests_buffered_while_switching(self):
        dep = TopologySpec.single(5, 4, seed=29, start_reports=False).build()
        node = dep.nodes[0]
        node.switching = True
        from repro.pbft.messages import ClientRequest
        request = ClientRequest(client=4, timestamp=0.0, op=TxOperation(make_tx(4)))
        node._on_pbft_request(request)
        assert len(node._switch_buffer) == 1

    def test_duplicate_era_switch_is_noop(self):
        dep = TopologySpec.single(5, 4, seed=30, start_reports=False).build()
        node = dep.nodes[0]
        stale = EraSwitchOperation(new_era=5, committee=(0, 1, 2, 3), added=(), removed=())
        node._execute_era_switch(stale)  # era 0 + 1 != 5
        assert not node.switching
        assert node.era == 0

    def test_next_transaction_increments_nonce(self):
        dep = TopologySpec.single(4, 4, seed=31, start_reports=False).build()
        node = dep.nodes[0]
        t1 = node.next_transaction()
        t2 = node.next_transaction()
        assert t1.nonce == 0 and t2.nonce == 1
        assert t1.tx_id != t2.tx_id

    def test_stale_block_proposal_ignored(self):
        dep = TopologySpec.single(4, 4, seed=32, mode="block",
                                  start_reports=False).build()
        node = dep.nodes[0]
        stale = Block.assemble(5, b"\x00" * 32, 0, 0, 0, 1, 0.0, [])
        node._execute_block_proposal(BlockProposalOperation(block=stale, producer=1))
        assert node.ledger.height == 0

    def test_bad_parent_block_flags_producer(self):
        dep = TopologySpec.single(4, 4, seed=33, mode="block",
                                  start_reports=False).build()
        node = dep.nodes[0]
        bad = Block.assemble(1, b"\x42" * 32, 0, 0, 0, 2, 0.0, [])
        node._execute_block_proposal(BlockProposalOperation(block=bad, producer=2))
        assert 2 in node._suspects
        assert node.incentive.is_excluded(2)
