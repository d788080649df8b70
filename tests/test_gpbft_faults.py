"""Fault injection inside the G-PBFT committee.

The paper's tolerance claim (<33.3% faulty endorsers) must hold for the
*committee*, independent of how many devices exist: with a committee of
7, two crashed endorsers are tolerated, three block progress until an
era switch replaces them.
"""

import pytest

from repro.common.config import PBFTConfig, GPBFTConfig, TopologySpec
from repro.pbft.faults import CrashFaults, EquivocatingFaults
from repro.common.eventlog import EV_TX_COMMITTED


def fast_config():
    return GPBFTConfig(
        pbft=PBFTConfig(view_change_timeout_s=5.0, request_retry_timeout_s=20.0)
    )


class TestCommitteeFaults:
    def test_f_crashed_endorsers_tolerated(self):
        # committee of 7: f = 2
        dep = TopologySpec.single(10, 7, config=fast_config(), seed=50,
                                  start_reports=False).build(
            faults={5: CrashFaults(crashed=True), 6: CrashFaults(crashed=True)})
        rid = dep.submit_from(9)
        dep.run(until=600)
        assert rid in dep.nodes[9].client.completed
        assert dep.ledgers_consistent()

    def test_crashed_primary_inside_committee_recovered(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=51,
                                  start_reports=False).build(
            faults={0: CrashFaults(crashed=True)})
        rid = dep.submit_from(7)
        dep.run(until=2000)
        assert rid in dep.nodes[7].client.completed
        views = {n.replica.view for n in dep.endorsers if n.replica and n.node_id != 0}
        assert views == {1}

    def test_too_many_crashes_block_progress(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=52,
                                  start_reports=False).build(
            faults={2: CrashFaults(crashed=True), 3: CrashFaults(crashed=True)})
        rid = dep.submit_from(7)
        dep.run(until=2000)
        assert rid not in dep.nodes[7].client.completed

    def test_equivocating_endorser_cannot_split_ledgers(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=53,
                                  start_reports=False).build(
            faults={0: EquivocatingFaults()})
        dep.submit_from(6)
        dep.run(until=2000)
        assert dep.ledgers_consistent()

    def test_honest_devices_unaffected_by_crashed_device(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=54,
                                  start_reports=False).build(
            faults={7: CrashFaults(crashed=True)})  # a *device* crashes
        rid = dep.submit_from(6)
        dep.run(until=600)
        assert rid in dep.nodes[6].client.completed


class TestBlockModeFaults:
    def test_crashed_producer_does_not_stall_block_production(self):
        # with a deterministic (era, height) lottery a crashed winner
        # would block the chain forever; the attempt-salted fallback
        # must rotate production to a live endorser
        dep = TopologySpec.single(10, 4, config=fast_config(), seed=58,
                                  mode="block", block_interval_s=2.0,
                                  start_reports=False).build(
            faults={1: CrashFaults(crashed=True)})
        for device in range(5, 10):
            dep.submit_from(device)
        dep.run(until=600)
        live = dep.nodes[0]
        assert live.ledger.height >= 1
        committed = {e.data["tx_id"] for e in dep.events.of_kind(EV_TX_COMMITTED)}
        assert len(committed) == 5
        assert dep.ledgers_consistent()


class TestNetworkFaults:
    def test_message_drops_slow_but_do_not_stop_consensus(self):
        from dataclasses import replace

        config = fast_config()
        config = config.replace(network=replace(config.network, drop_probability=0.05))
        dep = TopologySpec.single(8, 4, config=config, seed=55,
                                  start_reports=False).build()
        rids = [dep.submit_from(i) for i in (5, 6, 7)]
        dep.run(until=5000)
        done = dep.completed_latencies()
        assert all(r in done for r in rids)
        assert dep.ledgers_consistent()

    def test_partition_heals(self):
        dep = TopologySpec.single(8, 4, config=fast_config(), seed=56,
                                  start_reports=False).build()
        # isolate endorsers {2, 3}: no quorum on either side
        dep.network.set_partition({0: 1, 1: 1, 2: 2, 3: 2})
        rid = dep.submit_from(6)
        dep.run(until=100)
        assert rid not in dep.nodes[6].client.completed
        dep.network.set_partition(None)
        dep.run(until=3000)
        assert rid in dep.nodes[6].client.completed
        assert dep.ledgers_consistent()

    def test_offline_endorser_comes_back(self):
        dep = TopologySpec.single(8, 5, config=fast_config(), seed=57,
                                  start_reports=False).build()
        dep.network.set_offline(4)
        rid = dep.submit_from(7)
        dep.run(until=600)
        assert rid in dep.nodes[7].client.completed  # f=1 tolerated
        dep.network.set_offline(4, offline=False)
        rid2 = dep.submit_from(6)
        dep.run(until=dep.sim.now + 600)
        assert rid2 in dep.nodes[6].client.completed
