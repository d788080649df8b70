"""Integration tests: the PBFT engine end-to-end over the simulated network.

Covers the normal case, ordering agreement, checkpoints, view changes
under crash faults, byzantine equivocation safety, and the client's
retry path.
"""

import pytest

from repro.common.config import (
    GPBFTConfig,
    NetworkConfig,
    PBFTConfig,
    TopologySpec,
)
from repro.common.errors import ConfigurationError, ConsensusError
from repro.pbft import CrashFaults, EquivocatingFaults, RawOperation
from repro.pbft.faults import MuteFaults, SelectiveDropFaults
from repro.common.eventlog import EV_PBFT_STATE_TRANSFER


def fast_config(**pbft_overrides) -> GPBFTConfig:
    """Short timeouts so fault tests converge quickly."""
    pbft = dict(view_change_timeout_s=5.0, request_retry_timeout_s=20.0)
    pbft.update(pbft_overrides)
    return GPBFTConfig(network=NetworkConfig(seed=1), pbft=PBFTConfig(**pbft))


class TestNormalCase:
    def test_single_request_commits_everywhere(self):
        cluster = TopologySpec.cluster(4, 1).build()
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=60)
        assert rid in cluster.any_client.completed
        assert all(cluster.committed_ops(n) == ["op"] for n in cluster.replicas)

    def test_many_requests_identical_order(self):
        cluster = TopologySpec.cluster(7, 3).build()
        for i, cid in enumerate(sorted(cluster.clients) * 4):
            cluster.clients[cid].submit(RawOperation(f"op-{i}"))
        cluster.run(until=600)
        orders = {tuple(cluster.committed_ops(n)) for n in cluster.replicas}
        assert len(orders) == 1
        assert len(orders.pop()) == 12

    def test_latency_grows_with_committee_size(self):
        def latency(n):
            cluster = TopologySpec.cluster(n, 1).build()
            rid = cluster.submit(RawOperation("x"))
            cluster.run(until=600)
            return cluster.any_client.completed[rid]

        assert latency(16) > latency(4)

    def test_committee_below_four_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.cluster(3, 1)

    def test_duplicate_submission_is_single_execution(self):
        cluster = TopologySpec.cluster(4, 1).build()
        client = cluster.any_client
        op = RawOperation("dup")
        client.submit(op)
        client.submit(op)
        cluster.run(until=60)
        assert cluster.committed_ops(0) == ["dup"]


class TestCheckpoints:
    def test_stable_checkpoint_advances_watermark(self):
        config = fast_config(checkpoint_interval=4, watermark_window=16)
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        for i in range(8):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=300)
        assert len(cluster.any_client.completed) == 8
        for _, replica in sorted(cluster.replicas.items()):
            assert replica.stable_seq >= 4

    def test_log_garbage_collected(self):
        config = fast_config(checkpoint_interval=2, watermark_window=8)
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        for i in range(6):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=300)
        for _, replica in sorted(cluster.replicas.items()):
            live = [s.seq for s in replica.log.instances()]
            assert all(seq > replica.stable_seq for seq in live)

    def test_parked_requests_drain_after_checkpoint(self):
        # window of 4 with 6 requests: the last two must wait for a
        # checkpoint, then commit
        config = fast_config(checkpoint_interval=2, watermark_window=4)
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        for i in range(6):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=600)
        assert len(cluster.any_client.completed) == 6


class TestViewChange:
    def test_crashed_primary_replaced(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={0: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed
        views = {r.view for n, r in cluster.replicas.items() if n != 0}
        assert views == {1}
        assert cluster.all_agree()

    def test_progress_after_mid_run_crash(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build()
        cluster.submit(RawOperation("before"))
        cluster.run(until=30)
        cluster.replicas[0].faults = CrashFaults(crashed=True)
        cluster.submit(RawOperation("after"))
        cluster.run(until=600)
        assert len(cluster.any_client.completed) == 2
        # sequence numbers must not be reused across the view change
        ops = cluster.committed_ops(1)
        assert ops == ["before", "after"]

    def test_two_successive_primary_crashes(self):
        cluster = TopologySpec.cluster(7, 1, config=fast_config()).build(
            faults={0: CrashFaults(crashed=True),
                    1: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=2000)
        assert rid in cluster.any_client.completed
        assert cluster.all_agree()

    def test_executed_requests_not_reexecuted_after_view_change(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build()
        cluster.submit(RawOperation("op-a"))
        cluster.run(until=30)
        cluster.replicas[0].faults = CrashFaults(crashed=True)
        cluster.submit(RawOperation("op-b"))
        cluster.run(until=600)
        for node in (1, 2, 3):
            ops = cluster.committed_ops(node)
            assert ops.count("op-a") == 1


class TestByzantine:
    def test_equivocating_primary_never_violates_safety(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={0: EquivocatingFaults()})
        cluster.submit(RawOperation("op"))
        cluster.run(until=2000)
        assert cluster.all_agree()

    def test_mute_replica_does_not_block_quorum(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={3: MuteFaults()})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed

    def test_commit_dropping_backup_tolerated(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={2: SelectiveDropFaults({"pbft.commit"})})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed

    def test_f_crashes_tolerated_but_f_plus_one_blocks(self):
        # f = 2 for n = 7: two crashes fine
        cluster = TopologySpec.cluster(7, 1, config=fast_config()).build(
            faults={5: CrashFaults(crashed=True),
                    6: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("ok"))
        cluster.run(until=600)
        assert rid in cluster.any_client.completed
        # three crashes (f+1): no commitment possible
        cluster = TopologySpec.cluster(7, 1, config=fast_config()).build(
            faults={4: CrashFaults(crashed=True),
                    5: CrashFaults(crashed=True),
                    6: CrashFaults(crashed=True)})
        rid = cluster.submit(RawOperation("stuck"))
        cluster.run(until=2000)
        assert rid not in cluster.any_client.completed


class TestStateTransfer:
    def _cluster(self):
        from repro.pbft.faults import CrashFaults

        config = fast_config(checkpoint_interval=4, watermark_window=32)
        faults = {3: CrashFaults(crashed=False)}
        spec = TopologySpec.cluster(4, 1, config=config)
        return spec.build(faults=faults), faults

    def test_recovered_replica_catches_up_via_checkpoint(self):
        cluster, faults = self._cluster()
        cluster.submit(RawOperation("warm"))
        cluster.run(until=30)
        faults[3].crash()
        for i in range(12):
            cluster.submit(RawOperation(f"missed-{i}"))
        cluster.run(until=600)
        assert cluster.replicas[3].last_executed <= 1
        faults[3].recover()
        for i in range(8):
            cluster.submit(RawOperation(f"after-{i}"))
        cluster.run(until=3000)
        assert cluster.replicas[3].last_executed == cluster.replicas[0].last_executed
        assert cluster.committed_ops(3) == cluster.committed_ops(0)
        assert cluster.events.of_kind(EV_PBFT_STATE_TRANSFER)

    def test_transfer_traffic_is_accounted(self):
        cluster, faults = self._cluster()
        faults[3].crash()
        for i in range(12):
            cluster.submit(RawOperation(f"op-{i}"))
        cluster.run(until=600)
        faults[3].recover()
        # enough post-recovery traffic for a fresh checkpoint to form
        for i in range(8):
            cluster.submit(RawOperation(f"kick-{i}"))
        cluster.run(until=3000)
        assert cluster.network.stats.bytes_by_kind.get(EV_PBFT_STATE_TRANSFER, 0) > 0


class TestClient:
    def test_retry_broadcast_reaches_new_primary(self):
        # primary silently drops requests (but participates otherwise):
        # the client's retry broadcast must trigger recovery
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={0: SelectiveDropFaults({"pbft.request"})})
        rid = cluster.submit(RawOperation("op"))
        cluster.run(until=2000)
        assert rid in cluster.any_client.completed

    def test_view_hint_follows_replies(self):
        cluster = TopologySpec.cluster(4, 1, config=fast_config()).build(
            faults={0: CrashFaults(crashed=True)})
        cluster.submit(RawOperation("op"))
        cluster.run(until=600)
        assert cluster.any_client.believed_primary == 1

    def test_update_committee_validates(self):
        cluster = TopologySpec.cluster(4, 1).build()
        with pytest.raises(ConsensusError):
            cluster.any_client.update_committee(())
