"""Chaos testing: randomized fault schedules vs safety invariants.

Hypothesis generates arbitrary fault scripts (crashes, recoveries,
message-drop phases, partitions at random times) and the tests assert
the properties that must hold under *any* schedule:

* **agreement** -- no two non-crashed replicas ever execute different
  operation sequences (prefix consistency);
* **no forks** -- G-PBFT ledgers stay prefix-consistent and record no
  fork evidence;
* **validity** -- everything executed was actually submitted;
* **conditional liveness** -- if at most f replicas were faulty at any
  moment and drops eventually stop, submitted requests commit.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.common.config import (
    GPBFTConfig,
    NetworkConfig,
    PBFTConfig,
    TopologySpec,
    VerifyConfig,
)
from repro.pbft import CrashFaults, RawOperation
from repro.common.eventlog import EV_ERA_SWITCH_COMPLETED

N_REPLICAS = 7  # f = 2
FAST_PBFT = PBFTConfig(view_change_timeout_s=5.0, request_retry_timeout_s=20.0)


def _config(seed: int, drop: float = 0.0) -> GPBFTConfig:
    # invariant monitors ride along on every chaos schedule: any safety
    # break raises mid-run with the offending trace window attached
    return GPBFTConfig(
        network=NetworkConfig(seed=seed, drop_probability=drop),
        pbft=FAST_PBFT,
        verify=VerifyConfig(monitors=True),
    )


fault_script = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=200.0),          # when
        st.integers(min_value=0, max_value=N_REPLICAS - 1),  # which replica
        st.booleans(),                                       # crash / recover
    ),
    max_size=8,
)

submission_times = st.lists(
    st.floats(min_value=0.5, max_value=150.0), min_size=1, max_size=6
)


class TestPBFTChaos:
    @given(script=fault_script, submissions=submission_times,
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_agreement_and_validity_under_any_crash_schedule(
        self, script, submissions, seed
    ):
        faults = {i: CrashFaults() for i in range(N_REPLICAS)}
        cluster = TopologySpec.cluster(N_REPLICAS, 1, config=_config(seed)).build(
            faults=faults)
        for at, replica, crash in script:
            target = faults[replica]
            cluster.sim.schedule_at(
                at, target.crash if crash else target.recover
            )
        submitted = set()
        for k, at in enumerate(sorted(submissions)):
            op_id = f"chaos-{k}"
            submitted.add(op_id)
            cluster.sim.schedule_at(at, cluster.any_client.submit,
                                    RawOperation(op_id))
        cluster.run(until=800.0)

        # validity: nothing executes that was not submitted (null ops from
        # view-change gap filling excepted)
        for node in cluster.replicas:
            for op_id in cluster.committed_ops(node):
                assert op_id in submitted or op_id.startswith("null:")
        # agreement: executed sequences are prefix-consistent
        sequences = [tuple(cluster.committed_ops(n)) for n in cluster.replicas]
        shortest = min(len(s) for s in sequences)
        assert len({s[:shortest] for s in sequences}) == 1
        cluster.monitors.check_final()

    @given(crash_at=st.floats(min_value=1.0, max_value=50.0),
           recover_after=st.floats(min_value=5.0, max_value=100.0),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_liveness_with_at_most_f_transient_crashes(
        self, crash_at, recover_after, seed
    ):
        # exactly f = 2 replicas crash and later recover: every request
        # must eventually commit
        faults = {5: CrashFaults(), 6: CrashFaults()}
        cluster = TopologySpec.cluster(N_REPLICAS, 1, config=_config(seed)).build(
            faults=faults)
        for _, target in sorted(faults.items()):
            cluster.sim.schedule_at(crash_at, target.crash)
            cluster.sim.schedule_at(crash_at + recover_after, target.recover)
        rid = cluster.submit(RawOperation("must-commit"))
        cluster.sim.schedule_at(crash_at + 1.0, cluster.any_client.submit,
                                RawOperation("mid-crash"))
        cluster.run(until=3000.0)
        assert rid in cluster.any_client.completed
        assert len(cluster.any_client.completed) == 2
        assert cluster.all_agree()
        cluster.monitors.check_final()

    @given(drop=st.floats(min_value=0.0, max_value=0.15),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_agreement_under_random_message_loss(self, drop, seed):
        cluster = TopologySpec.cluster(N_REPLICAS, 1,
                                       config=_config(seed, drop=drop)).build()
        for k in range(4):
            cluster.sim.schedule_at(1.0 + 10.0 * k, cluster.any_client.submit,
                                    RawOperation(f"lossy-{k}"))
        cluster.run(until=2000.0)
        sequences = [tuple(cluster.committed_ops(n)) for n in cluster.replicas]
        shortest = min(len(s) for s in sequences)
        assert len({s[:shortest] for s in sequences}) == 1
        cluster.monitors.check_final()


class TestGPBFTChaos:
    @given(script=fault_script, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_ledgers_never_fork_under_crash_schedules(self, script, seed):
        faults = {i: CrashFaults() for i in range(6)}
        dep = TopologySpec.single(9, 6, config=_config(seed), seed=seed,
                                  start_reports=False).build(faults=faults)
        for at, replica, crash in script:
            if replica < 6:
                target = faults[replica]
                dep.sim.schedule_at(at, target.crash if crash else target.recover)
        for k, device in enumerate((6, 7, 8)):
            dep.sim.schedule_at(1.0 + 20.0 * k, dep.submit_from, device)
        dep.run(until=800.0)
        assert dep.ledgers_consistent()
        for endorser in dep.endorsers:
            assert endorser.ledger.forks == ()
        dep.monitors.check_final()

    def test_era_switch_under_partition_heals_without_fork(self):
        # an era switch proposed while the committee is split 2-2 cannot
        # gather a quorum; after the partition heals the switch must
        # commit exactly once, atomically, with no ledger fork -- the
        # era-atomicity and prefix-consistency monitors watch the whole
        # run
        dep = TopologySpec.single(6, 4, config=_config(17), seed=17,
                                  start_reports=False).build()
        dep.sim.schedule_at(1.0, dep.submit_from, 4)
        # devices must be listed explicitly: unlisted nodes fall into
        # the implicit group -1 and would be cut off from both halves
        groups = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
        dep.sim.schedule_at(4.0, dep.network.set_partition, groups)
        dep.sim.schedule_at(5.0, dep.force_era_switch)
        dep.sim.schedule_at(40.0, dep.network.set_partition, None)
        dep.sim.schedule_at(90.0, dep.submit_from, 5)
        dep.run(until=600.0)

        switches = dep.events.of_kind(EV_ERA_SWITCH_COMPLETED)
        assert switches, "era switch never committed after the heal"
        assert all(e.at > 40.0 for e in switches), \
            "switch committed during the partition despite no quorum"
        completed = dep.completed_latencies()
        assert len(completed) >= 2  # both device transactions committed
        assert dep.ledgers_consistent()
        for endorser in dep.endorsers:
            assert endorser.ledger.forks == ()
        assert dep.nodes[0].era == 1
        dep.monitors.check_final()
