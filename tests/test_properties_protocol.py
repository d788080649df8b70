"""Property-based tests on protocol-level state machines.

Complements ``test_properties.py`` (data structures) with invariants on
the committee manager, era history, producer lottery fairness, and
codec robustness against malformed input.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.common.config import (
    CommitteeConfig,
    GPBFTConfig,
    NetworkConfig,
    PBFTConfig,
    TopologySpec,
    VerifyConfig,
)
from repro.common.errors import ReproError, ValidationError
from repro.codec import decode_prepare, decode_transaction
from repro.core.committee import CommitteeManager
from repro.core.era import EraHistory
from repro.core.incentive import select_producer
from repro.pbft import RawOperation

committee_strategy = st.sets(
    st.integers(min_value=0, max_value=200), min_size=4, max_size=30
).map(lambda s: tuple(sorted(s)))


class TestCommitteeManagerProperties:
    @given(
        initial=committee_strategy,
        qualified=st.sets(st.integers(min_value=0, max_value=250), max_size=20),
        invalid=st.sets(st.integers(min_value=0, max_value=250), max_size=20),
        max_endorsers=st.integers(min_value=30, max_value=60),
    )
    @settings(max_examples=100)
    def test_delta_respects_every_policy_bound(
        self, initial, qualified, invalid, max_endorsers
    ):
        policy = CommitteeConfig(min_endorsers=4, max_endorsers=max_endorsers)
        manager = CommitteeManager(initial, policy)
        delta = manager.plan_delta(sorted(qualified), sorted(invalid))
        new = manager.apply_delta(delta)

        # bounds
        assert 4 <= len(new) <= max_endorsers
        # everything removed was invalid and was a member
        assert set(delta.removed) <= set(invalid) & set(initial)
        # everything added was qualified and was not a member
        assert set(delta.added) <= set(qualified) - set(initial)
        # the new committee is exactly the set algebra of the delta
        assert set(new) == (set(initial) - set(delta.removed)) | set(delta.added)
        # deterministic: same inputs always give the same delta
        again = CommitteeManager(initial, policy).plan_delta(
            sorted(qualified), sorted(invalid)
        )
        assert (again.added, again.removed) == (delta.added, delta.removed)

    @given(
        initial=committee_strategy,
        blacklisted=st.sets(st.integers(min_value=201, max_value=250), max_size=5),
    )
    @settings(max_examples=50)
    def test_blacklisted_never_admitted(self, initial, blacklisted):
        policy = CommitteeConfig(blacklist=frozenset(blacklisted), max_endorsers=60)
        manager = CommitteeManager(initial, policy)
        delta = manager.plan_delta(sorted(blacklisted), [])
        assert not set(delta.added) & blacklisted


class TestEraHistoryProperties:
    @given(
        durations=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50)
    def test_timeline_is_consistent(self, durations):
        history = EraHistory([0, 1, 2, 3])
        now = 0.0
        for run_s, switch_s in durations:
            now += run_s
            history.begin_switch(now)
            now += switch_s
            history.complete_switch(now, [0, 1, 2, 3])
        records = history.records
        # eras number consecutively and never overlap
        assert [r.era for r in records] == list(range(len(records)))
        for prev, cur in zip(records, records[1:]):
            assert cur.switch_started_at >= prev.started_at
            assert cur.started_at >= cur.switch_started_at
        # total switch time equals the sum of the pauses
        expected = sum(s for _, s in durations)
        assert history.total_switch_time() == pytest.approx(expected)
        # the era-atomicity monitor's validator accepts any legal timeline
        history.validate()


class TestProducerLotteryFairness:
    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_frequencies_track_weights(self, seed):
        timers = {0: 3.0, 1: 1.0}
        wins = sum(
            select_producer(timers, era=seed, height=h) == 0 for h in range(400)
        )
        # expect ~300 of 400; allow wide noise margins
        assert 240 <= wins <= 360


class TestMonitoredConsensusProperties:
    """Fault-free consensus under full invariant monitoring.

    Any schedule of submission times must complete without a monitor
    firing -- a false positive here means a monitor (not the protocol)
    is wrong.
    """

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        times=st.lists(
            st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=5
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_monitors_stay_silent_on_honest_runs(self, seed, times):
        config = GPBFTConfig(
            network=NetworkConfig(seed=seed),
            pbft=PBFTConfig(view_change_timeout_s=5.0,
                            request_retry_timeout_s=20.0),
            verify=VerifyConfig(monitors=True),
        )
        cluster = TopologySpec.cluster(4, 1, config=config).build()
        assert cluster.monitors is not None
        for k, at in enumerate(sorted(times)):
            cluster.sim.schedule_at(at, cluster.any_client.submit,
                                    RawOperation(f"mon-{k}"))
        cluster.run(until=300.0)
        cluster.monitors.check_final()
        assert len(cluster.any_client.completed) == len(times)
        assert cluster.all_agree()


class TestCodecRobustness:
    @given(data=st.binary(max_size=300))
    @settings(max_examples=200)
    def test_decode_prepare_never_crashes_unexpectedly(self, data):
        try:
            decode_prepare(data)
        except ReproError:
            pass  # structured rejection is the contract

    @given(data=st.binary(max_size=400))
    @settings(max_examples=200)
    def test_decode_transaction_never_crashes_unexpectedly(self, data):
        try:
            decode_transaction(data)
        except (ReproError, UnicodeDecodeError):
            pass  # malformed key/value bytes may fail utf-8; still bounded

    @given(
        prefix=st.binary(min_size=108, max_size=108),
        junk=st.binary(min_size=1, max_size=20),
    )
    @settings(max_examples=50)
    def test_trailing_junk_rejected(self, prefix, junk):
        with pytest.raises(ValidationError):
            decode_prepare(prefix + junk)
