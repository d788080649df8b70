"""Golden-fingerprint regression tests: the correctness gate for perf work.

Every hot-path optimization must leave the simulation bit-identical:
same schedule fingerprint (event fire times and callback qualnames),
same event counts, same executed operations, and same committed-block
digests.  These goldens pin one fixed scenario per protocol at the
paper's committee cap (n = 40); any optimization that changes event
ordering, RNG draw sequence, or message contents shows up here as a
hard failure rather than a silent semantic drift.

Two smaller perturbed goldens pin the send-hook path: a drop window
and a delay window (whose held messages are released past the hooks)
run with the message tracer attached, so trace row counts and the
traffic totals are pinned next to the fingerprint.

If a test in this file fails after an intentional protocol change (new
message kind, different timer layout, ...), re-derive the goldens with
``repro.verify.explorer.run_schedule`` and update them in the same
commit that changes the behavior -- never to paper over a perf patch.
"""

import pytest

from repro.verify.explorer import Perturbation, Schedule, run_schedule

#: Fixed G-PBFT scenario: 40 nodes, seed 7, five client submissions.
GOLDEN_GPBFT = {
    "schedule": dict(protocol="gpbft", n=40, seed=7, submissions=5,
                     horizon_s=120.0),
    "fingerprint": "256d62bb66ebf103",
    "events": 31608,
    "executed": 200,
    # Identical committed chain on every sampled endorser.
    "chain": [
        "a640c445959939b52c82547070ac4a06daf4de7bafd85f1cd3ea84bd69176dbb",
        "63879e7049ae805d4ae0507bdf5fbae60d29eb2f6256db85349f621fc35e500d",
        "185d512a2404657d398ad2609cf330a6e149c702756800935a976cdc1dda14b8",
        "bc1c2aa4ee5523e7fbc9ce62d34b1f5e26d2a7a63f546f96d4f580e2bf4bd308",
        "1ad65d9a88357a4f463ba455a2c4ceb717bbf7b869d6fdd8ed4a212c158d4592",
        "7f2c617c83b6714f7996254002e6e8c524660281fdf743aea3affe9553138229",
    ],
}

#: Fixed PBFT scenario: 40 replicas, seed 3, four client submissions.
GOLDEN_PBFT = {
    "schedule": dict(protocol="pbft", n=40, seed=3, submissions=4,
                     horizon_s=90.0),
    "fingerprint": "5eb83847a725a4d3",
    "events": 25292,
    "executed": 160,
    # Every non-faulty replica converges to this application state.
    "state_digest":
        "63e8c73884d6824822bbb015862f7124a53d5bcb6cabb89379d4a67f9d5e82dd",
}


#: Drop and delay windows shared by the perturbed goldens.
PERTURBATIONS = (
    Perturbation(op="drop", at=1.5, until=3.0, p=0.1),
    Perturbation(op="delay", at=1.0, until=5.0, p=0.3, extra_s=0.4),
)

#: Perturbed, traced goldens: (protocol, n) -> pinned outcome.
GOLDEN_PERTURBED = {
    ("pbft", 7): dict(fingerprint="a8f3fddcd8c86c49", events=418,
                      executed=14, tracer_rows=186, messages_sent=180),
    ("gpbft", 9): dict(fingerprint="57a33a3151f8dc79", events=1337,
                       executed=36, tracer_rows=611, messages_sent=593),
}


class TestGoldenGpbft:
    def test_schedule_matches_golden(self):
        out = run_schedule(Schedule(**GOLDEN_GPBFT["schedule"]))
        assert out.result.fingerprint == GOLDEN_GPBFT["fingerprint"]
        assert out.result.events == GOLDEN_GPBFT["events"]
        assert out.result.executed == GOLDEN_GPBFT["executed"]
        for node_id in (0, 1, 2):
            node = out.host.nodes[node_id]
            chain = [
                node.ledger.block_at(h).digest().hex()
                for h in range(node.ledger.height + 1)
            ]
            assert chain == GOLDEN_GPBFT["chain"], f"node {node_id} diverged"


class TestGoldenPbft:
    def test_schedule_matches_golden(self):
        out = run_schedule(Schedule(**GOLDEN_PBFT["schedule"]))
        assert out.result.fingerprint == GOLDEN_PBFT["fingerprint"]
        assert out.result.events == GOLDEN_PBFT["events"]
        assert out.result.executed == GOLDEN_PBFT["executed"]
        digests = {
            replica._state_digest_fn().hex()
            for replica in out.host.replicas.values()
        }
        assert digests == {GOLDEN_PBFT["state_digest"]}


class TestGoldenPerturbed:
    @pytest.mark.parametrize("protocol,n", sorted(GOLDEN_PERTURBED))
    def test_traced_perturbed_schedule_matches_golden(self, protocol, n):
        golden = GOLDEN_PERTURBED[(protocol, n)]
        out = run_schedule(
            Schedule(protocol, n, seed=5, submissions=4, horizon_s=90.0,
                     perturbations=PERTURBATIONS),
            with_tracer=True)
        assert out.result.fingerprint == golden["fingerprint"]
        assert out.result.events == golden["events"]
        assert out.result.executed == golden["executed"]
        assert len(out.tracer.rows) == golden["tracer_rows"]
        assert out.host.network.stats.messages_sent == golden["messages_sent"]
