"""The benchmark's workloads: open-loop simulated runs built from public APIs.

Each workload is a function ``(seed, size) -> Outcome`` that builds its
topology and arrival schedule from *seed*, runs the simulation to its
end and returns what the metrics and the correctness gate need.  All
randomness comes from ``DeterministicRNG`` streams rooted at *seed*, so
one seed always yields one schedule; arrivals are submitted at their
scheduled simulated instant, so the generator is never late.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.common.config import GPBFTConfig, TopologySpec, VerifyConfig
from repro.common.rng import DeterministicRNG
from repro.experiments.engine import PointSpec, run_point
from repro.pbft.faults import CrashFaults
from repro.pbft.messages import RawOperation

#: Payload size of every request: a NormalTransaction is 200 B, and the
#: PBFT comparator moves the same bytes.
OP_BYTES = 200


@dataclass
class Outcome:
    """What one run leaves behind, besides what the recorder saw.

    Attributes:
        end_s: simulated time at which the run stopped.
        crash_s: simulated time of the injected crash (None: no fault).
        notes: workload facts printed next to the metrics.
    """

    end_s: float
    crash_s: float | None = None
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        run: ``(seed, size) -> Outcome``.
        size: requests offered per simulation at full scale.
        instances: independent simulations (seeds) one benchmark run
            pools, so that no single seed's chaos sets its figures.
        test_size: requests per simulation in the benchmark's own test.
    """

    name: str
    run: Callable[[int, int], Outcome]
    size: int
    instances: int
    test_size: int


def _config(seed: int, **sections) -> GPBFTConfig:
    base = GPBFTConfig()
    return base.replace(network=replace(base.network, seed=seed), **sections)


def _poisson_times(seed: int, count: int, start: float, end: float) -> list[float]:
    """*count* Poisson arrivals in [start, end): sorted uniform draws.

    A Poisson process conditioned on its count in a window places the
    arrivals as independent uniform points, so fixing the count keeps
    the offered load identical across seeds while the spacing stays
    Poisson.
    """
    rng = DeterministicRNG(seed, f"arrivals/{start:g}")
    return sorted(rng.uniform(start, end) for _ in range(count))


# -- pbft_flat_n202 ----------------------------------------------------------

#: The paper's PBFT comparator: every node of the n = 202 network is a
#: replica (Table III).
FLAT_REPLICAS = 202


#: Offered load as a share of the committee's capacity.
FLAT_LOAD = 0.4


def run_pbft_flat(seed: int, size: int) -> Outcome:
    """Flat PBFT at n = 202 at 0.4 of the committee's message capacity.

    Each request costs every replica about 2n processed messages, so a
    replica pumping ``processing_rate`` messages per second saturates at
    s / (2n) requests per second.
    """
    config = _config(seed)
    rate = FLAT_LOAD * config.network.processing_rate / (2 * FLAT_REPLICAS)
    cluster = TopologySpec.cluster(
        n_replicas=FLAT_REPLICAS, n_clients=size, config=config).build()
    clients = [cluster.clients[cid] for cid in sorted(cluster.clients)]
    times = _poisson_times(seed, size, 0.0, size / rate)
    for k, (client, at) in enumerate(zip(clients, times)):
        op = RawOperation(op_id=f"op-{seed}-{k}", size_bytes=OP_BYTES)
        cluster.sim.schedule_at(at, client.submit, op)
    # check for completion once per simulated second, not per event
    horizon = times[-1] + 3_600.0
    while (sum(c.completed_count for c in clients) < size
           and cluster.sim.now < horizon):
        cluster.sim.run(until=cluster.sim.now + 1.0)
    return Outcome(end_s=cluster.sim.now,
                   notes={"rate_req_s": rate})


# -- gpbft_paper_crash -----------------------------------------------------

#: Section V-B: 202 nodes, a 40-endorser committee, each device
#: proposing once every 4000 s.
CRASH_NODES, CRASH_ENDORSERS, CRASH_PERIOD_S = 202, 40, 4_000.0
#: Simulated time the run continues after the crash.
CRASH_AFTER_S = 1_000.0


def run_gpbft_crash(seed: int, size: int) -> Outcome:
    """Section V-B's G-PBFT setup with an era switch and a crashed primary.

    Arrivals fill ``[0, T)`` with ``T = size / rate``; half of them fall
    in each half, so the crash at ``T / 2`` always lands at the halfway
    arrival.  The era switch is forced at ``T / 4``.  The crashed node
    stays down until the run ends ``CRASH_AFTER_S`` after the crash;
    arrivals due after that are never offered.
    """
    config = _config(seed, verify=VerifyConfig(monitors=True))
    rate = CRASH_NODES / CRASH_PERIOD_S
    horizon = size / rate
    faults = {node: CrashFaults() for node in range(CRASH_ENDORSERS)}
    dep = TopologySpec.single(
        CRASH_NODES, CRASH_ENDORSERS, config=config, seed=seed,
        start_reports=True).build(faults=faults)
    devices = [dep.nodes[i] for i in sorted(dep.nodes)][CRASH_ENDORSERS:]
    half = size // 2
    times = (_poisson_times(seed, half, 0.0, horizon / 2)
             + _poisson_times(seed, size - half, horizon / 2, horizon))
    for k, at in enumerate(times):
        dep.sim.schedule_at(at, devices[k % len(devices)].submit_transaction)
    dep.sim.schedule_at(horizon / 4, dep.force_era_switch)
    crashed: list[int] = []

    def crash_primary() -> None:
        replica = next(n.replica for n in dep.endorsers if n.replica is not None)
        primary = replica.primary_of(replica.view)
        faults[primary].crash()
        crashed.append(primary)

    crash_s = horizon / 2
    dep.sim.schedule_at(crash_s, crash_primary)
    dep.sim.run(until=crash_s + CRASH_AFTER_S)
    return Outcome(end_s=dep.sim.now, crash_s=crash_s,
                   notes={"rate_req_s": rate, "crashed_primary": crashed[0],
                          "era_switch_s": horizon / 4})


# -- city_12zone -------------------------------------------------------------

#: Twelve zones of four replicas share one simulator for one diurnal
#: "day" squeezed into an hour.
CITY_ZONES, CITY_DAY_S, CITY_DRAIN_S = 12, 3_600.0, 600.0


def run_city(seed: int, size: int) -> Outcome:
    """The ``gpbft``/``agg`` experiment point at city shape."""
    result = run_point(PointSpec.make(
        "gpbft", "agg", size, seed, zones=CITY_ZONES, duration_s=CITY_DAY_S,
        drain_slack_s=CITY_DRAIN_S))
    return Outcome(end_s=result["sim_now_s"],
                   notes={"rate_req_s": size / CITY_DAY_S})


WORKLOADS = {
    w.name: w for w in (
        Workload("pbft_flat_n202", run_pbft_flat, size=5, instances=4,
                 test_size=2),
        Workload("gpbft_paper_crash", run_gpbft_crash, size=120, instances=5,
                 test_size=24),
        Workload("city_12zone", run_city, size=8_000, instances=1,
                 test_size=600),
    )
}
