"""Extension experiments beyond the paper's figures.

* :func:`throughput_experiment` -- the TPS view the paper explicitly
  skipped (section V-B): saturate both protocols and measure committed
  transactions per second versus network size.
* :func:`era_churn_experiment` -- sustained node churn: how much
  commit capacity is lost to switch periods as the churn rate grows.

Both return :class:`~repro.metrics.collector.SweepResult` objects and a
rendered report, like the figure harness.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import (
    CommitteeConfig,
    EraConfig,
    GPBFTConfig,
    TopologySpec,
)
from repro.common.eventlog import EV_REQUEST_COMPLETED
from repro.common.rng import DeterministicRNG
from repro.core.messages import TxOperation
from repro.experiments.engine import Engine, PointSpec
from repro.experiments.figures import FigureResult
from repro.experiments.runner import TX_OP_BYTES, _note_events
from repro.metrics.collector import SweepResult, render_series
from repro.metrics.throughput import throughput_from_events
from repro.pbft.messages import RawOperation


def _saturating_config(seed: int, max_endorsers: int) -> GPBFTConfig:
    base = GPBFTConfig()
    return base.replace(
        network=replace(base.network, seed=seed),
        committee=CommitteeConfig(min_endorsers=4, max_endorsers=max_endorsers),
        era=EraConfig(period_s=1e12, switch_duration_s=0.25),
    )


def _pbft_tps(n: int, seed: int, offered_interval_s: float, horizon_s: float) -> float:
    config = _saturating_config(seed, max_endorsers=max(n, 4))
    cluster = TopologySpec.cluster(n, 4, config=config).build()
    client_ids = sorted(cluster.clients)
    t, k = 1.0, 0
    while t < horizon_s:
        client = cluster.clients[client_ids[k % len(client_ids)]]
        op = RawOperation(op_id=f"tps-{seed}-{k}", size_bytes=TX_OP_BYTES)
        cluster.sim.schedule_at(t, client.submit, op)
        t += offered_interval_s
        k += 1
    cluster.sim.run(until=horizon_s)
    _note_events(cluster.sim)
    sample = throughput_from_events(cluster.events, start=horizon_s * 0.2,
                                    end=horizon_s)
    return sample.tps


def _gpbft_tps(n: int, seed: int, offered_interval_s: float, horizon_s: float,
               max_endorsers: int) -> float:
    config = _saturating_config(seed, max_endorsers=max_endorsers)
    dep = TopologySpec.single(n, min(n, max_endorsers), config=config,
                              seed=seed, start_reports=False).build()
    node_ids = sorted(dep.nodes)
    rng = DeterministicRNG(seed, "tps")
    t, k = 1.0, 0
    while t < horizon_s:
        node = dep.nodes[node_ids[rng.integers(0, len(node_ids))]]
        tx = node.next_transaction(key=f"tps{k}", value=str(k))
        dep.sim.schedule_at(t, node.client.submit, TxOperation(tx))
        t += offered_interval_s
        k += 1
    dep.sim.run(until=horizon_s)
    _note_events(dep.sim)
    sample = throughput_from_events(dep.events, start=horizon_s * 0.2,
                                    end=horizon_s)
    return sample.tps


def throughput_experiment(
    node_counts=(4, 10, 16, 28, 40),
    max_endorsers: int = 8,
    offered_interval_s: float = 2.0,
    horizon_s: float = 400.0,
    seed: int = 0,
    engine: Engine | None = None,
) -> FigureResult:
    """Committed TPS vs network size under a fixed offered load.

    PBFT's per-transaction cost grows with n, so its committed TPS
    *falls* as the network grows; G-PBFT's committee cap keeps its TPS
    at the small-committee level.
    """
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    node_counts = list(node_counts)
    specs = [
        PointSpec.make("pbft", "tps", n, seed,
                       offered_interval_s=offered_interval_s,
                       horizon_s=horizon_s)
        for n in node_counts
    ] + [
        PointSpec.make("gpbft", "tps", n, seed,
                       offered_interval_s=offered_interval_s,
                       horizon_s=horizon_s, max_endorsers=max_endorsers)
        for n in node_counts
    ]
    values = eng.map(specs)
    pbft = SweepResult("PBFT", "number of nodes", "committed tx/s")
    gpbft = SweepResult("G-PBFT", "number of nodes", "committed tx/s")
    for i, n in enumerate(node_counts):
        pbft.merge_point(n, [values[i]])
        gpbft.merge_point(n, [values[len(node_counts) + i]])
    text = "\n\n".join([
        "Extension -- committed throughput under constant offered load "
        f"({1 / offered_interval_s:.2f} tx/s offered)",
        render_series(pbft),
        render_series(gpbft),
    ])
    return FigureResult(figure_id="ext-throughput", series=[pbft, gpbft], text=text)


def _era_churn_point(interval: float, horizon_s: float,
                     offered_interval_s: float, seed: int) -> float:
    """Mean commit latency with era switches forced every *interval* s."""
    config = _saturating_config(seed, max_endorsers=8)
    dep = TopologySpec.single(10, 8, config=config, seed=seed,
                              start_reports=False).build()

    def reschedule(d=dep, period=interval):
        d.force_era_switch()
        d.sim.schedule(period, reschedule)

    dep.sim.schedule(interval, reschedule)
    t, k = 1.0, 0
    while t < horizon_s:
        node = dep.nodes[8 + (k % 2)]
        tx = node.next_transaction(key=f"churn{k}", value=str(k))
        dep.sim.schedule_at(t, node.client.submit, TxOperation(tx))
        t += offered_interval_s
        k += 1
    dep.sim.run(until=horizon_s + 120.0)
    _note_events(dep.sim)
    latencies = [
        e.data["latency"]
        for e in dep.events.of_kind(EV_REQUEST_COMPLETED)
        if "era-switch" not in e.data["request_id"]
    ]
    if not latencies:
        latencies = [float("inf")]
    return sum(latencies) / len(latencies)


def era_churn_experiment(
    switch_intervals=(5.0, 15.0, 60.0, 300.0),
    horizon_s: float = 300.0,
    offered_interval_s: float = 3.0,
    seed: int = 0,
    engine: Engine | None = None,
) -> FigureResult:
    """Commit latency under sustained era churn.

    Forces composition-preserving era switches every ``interval`` and
    measures the mean commit latency of a constant offered load -- the
    quantitative side of the paper's "T must be neither too small nor
    too large" argument (section III-E): frequent switches interrupt
    in-flight consensus and inflate latency.
    """
    eng = engine if engine is not None else Engine(jobs=1, use_cache=False)
    switch_intervals = list(switch_intervals)
    specs = [
        PointSpec.make("gpbft", "era-churn", interval, seed,
                       horizon_s=horizon_s,
                       offered_interval_s=offered_interval_s)
        for interval in switch_intervals
    ]
    values = eng.map(specs)
    result = SweepResult("G-PBFT", "era switch interval (s)", "mean latency (s)")
    for interval, mean_latency in zip(switch_intervals, values):
        result.merge_point(interval, [mean_latency])
    text = "\n\n".join([
        "Extension -- mean commit latency under sustained era churn",
        render_series(result),
    ])
    return FigureResult(figure_id="ext-era-churn", series=[result], text=text)
