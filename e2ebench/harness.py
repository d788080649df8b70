"""Runs a workload, gates its correctness and turns it into metrics.

The :class:`Recorder` hooks a few ``repro`` entry points at class level
for the length of one run: every host a ``TopologySpec`` builds, every
request a client submits, every f+1-reply commit, and the instant the
first simulated event is about to run (the end of set-up).  The hooks
add one call per request and per commit, which is all the untraced
runs pay; a timed run also stops every ``PACE_INTERVAL_S`` for the pace
probe (:class:`Pace`), whose time is left out.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import tracing
from workloads import WORKLOADS, Outcome, Workload

from repro.common.config import TopologySpec
from repro.common.eventlog import (
    EV_PBFT_NEW_VIEW,
    EV_PBFT_VIEW_CHANGE,
    EV_TX_COMMITTED,
)
from repro.core.messages import TxOperation
from repro.net.simulator import Simulator
from repro.pbft.client import PBFTClient
from repro.pbft.messages import RawOperation
from repro.verify.invariants import InvariantViolation

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Tail percentiles, lowest first; a run reports the highest one that
#: leaves ``TAIL_BEYOND`` samples beyond it.  Fixed rungs, rather than
#: exactly the ``TAIL_BEYOND``-th largest sample, keep the figure from
#: being an extreme order statistic whose spread no sample size reduces.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Largest share of the traced wall time the spans may leave uncovered.
SPAN_COVERAGE_TOLERANCE = 0.05
#: A set-up round: back-to-back dry set-ups for this much wall time,
#: and at least ``SETUP_ROUND_MIN`` of them.  A run holds one round
#: before every instance it runs and one at the end.
SETUP_ROUND_S, SETUP_ROUND_MIN = 0.75, 3
#: The pace probe (see :class:`Pace`): random reads of a table of
#: ``PACE_TABLE`` entries, ``PACE_READS`` per pass, after sweeping a
#: buffer of ``PACE_EVICT_BYTES`` through the cache.
PACE_TABLE, PACE_READS, PACE_EVICT_BYTES = 100_000, 3_000, 4 << 20
#: A timed run stops for a probe pass at the first simulator chunk
#: boundary ``PACE_INTERVAL_S`` after the last one; a chunk is at most
#: ``PACE_CHUNK_EVENTS`` events.
PACE_INTERVAL_S, PACE_CHUNK_EVENTS = 0.05, 2_000
#: One probe pass at the reference pace, in seconds: paced times are
#: wall times scaled to a machine that runs a pass in this long.
PACE_REFERENCE_S = 1.5e-3

E2E_UNITS = {
    "commits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "committed_frac": "frac",
    "kb_per_commit": "KB",
    "outage_s": "s",
}

#: Unit of every per-layer metric of a traced run.
LAYER_UNITS = {
    **{f"{layer}.{metric}": unit for layer in tracing.LAYER_NAMES
       for metric, unit in (("self_s", "s"), ("share", "frac"))},
    "sim.events": "count",
    "sim.events_per_commit": "count",
    "sim.events_per_s": "1/s",
    "sim.fired_frac": "frac",
    "net.msgs_per_commit": "count",
    "net.dropped": "count",
    "net.queue_wait_p50_s": "s",
    "pbft.handler_calls": "count",
    "pbft.view_changes": "count",
    "pbft.new_view_frac": "frac",
    "pbft.client_retries": "count",
    "core.txs_executed": "count",
    "core.era_switches": "count",
    "chain.blocks_appended": "count",
    "geo.reports": "count",
    "verify.events_checked": "count",
    "trace.commits_per_s": "1/s",
    "trace.untraced_commits_per_s": "1/s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


class GateError(Exception):
    """A run broke a correctness rule; its numbers must not be used."""


class _SetupDone(Exception):
    """Raised at the first simulated event of a set-up-only run."""


class Pace:
    """Wall time of a timed run, and the same time at a reference pace.

    A shared machine runs the same code at a pace that drifts by tens
    of percent over seconds and minutes.  The probe is a fixed piece of
    work shaped like the simulator's (dictionary reads scattered over
    a table bigger than the per-core cache) that the run interleaves
    with its own work: every ``PACE_INTERVAL_S`` of the run it times
    one probe pass.  A run's paced time is its wall time times
    ``PACE_REFERENCE_S`` over the mean pass of that run.  Each pass
    first sweeps a buffer through the cache, so it starts equally cold
    whatever the program left there, and reads keys it did not read
    last time.  The table holds only integers, so the garbage collector
    never scans it.  Probe time is left out of the run's wall time.

    Attributes:
        wall_s: wall time of the current run, probes left out.
        passes: probe pass times, in the order they ran.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {i: i for i in range(PACE_TABLE)}
        self._keys = array("l", (rng.randrange(PACE_TABLE) for _ in range(PACE_TABLE)))
        self._evict = bytearray(PACE_EVICT_BYTES)
        self._offset = 0
        self.wall_s = 0.0
        self.passes: list[float] = []
        self._first = 0
        self._mark: float | None = None

    def probe(self) -> float:
        """Time one probe pass."""
        sum(self._evict[::64])
        start, table = self._offset, self._table
        self._offset = (start + PACE_READS) % (PACE_TABLE - PACE_READS)
        keys = self._keys[start:start + PACE_READS]
        acc = 0
        began = time.perf_counter()
        for key in keys:
            acc ^= table[key]
        took = time.perf_counter() - began
        self.passes.append(took)
        return took

    def start(self) -> None:
        """Start timing a run."""
        self.wall_s = 0.0
        self._first = len(self.passes)
        self._mark = time.perf_counter()

    def tick(self, final: bool = False) -> None:
        """Probe if ``PACE_INTERVAL_S`` has passed (or the run is over)."""
        now = time.perf_counter()
        if self._mark is None or (not final and now - self._mark < PACE_INTERVAL_S):
            return
        self.wall_s += now - self._mark
        self.probe()
        self._mark = None if final else time.perf_counter()

    @property
    def paced_s(self) -> float:
        """The current run's wall time at the reference pace."""
        return self.wall_s * PACE_REFERENCE_S / statistics.fmean(self.passes[self._first:])


class Recorder:
    """Sees the requests, commits and hosts of one run.

    Attributes:
        offered: request id -> simulated submit time (requests only).
        control: ids of protocol control operations (era switches).
        completions: ``(simulated time, request id)`` of every f+1-reply
            completion, in the order they happened.
        hosts: every host a ``TopologySpec`` built.
        first_run_at: ``perf_counter()`` when the first simulated event
            was about to run.
        pace: when given, simulator runs are cut into chunks of at most
            ``PACE_CHUNK_EVENTS`` events and the pace ticks between
            them.  The simulator resumes a cut run exactly where it
            stopped, so the run's behaviour is unchanged.
    """

    def __init__(self, on_first_run=None, pace: Pace | None = None) -> None:
        self.offered: dict[str, float] = {}
        self.control: set[str] = set()
        self.completions: list[tuple[float, str]] = []
        self.hosts: list = []
        self.first_run_at: float | None = None
        self.pace = pace
        self._on_first_run = on_first_run

    @contextmanager
    def installed(self):
        """Hook the entry points; restore them on exit."""
        build, init = TopologySpec.build, PBFTClient.__init__
        submit = PBFTClient.submit
        run = Simulator.run
        rec = self

        def rec_build(spec, *args, **kwargs):
            host = build(spec, *args, **kwargs)
            rec.hosts.append(host)
            return host

        def rec_init(client, *args, on_complete=None, **kwargs):
            completions = rec.completions

            def completed(rid, latency):
                completions.append((client.sim.now, rid))
                if on_complete is not None:
                    on_complete(rid, latency)

            init(client, *args, on_complete=completed, **kwargs)

        def rec_submit(client, op):
            rid = submit(client, op)
            if not isinstance(op, (RawOperation, TxOperation)):
                rec.control.add(rid)
            elif rid not in rec.offered:
                rec.offered[rid] = client.sim.now
            return rid

        def started():
            if rec.first_run_at is None:
                rec.first_run_at = time.perf_counter()
                if rec.pace is not None:
                    rec.pace.start()
                if rec._on_first_run is not None:
                    rec._on_first_run()

        def rec_run(sim, until=None, max_events=None):
            started()
            pace = rec.pace
            if pace is None:
                return run(sim, until=until, max_events=max_events)
            fired = 0
            while True:
                chunk = PACE_CHUNK_EVENTS
                if max_events is not None:
                    chunk = min(chunk, max_events - fired)
                done = run(sim, until=until, max_events=chunk)
                fired += done
                pace.tick()
                if done < chunk or (max_events is not None and fired >= max_events):
                    return fired

        TopologySpec.build = rec_build
        PBFTClient.__init__ = rec_init
        PBFTClient.submit = rec_submit
        Simulator.run = rec_run
        try:
            yield self
        finally:
            TopologySpec.build, PBFTClient.__init__ = build, init
            PBFTClient.submit = submit
            Simulator.run = run


@dataclass
class Rep:
    """One complete run of a workload."""

    setup_s: float
    wall_s: float
    paced_s: float
    outcome: Outcome
    rec: Recorder

    @property
    def commits(self) -> list[tuple[float, str]]:
        """Completions of offered requests, in commit order."""
        offered = self.rec.offered
        return [(t, rid) for t, rid in self.rec.completions if rid in offered]

    def networks(self) -> list:
        return list({id(h.network): h.network for h in self.rec.hosts}.values())

    def sims(self) -> list:
        return list({id(h.sim): h.sim for h in self.rec.hosts}.values())

    def event_count(self, kind: str) -> int:
        return sum(h.events.count(kind) for h in self.rec.hosts)


def run_rep(workload: Workload, seed: int, size: int,
            tracer: tracing.Tracer | None = None,
            pace: Pace | None = None) -> Rep:
    """Run *workload* once; spans go to *tracer* when one is given.

    With a *pace*, the run is timed at the reference pace as well (and
    the probe's own time is left out of ``wall_s``); without one,
    ``paced_s`` equals ``wall_s``.
    """
    gc.collect()
    rec = Recorder(on_first_run=tracer.reset if tracer is not None else None,
                   pace=pace)
    spans = tracing.install(tracer) if tracer is not None else nullcontext()
    with rec.installed(), spans:
        start = time.perf_counter()
        outcome = workload.run(seed, size)
        if pace is not None:
            pace.tick(final=True)
        end = time.perf_counter()
    if pace is not None:
        wall, paced = pace.wall_s, pace.paced_s
    else:
        wall = paced = end - rec.first_run_at
    return Rep(rec.first_run_at - start, wall, paced, outcome, rec)


def setup_time(workload: Workload, seed: int, size: int) -> float:
    """Wall time from the start of a run to its first simulated event.

    The run is abandoned there, so only set-up is paid for.  The
    collector is off while it is timed, so no collection of an earlier
    run's garbage lands inside.
    """
    gc.collect()

    def stop():
        raise _SetupDone

    rec = Recorder(on_first_run=stop)
    gc.disable()
    try:
        with rec.installed():
            start = time.perf_counter()
            try:
                workload.run(seed, size)
            except _SetupDone:
                pass
    finally:
        gc.enable()
    if rec.first_run_at is None:
        raise GateError(f"{workload.name}: no simulated event ever ran")
    return rec.first_run_at - start


# -- correctness gate ----------------------------------------------------------


def check(rep: Rep) -> None:
    """Raise :class:`GateError` unless the run's outputs are correct.

    Every completion must belong to an offered request or a control op
    and happen once; replicated state must agree in every cluster and
    zone; G-PBFT ledgers must be prefix-consistent, every transaction
    in one block only, and the invariant monitors clean at the end.
    """
    rec = rep.rec
    seen: set[str] = set()
    for at, rid in rec.completions:
        if rid in seen:
            raise GateError(f"request {rid} completed twice")
        seen.add(rid)
        if rid not in rec.offered and rid not in rec.control:
            raise GateError(f"completed request {rid} was never offered")
        if rid in rec.offered and at < rec.offered[rid]:
            raise GateError(f"request {rid} completed before it was offered")
    for host in rec.hosts:
        if hasattr(host, "all_agree"):
            if not host.all_agree():
                raise GateError("replicas of a cluster executed different ops")
            for node in host.executors:
                ops = host.committed_ops(node)
                if len(ops) != len(set(ops)):
                    raise GateError(f"replica {node} executed an op twice")
        if hasattr(host, "ledgers_consistent"):
            if not host.ledgers_consistent():
                raise GateError("G-PBFT ledgers are not prefix-consistent")
            for node in host.endorsers:
                ids = [tx.tx_id for h in range(1, node.ledger.height + 1)
                       for tx in node.ledger.block_at(h).transactions]
                if len(ids) != len(set(ids)):
                    raise GateError(f"endorser {node.node_id} holds a tx twice")
        if getattr(host, "monitors", None) is not None:
            try:
                host.monitors.check_final()
            except InvariantViolation as exc:
                raise GateError(f"invariant monitor: {exc}") from exc


# -- metrics ---------------------------------------------------------------


def digest(rep: Rep) -> str:
    """sha256 over the ordered (commit time, request id) stream + events."""
    h = hashlib.sha256()
    for at, rid in rep.commits:
        h.update(f"{at!r} {rid}\n".encode())
    h.update(f"events {sum(s.events_processed for s in rep.sims())}\n".encode())
    return h.hexdigest()


def resume_waits(rep: Rep) -> tuple[list[float], int]:
    """How long each request offered after the fault waited for service.

    A request offered at *t* sees service resume at the first commit of
    any request offered at or after *t* (itself included); a wait that
    no commit ends is censored at the end of the run.  Without a fault
    every request counts.  Returns the waits and how many were censored.
    """
    commit_at = {rid: at for at, rid in rep.commits}
    since = rep.outcome.crash_s if rep.outcome.crash_s is not None else -math.inf
    arrivals = sorted((at, rid) for rid, at in rep.rec.offered.items() if at >= since)
    resume, waits, censored = math.inf, [], 0
    for at, rid in reversed(arrivals):
        resume = min(resume, commit_at.get(rid, math.inf))
        censored += resume == math.inf
        waits.append(min(resume, rep.outcome.end_s) - at)
    return waits, censored


def outage_after(rep: Rep, since: float) -> tuple[float, bool]:
    """Time from *since* to the first commit of a request offered after it."""
    offered = rep.rec.offered
    first = min((at for at, rid in rep.commits if offered[rid] >= since),
                default=None)
    if first is None:
        return rep.outcome.end_s - since, True
    return first - since, False


@dataclass
class Instance:
    """What one simulated run contributes to the metrics."""

    setup_s: float
    wall_s: float
    paced_s: float
    digest: str
    latencies: list[float]
    offered: int
    bytes_sent: int
    waits: list[float]
    censored_waits: int
    events: int
    notes: dict


def summarize(rep: Rep) -> Instance:
    """Gate *rep* and keep only what the metrics need (hosts are freed)."""
    check(rep)
    offered = rep.rec.offered
    notes = dict(rep.outcome.notes)
    waits, censored = resume_waits(rep)
    if rep.outcome.crash_s is not None:
        notes["outage_from_crash_s"] = outage_after(rep, rep.outcome.crash_s)
    return Instance(
        setup_s=rep.setup_s,
        wall_s=rep.wall_s,
        paced_s=rep.paced_s,
        digest=digest(rep),
        latencies=[at - offered[rid] for at, rid in rep.commits],
        offered=len(offered),
        bytes_sent=sum(net.stats.bytes_sent for net in rep.networks()),
        waits=waits,
        censored_waits=censored,
        events=sum(s.events_processed for s in rep.sims()),
        notes=notes,
    )


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of the independent simulations one run pools."""
    return [seed * workload.instances + i for i in range(workload.instances)]


def batch_digest(batch: list[Instance]) -> str:
    """One digest for a run: sha256 over its instances' digests."""
    return hashlib.sha256(" ".join(i.digest for i in batch).encode()).hexdigest()


def simulated_metrics(batch: list[Instance]) -> tuple[dict, dict]:
    """Deterministic end-to-end metrics pooled over *batch*, plus facts."""
    latencies = sorted(x for inst in batch for x in inst.latencies)
    n = len(latencies)
    ranks = [(q, math.ceil(q / 100.0 * n) - 1) for q in TAIL_PERCENTILES]
    ranks = [(q, rank) for q, rank in ranks if n - 1 - rank >= TAIL_BEYOND]
    if not ranks:
        raise GateError(f"{n} commits leave no percentile {TAIL_BEYOND} samples beyond")
    tail_q, tail_rank = ranks[-1]
    offered = sum(inst.offered for inst in batch)
    waits = [w for inst in batch for w in inst.waits]
    censored = sum(inst.censored_waits for inst in batch)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[tail_rank],
        "committed_frac": n / offered,
        "kb_per_commit": sum(inst.bytes_sent for inst in batch) / 1024.0 / n,
        "outage_s": statistics.median(waits),
    }
    facts = {
        "instances": len(batch),
        "offered": offered,
        "committed": n,
        "failed_frac": 1.0 - n / offered,
        "tail_percentile": tail_q,
        "latency_samples": n,
        "outage_waits": len(waits),
        "outage_waits_censored": censored,
        "outage_censored_frac": censored / len(waits),
        "events": sum(inst.events for inst in batch),
        "digest": batch_digest(batch),
        "per_instance": [inst.notes for inst in batch],
    }
    return metrics, facts


def _scheduled(sim) -> int:
    """Events ever scheduled on *sim*: the next sequence number."""
    probe = sim.schedule(0.0, int)
    probe.cancel()
    return probe.seq


def layer_metrics(rep: Rep, tracer: tracing.Tracer, untraced: Rep) -> dict:
    """Per-layer metrics of a traced run (*untraced*: same run, no spans)."""
    commits = len(rep.commits)
    wall = rep.wall_s
    out: dict = {}
    self_s = tracer.layer_self()
    for layer in tracing.LAYER_NAMES:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall
    events = sum(s.events_processed for s in rep.sims())
    networks = rep.networks()
    votes = rep.event_count(EV_PBFT_VIEW_CHANGE)
    gpbft_nodes = [n for h in rep.rec.hosts for n in getattr(h, "nodes", {}).values()]
    waits = tracer.queue_waits
    out.update({
        "sim.events": events,
        "sim.events_per_commit": events / commits,
        "sim.events_per_s": events / untraced.wall_s,
        "sim.fired_frac": events / sum(_scheduled(s) for s in rep.sims()),
        "net.msgs_per_commit": sum(n.stats.messages_sent for n in networks) / commits,
        "net.dropped": sum(n.stats.messages_dropped for n in networks),
        "net.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "pbft.handler_calls": (tracer.calls("PBFTReplica.receive")
                               + tracer.calls("PBFTClient.receive")),
        "pbft.view_changes": votes,
        "pbft.new_view_frac": rep.event_count(EV_PBFT_NEW_VIEW) / votes if votes else 0.0,
        "pbft.client_retries": tracer.calls("PBFTClient._retry"),
        "core.txs_executed": rep.event_count(EV_TX_COMMITTED),
        "core.era_switches": max((n.era for n in gpbft_nodes), default=0),
        "chain.blocks_appended": tracer.calls("Ledger.append"),
        "geo.reports": sum(n.stats.messages_by_kind.get("geo.report", 0)
                           for n in networks),
        "verify.events_checked": sum(h.events.total_appended for h in rep.rec.hosts
                                     if getattr(h, "monitors", None) is not None),
        "trace.commits_per_s": commits / wall,
        "trace.untraced_commits_per_s": commits / untraced.wall_s,
        "trace.overhead_frac": wall / untraced.wall_s - 1.0,
        "trace.unattributed_frac": 1.0 - sum(self_s.values()) / wall,
    })
    return out


# -- one benchmark invocation ------------------------------------------------


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_layers(name: str, seed: int,
                   size: int | None = None) -> tuple[dict, str]:
    """Per-layer metrics of the run's first instance, and its digest.

    The instance runs twice, untraced then traced; both must behave
    the same, and the spans must cover the traced wall time.
    """
    workload = WORKLOADS[name]
    size = size if size is not None else workload.size
    first = instance_seeds(workload, seed)[0]
    untraced = run_rep(workload, first, size)
    check(untraced)
    tracer = tracing.Tracer()
    rep = run_rep(workload, first, size, tracer)
    check(rep)
    if digest(rep) != digest(untraced):
        raise GateError("tracing changed the run's behaviour")
    metrics = layer_metrics(rep, tracer, untraced)
    tracer.report()
    uncovered = metrics["trace.unattributed_frac"]
    if abs(uncovered) > SPAN_COVERAGE_TOLERANCE:
        raise GateError(f"spans leave {uncovered:.3f} of the traced wall time "
                        f"unattributed (tolerance {SPAN_COVERAGE_TOLERANCE})")
    return metrics, digest(rep)


def setup_round(workload: Workload, seed: int, pace: Pace) -> list[tuple[float, float]]:
    """One round of back-to-back dry set-ups (see ``SETUP_ROUND_S``).

    Returns each set-up's wall time with a probe pass timed right after.
    """
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()
    while (len(setups) < SETUP_ROUND_MIN
           or time.perf_counter() - start < SETUP_ROUND_S):
        setups.append((setup_time(workload, seed, workload.size), pace.probe()))
    return setups


def measure_e2e(name: str, seed: int, seconds: float) -> tuple[dict, dict, int]:
    """End-to-end metrics, the facts printed with them, and runs made.

    Whole batches until the next one would overrun *seconds* (at least
    one), with a set-up round before every instance and one at the
    end.  Every batch must produce the same digest.  Times are reported
    at the reference pace (:class:`Pace`); the wall-clock figures are
    printed with the facts.
    """
    workload = WORKLOADS[name]
    seeds = instance_seeds(workload, seed)
    rss_before = peak_rss_mb()
    pace = Pace()
    probe_rss_mb = peak_rss_mb() - rss_before
    setups: list[tuple[float, float]] = []
    batches: list[list[Instance]] = []
    start = time.perf_counter()
    while True:
        batch = []
        for s in seeds:
            setups += setup_round(workload, seeds[0], pace)
            batch.append(summarize(run_rep(workload, s, workload.size, pace=pace)))
        if batches and batch_digest(batch) != batch_digest(batches[0]):
            raise GateError("two runs of one seed behaved differently")
        batches.append(batch)
        spent = time.perf_counter() - start
        if (spent + len(seeds) * SETUP_ROUND_S
                + sum(i.setup_s + i.wall_s for i in batch) > seconds):
            break
    setups += setup_round(workload, seeds[0], pace)
    metrics, facts = simulated_metrics(batches[0])
    instances = [i for b in batches for i in b]
    commits = sum(len(i.latencies) for i in instances)
    values = {
        "commits_per_s": commits / sum(i.paced_s for i in instances),
        "setup_s": (statistics.median(wall for wall, _ in setups) * PACE_REFERENCE_S
                    / statistics.median(probe for _, probe in setups)),
        "peak_rss_mb": peak_rss_mb(),
        **metrics,
    }
    for key, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise GateError(f"{key} = {value}: every end-to-end metric must be > 0")
    facts["wall_commits_per_s"] = commits / sum(i.wall_s for i in instances)
    facts["setups"] = len(setups)
    facts["setup_wall_median_s"] = statistics.median(wall for wall, _ in setups)
    facts["probe_rss_mb"] = probe_rss_mb
    facts["probe_passes"] = len(pace.passes)
    facts["probe_mean_s"] = statistics.fmean(pace.passes)
    return values, facts, len(instances)
