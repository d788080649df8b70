"""Harness: a complete PBFT deployment over one simulator.

Wires N replicas (each with its own ledger-backed executor) and any
number of clients onto a :class:`~repro.net.network.SimulatedNetwork`.
This is the configuration measured as "PBFT" throughout the paper's
evaluation: *all* participating nodes are replicas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.common.eventlog import EV_PBFT_STATE_TRANSFER, EventLog
from repro.crypto.hashing import sha256
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.pbft.client import PBFTClient
from repro.pbft.faults import FaultModel
from repro.pbft.messages import Operation
from repro.pbft.replica import PBFTReplica

if TYPE_CHECKING:
    from repro.obs.core import Observability


#: Executed (seq, op_id) records kept per replica before the oldest are
#: trimmed (GPB015 bound convention).  The rolling state digest is
#: unaffected; only ``committed_ops`` queries lose sight of the trimmed
#: prefix, far beyond what any test or sweep inspects.  Million-request
#: aggregated runs rely on the trim to keep executor memory flat.
_EXECUTED_OPS_BOUND = 50_000


class _ExecutedLog:
    """Minimal deterministic executor: a bounded op log + rolling digest."""

    def __init__(self) -> None:
        self.ops: list[tuple[int, str]] = []
        #: per-instance trim bound; day-long aggregated points lower it
        #: so executor memory plateaus well before the default would
        self.bound = _EXECUTED_OPS_BOUND
        self._digest = sha256(b"exec-log")

    def execute(self, op, seq: int, view: int) -> bytes:
        self.ops.append((seq, op.op_id))
        if len(self.ops) > 2 * self.bound:
            # amortized trim: drop the oldest half in one slice so the
            # per-execute cost stays O(1)
            del self.ops[: len(self.ops) - self.bound]
        self._digest = sha256(self._digest + op.signing_bytes())
        return self._digest

    def digest(self) -> bytes:
        return self._digest

    def install_snapshot(self, other: "_ExecutedLog") -> None:
        """Adopt a peer's state wholesale (checkpoint state transfer)."""
        self.ops = list(other.ops)
        self._digest = other._digest


class PBFTCluster:
    """N replicas + M clients on a fresh simulator and network.

    Build one with ``TopologySpec.cluster(...).build()``; the spec
    carries the replica and client counts, the configuration bundle
    (network + pbft sections used) and any hardware profiles.

    Args:
        spec: a pbft :class:`~repro.common.config.TopologySpec`.
        sim: pass an existing simulator to co-host other components.
        faults: optional map replica id -> :class:`FaultModel`.
        obs: optional observability sink.

    Attributes:
        replicas: id -> :class:`PBFTReplica`.
        clients: id -> :class:`PBFTClient` (ids follow the replicas).
        events: shared :class:`EventLog` with submission/commit events.
    """

    def __init__(
        self,
        spec: TopologySpec,
        sim: Simulator | None = None,
        faults: dict[int, FaultModel] | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.spec = spec
        self.config = spec.config or GPBFTConfig()
        self.sim = sim or Simulator()
        self.network = SimulatedNetwork(self.sim, self.config.network)
        self.events = EventLog(capacity=spec.event_capacity)
        self.obs = obs
        if obs is not None:
            obs.bind(self.sim, self.network)
        self.committee = tuple(range(spec.n_replicas))
        self.monitors = None
        if self.config.verify.monitors:
            from repro.verify.invariants import MonitorHarness

            self.monitors = MonitorHarness(self, self.config.verify)
        if obs is not None:
            obs.attach_host(self)
        faults = faults or {}

        self.executors: dict[int, _ExecutedLog] = {}
        self.replicas: dict[int, PBFTReplica] = {}
        for node in self.committee:
            executed = _ExecutedLog()
            self.executors[node] = executed
            replica = PBFTReplica(
                node_id=node,
                committee=self.committee,
                sim=self.sim,
                send=self._sender(node),
                config=self.config.pbft,
                executor=executed.execute,
                state_digest_fn=executed.digest,
                event_log=self.events,
                faults=faults.get(node),
                state_transfer_fn=self._make_state_transfer(node),
                obs=obs,
            )
            self.replicas[node] = replica
            self.network.register(node, self._replica_handler(replica))

        # heterogeneous replica hardware: CPU class scales each
        # replica's receive-side processing rate (no mix = no-op)
        self.profile_map: dict[int, object] = {}
        if spec.profiles is not None:
            self.profile_map = spec.profiles.assign(self.committee)
            base_rate = self.config.network.processing_rate
            for node in self.committee:
                profile = self.profile_map[node]
                if profile.cpu_scale != 1.0:  # gpb: allow GPB004 -- 1.0 is the exact uniform sentinel, never the result of arithmetic
                    self.network.set_processing_interval(
                        node, profile.processing_interval_s(base_rate))

        self.clients: dict[int, PBFTClient] = {}
        for i in range(spec.n_clients):
            node = spec.n_replicas + i
            client = PBFTClient(
                node_id=node,
                committee=self.committee,
                sim=self.sim,
                send=self._sender(node),
                config=self.config.pbft,
                event_log=self.events,
                obs=obs,
            )
            self.clients[node] = client
            self.network.register(node, self._client_handler(client))

    def _sender(self, src: int):
        return lambda dst, payload: self.network.send(src, dst, payload)

    def _make_state_transfer(self, node: int):
        """Checkpoint catch-up: install the state of an up-to-date peer.

        Charges one ``pbft.state_transfer`` message of the snapshot's
        size on the traffic counters (a real transfer would stream it).
        """

        def transfer(target_seq: int) -> int | None:
            for peer_id, peer in self.replicas.items():
                if peer_id == node or peer.faults.crashed:
                    continue
                if peer.last_executed >= target_seq:
                    self.executors[node].install_snapshot(self.executors[peer_id])
                    snapshot_bytes = 32 + 64 + 200 * len(self.executors[peer_id].ops)
                    self.network.stats.on_send(peer_id, EV_PBFT_STATE_TRANSFER,
                                               snapshot_bytes)
                    self.network.stats.on_deliver(node, EV_PBFT_STATE_TRANSFER,
                                                  snapshot_bytes)
                    return peer.last_executed
            return None

        return transfer

    @staticmethod
    def _replica_handler(replica: PBFTReplica):
        return lambda envelope: replica.receive(envelope.payload)

    @staticmethod
    def _client_handler(client: PBFTClient):
        return lambda envelope: client.receive(envelope.payload)

    # -- convenience -----------------------------------------------------------

    @property
    def any_client(self) -> PBFTClient:
        """The lowest-id client (a spec always has at least one)."""
        return self.clients[min(self.clients)]

    def submit(self, op: Operation, client_id: int | None = None) -> str:
        """Submit *op* through a client; returns the request id."""
        client = self.clients[client_id] if client_id is not None else self.any_client
        return client.submit(op)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the simulation (delegates to the simulator)."""
        return self.sim.run(until=until, max_events=max_events)

    def run_until_quiescent(self, max_events: int = 5_000_000) -> None:
        """Drain every scheduled event (timers included) up to a safety cap."""
        fired = self.sim.run(max_events=max_events)
        if fired >= max_events:
            raise ConsensusError(f"simulation did not quiesce within {max_events} events")

    def committed_ops(self, node: int) -> list[str]:
        """Op ids executed by *node*, in execution order."""
        return [op_id for _seq, op_id in sorted(self.executors[node].ops)]

    def all_agree(self) -> bool:
        """True iff every non-crashed replica executed the same op sequence."""
        sequences = [
            self.committed_ops(node)
            for node, replica in self.replicas.items()
            if not replica.faults.crashed
        ]
        reference_len = min(len(s) for s in sequences) if sequences else 0
        head = [s[:reference_len] for s in sequences]
        return all(h == head[0] for h in head)
