"""Harness: a complete G-PBFT network over one simulator.

Builds the deployment the paper evaluates: a small physical region, a
population of IoT nodes (fixed and mobile), a genesis committee of core
endorsers, and the full G-PBFT stack on every node.  Mirrors
:class:`repro.pbft.cluster.PBFTCluster` so experiments can swap the two
protocols behind one interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import GPBFTConfig, TopologySpec
from repro.common.errors import ConsensusError
from repro.common.eventlog import EventLog
from repro.common.rng import DeterministicRNG
from repro.chain.genesis import build_genesis
from repro.core.node import GPBFTNode
from repro.geo.coords import LatLng, Region
from repro.geo.index import IndexedDirectory
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observability

#: Default deployment area: a ~1 km-square city district (Hong Kong).
DEFAULT_REGION = Region.around(LatLng(22.3193, 114.1694), half_side_m=500.0)


class GPBFTDeployment:
    """N IoT nodes running G-PBFT in one simulated region.

    Build one with ``TopologySpec.single(...).build()``; the spec
    carries every shape value (node and committee counts, region,
    ordering mode, seed, Sybil defence, ...).

    Args:
        spec: a single-zone :class:`~repro.common.config.TopologySpec`.
        sim: pass an existing simulator to co-host other components.
        faults: node id -> fault model (crash/byzantine injection).
        obs: optional observability sink.
    """

    def __init__(
        self,
        spec: TopologySpec,
        sim: Simulator | None = None,
        faults: dict | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.spec = spec
        zone = spec.deployment_zone()
        self.id_base = id_base = zone.id_base
        self.config = spec.config or GPBFTConfig()
        policy = self.config.committee
        n_nodes = zone.n_nodes
        n_endorsers = zone.committee_size(policy)
        region = zone.region if zone.region is not None else DEFAULT_REGION
        seed = spec.zone_seed(0)

        self.sim = sim or Simulator()
        self.rng = DeterministicRNG(seed, "deployment")
        self.network = SimulatedNetwork(
            self.sim, self.config.network, rng=DeterministicRNG(seed, "network")
        )
        self.events = EventLog(capacity=spec.event_capacity)
        self.obs = obs
        if obs is not None:
            obs.bind(self.sim, self.network)
        self.region = region
        self.mode = spec.mode
        self.monitors = None
        if self.config.verify.monitors:
            from repro.verify.invariants import MonitorHarness

            self.monitors = MonitorHarness(self, self.config.verify)
        if obs is not None:
            obs.attach_host(self)

        # -- placement -------------------------------------------------------
        placement = self.rng.fork("placement")
        self.positions: dict[int, LatLng] = {
            node: region.sample(placement)
            for node in range(id_base, id_base + n_nodes)
        }
        endorser_ids = tuple(range(id_base, id_base + n_endorsers))
        self.genesis = build_genesis(
            {node: self.positions[node] for node in endorser_ids},
            policy=policy,
            precision=self.config.election.csc_precision,
        )

        # -- nodes ------------------------------------------------------------
        # indexed directory: nodes route and witness via spatial queries
        self.directory: IndexedDirectory = IndexedDirectory(self.positions)
        self.nodes: dict[int, GPBFTNode] = {}
        # heterogeneous hardware profiles (empty map = uniform fleet;
        # the wiring below is then a structural no-op, keeping the
        # unprofiled path bit-identical)
        self.profiles = zone.profiles
        self.profile_map: dict[int, object] = (
            zone.profiles.assign(range(id_base, id_base + n_nodes))
            if zone.profiles is not None else {})
        self.availability: list = []
        for node_id in range(id_base, id_base + n_nodes):
            fixed = (node_id in endorser_ids
                     or placement.random() < zone.fixed_fraction)
            node = GPBFTNode(
                node_id=node_id,
                position=self.positions[node_id],
                sim=self.sim,
                network=self.network,
                genesis=self.genesis,
                config=self.config,
                directory=self.directory,
                event_log=self.events,
                rng=self.rng.fork(f"node/{node_id}"),
                fixed=fixed,
                mode=self.mode,
                block_interval_s=spec.block_interval_s,
                faults=(faults or {}).get(node_id),
                obs=obs,
                profile=self.profile_map.get(node_id),
            )
            node._chain_sync_hook = self._chain_sync
            self.nodes[node_id] = node
            self.network.register(node_id, node.on_envelope)
            if spec.start_reports:
                node.start_reporting()
        if self.profile_map:
            self._apply_profiles()

        # -- Sybil defence -----------------------------------------------------
        self.sybil_protection = spec.sybil_protection
        self.witness_range_m = spec.witness_range_m
        self._oracle = None
        if spec.sybil_protection:
            from repro.sybil.detection import GroundTruthWitnessOracle

            self._oracle = GroundTruthWitnessOracle(self.directory,
                                                    spec.witness_range_m)
            for _, node in sorted(self.nodes.items()):
                self._install_admission(node)
        self._start_reports = spec.start_reports
        self._next_node_id = id_base + n_nodes

    def _install_admission(self, node: GPBFTNode) -> None:
        """Give *node* the geographic report-admission filter
        (exclusivity + witness corroboration) of the Sybil defence."""
        from repro.geo.verification import LocationAuditor
        from repro.sybil.detection import ReportAdmission

        node.admission = ReportAdmission(
            LocationAuditor(
                witness_range_m=self.witness_range_m,
                precision=self.config.election.csc_precision,
                # a cell claim holds for a full reporting round: one 1 m^2
                # cell hosts one fixed device, so a second identity
                # claiming it inside the round is a duplicate
                round_seconds=self.config.election.report_interval_s,
            ),
            self._oracle,
        )

    # ------------------------------------------------------------------

    def _apply_profiles(self) -> None:
        """Wire per-node hardware profiles into the network and clock.

        CPU class becomes a per-node processing-interval override on
        the network; battery duty cycles become availability drivers
        toggling the node offline/online on their window boundaries.
        Phases are drawn from stateless RNG forks, so an unprofiled
        node's streams are untouched.
        """
        # imported lazily: repro.workloads imports this module at
        # package-init time, so a module-scope import would cycle
        from repro.workloads.profiles import AvailabilityDriver

        base_rate = self.config.network.processing_rate
        for node_id in sorted(self.profile_map):
            profile = self.profile_map[node_id]
            if profile.cpu_scale != 1.0:  # gpb: allow GPB004 -- 1.0 is the exact uniform sentinel, never the result of arithmetic
                self.network.set_processing_interval(
                    node_id, profile.processing_interval_s(base_rate))
            if profile.duty_fraction < 1.0:
                phase = self.rng.fork(f"duty/{node_id}").uniform(
                    0.0, profile.duty_period_s)
                cycle = profile.duty_cycle(phase_s=phase)
                driver = AvailabilityDriver(self.network, node_id, cycle)
                driver.start()
                self.availability.append(driver)

    @property
    def committee(self) -> tuple[int, ...]:
        """The committee according to the lowest-id current member."""
        for node_id in sorted(self.nodes):
            if self.nodes[node_id].is_member:
                return self.nodes[node_id].committee
        raise ConsensusError("no active committee member found")

    @property
    def endorsers(self) -> list[GPBFTNode]:
        """Nodes currently holding the endorser role, in id order."""
        return [self.nodes[i] for i in sorted(self.nodes) if self.nodes[i].is_member]

    @property
    def devices(self) -> list[GPBFTNode]:
        """Nodes currently acting purely as clients, in id order."""
        return [self.nodes[i] for i in sorted(self.nodes) if not self.nodes[i].is_member]

    def _chain_sync(self, node: GPBFTNode, from_node: int) -> None:
        """State transfer for newly elected endorsers.

        Copies the missing blocks from *from_node*'s ledger and charges
        their bytes as one ``chain.sync`` transfer on the traffic stats
        (a real implementation would stream them; latency of the stream
        is dominated by the switch period and omitted).
        """
        source = self.nodes[from_node].ledger
        total = 0
        for height in range(node.ledger.height + 1, source.height + 1):
            block = source.block_at(height)
            node.ledger.append(block)
            total += block.size_bytes
        if total > 0:
            self.network.stats.on_send(from_node, "chain.sync", total)  # gpb: allow GPB013 -- traffic-stats category, not an event/wire kind; chain-sync bytes are accounted, never encoded or dispatched
            self.network.stats.on_deliver(node.node_id, "chain.sync", total)  # gpb: allow GPB013 -- traffic-stats category, not an event/wire kind

    # ------------------------------------------------------------------
    # attacker injection
    # ------------------------------------------------------------------

    def add_sybils(
        self,
        count: int,
        strategy=None,
        true_position: LatLng | None = None,
        seed: int = 99,
    ):
        """Register *count* Sybil identities controlled by one attacker.

        Each identity is a full protocol node whose *reported* position
        is the fabricated claim, while the ground-truth directory records
        the attacker's single true position -- so witness oracles see the
        physics, not the lie.

        Returns:
            The :class:`~repro.sybil.attacker.SybilAttacker` holding the
            created identities.
        """
        from repro.sybil.attacker import SybilAttacker, SybilStrategy

        strategy = strategy or SybilStrategy.EMPTY_CELL
        attacker = SybilAttacker(
            true_position=true_position or self.region.center,
            region=self.region,
            strategy=strategy,
            rng=DeterministicRNG(seed, "sybil"),
        )
        ids = list(range(self._next_node_id, self._next_node_id + count))
        self._next_node_id += count
        honest_positions = {i: p for i, p in self.positions.items()}
        identities = attacker.spawn_identities(ids, honest_positions)
        for identity in identities:
            node = GPBFTNode(
                node_id=identity.node_id,
                position=identity.claimed_position,
                sim=self.sim,
                network=self.network,
                genesis=self.genesis,
                config=self.config,
                directory=self.directory,
                event_log=self.events,
                rng=self.rng.fork(f"sybil/{identity.node_id}"),
                fixed=True,
                mode=self.mode,
            )
            node._chain_sync_hook = self._chain_sync
            self.nodes[identity.node_id] = node
            self.network.register(identity.node_id, node.on_envelope)
            # physics: the attacker's hardware sits at its true position
            self.directory[identity.node_id] = identity.true_position
            if self._oracle is not None:
                self._install_admission(node)
            if self._start_reports:
                node.start_reporting()
        return attacker

    # ------------------------------------------------------------------
    # experiment helpers
    # ------------------------------------------------------------------

    def submit_from(self, node_id: int) -> str:
        """Submit one auto-generated transaction from *node_id*."""
        return self.nodes[node_id].submit_transaction()

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the simulation."""
        return self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> int:
        """Advance the simulation by *duration* seconds."""
        return self.sim.run_for(duration)

    def completed_latencies(self) -> dict[str, float]:
        """request id -> commit latency, across every node's client."""
        out: dict[str, float] = {}
        for _, node in sorted(self.nodes.items()):
            out.update(node.client.completed)
        return out

    def ledgers_consistent(self) -> bool:
        """True iff every active endorser holds a prefix-consistent chain."""
        chains = []
        for node in self.endorsers:
            chain = [node.ledger.block_at(h).digest() for h in range(node.ledger.height + 1)]
            chains.append(chain)
        if not chains:
            return True
        shortest = min(len(c) for c in chains)
        head = [c[:shortest] for c in chains]
        return all(c == head[0] for c in head)

    def force_audit(self) -> None:
        """Run one Algorithm-1 audit on every endorser immediately
        (experiments use this instead of waiting for the era period)."""
        for node in self.endorsers:
            if node.replica is not None and not node.switching:
                node._run_audit()

    def force_era_switch(self) -> None:
        """Commit a composition-preserving era switch right now.

        Used by the Fig. 3b reproduction to place a switch period inside
        the measurement window (the circled latency outliers).
        """
        from repro.core.messages import EraSwitchOperation

        members = self.committee
        lead = self.nodes[members[0]]
        op = EraSwitchOperation(
            new_era=lead.era + 1, committee=members, added=(), removed=()
        )
        lead.client.submit(op)
