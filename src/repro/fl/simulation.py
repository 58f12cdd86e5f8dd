"""The synchronous federated-learning round loop (Algorithm 2).

:class:`FederatedSimulation` drives N clients through T communication
rounds: sample K participants, broadcast the global weights, collect local
updates, aggregate them through the shared pipeline
(:mod:`repro.fl.pipeline` — impact factors, defense, eq. (4)), and
evaluate.
Per-round records capture everything the paper's figures need — test
accuracy (Fig. 5/7/8), per-client inference-loss statistics (Fig. 6),
impact factors, and the server-side timing split (Fig. 9).

Client execution is delegated to a pluggable :class:`repro.runtime`
backend (serial / thread / process — all bit-identical for a given seed
thanks to ``(round, client)``-keyed batch RNGs), and an optional
:class:`~repro.runtime.clock.VirtualClock` overlays simulated device
latency: per-round makespans are recorded alongside the real timings, and
a ``drop``-policy deadline excludes straggler updates from aggregation.

An optional :class:`~repro.fleet.FleetSimulator` adds *dynamic* fleet
behavior on top: the selection pool is filtered to clients online at the
round's simulated start (the server waits, advancing the clock, if nobody
is), selected clients may run only part of their local batch budget, and
a client's finished update may drop mid-round — its compute time still
counts toward the makespan, but the update never reaches aggregation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.client import Client, ClientUpdate
from repro.fl.pipeline import aggregate_window, count_window, upload
from repro.fl.strategies.base import Strategy
from repro.fleet.columnar import FleetState
from repro.fleet.simulator import FleetSimulator
from repro.nn.losses import SoftmaxCrossEntropy, evaluate_loss
from repro.nn.metrics import top1_accuracy
from repro.nn.model import Sequential
from repro.obs.trace import (
    CAT_AGGREGATION,
    CAT_COMM,
    CAT_COMPUTE,
    CAT_FLEET,
    CAT_IDLE,
    CAT_QUEUE_WAIT,
    CAT_RUNTIME,
    CAT_WINDOW,
    Tracer,
)
from repro.runtime.checkpoint import restore_weights
from repro.runtime.clock import RoundTiming, VirtualClock, n_local_batches
from repro.runtime.executor import Executor, RoundContext, SerialExecutor
from repro.runtime.faults import FaultPlan, FaultStats, absorb_fault_stats


@dataclass
class FLConfig:
    """Simulation hyper-parameters (paper Section 4.1 defaults)."""

    rounds: int = 50
    clients_per_round: int = 10
    local_epochs: int = 5
    lr: float = 0.01
    batch_size: int = 10
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds <= 0 or self.clients_per_round <= 0:
            raise ValueError("rounds and clients_per_round must be positive")
        if self.local_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("local_epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")


@dataclass
class RoundRecord:
    """Everything observed in one communication round."""

    round_idx: int
    participants: list[int]
    impact_factors: np.ndarray
    client_losses_before: np.ndarray
    client_losses_after: np.ndarray
    client_sizes: np.ndarray
    impact_time_s: float
    aggregation_time_s: float
    test_accuracy: float | None = None
    test_loss: float | None = None
    # Virtual-clock fields (None / empty when no clock is attached).
    sim_makespan_s: float | None = None
    dropped_clients: list[int] = field(default_factory=list)
    # Async-aggregation fields (empty for synchronous rounds): per-update
    # staleness in model versions and the decay factor applied to each.
    staleness: list[int] = field(default_factory=list)
    staleness_factors: list[float] = field(default_factory=list)
    # Fleet-simulator fields (None / empty when no fleet is attached):
    # clients online at the round's simulated start, simulated seconds the
    # server waited for an online client, updates lost to mid-round
    # dropout (compute paid, upload lost), and each participant's sampled
    # work fraction (1.0 = full local budget).
    online_count: int | None = None
    wait_s: float = 0.0
    connectivity_dropped: list[int] = field(default_factory=list)
    work_fractions: dict[int, float] = field(default_factory=dict)
    # Adversarial-fleet fields (empty / None without an attack or defense,
    # see repro.fl.robust): malicious clients among the aggregated
    # participants, updates the robust aggregator rejected (Krum family)
    # or norm-clipped, and accuracy on the backdoor attack-task test set
    # (the attack success rate).
    malicious_selected: list[int] = field(default_factory=list)
    rejected_updates: list[int] = field(default_factory=list)
    clipped_updates: list[int] = field(default_factory=list)
    backdoor_accuracy: float | None = None
    # Wire-subsystem fields (zero without a wire format, see
    # repro.fl.wire): exact serialized bytes moved this round/flush —
    # uploads actually transmitted, global-model broadcasts, and what the
    # same uploads would have cost uncompressed (the dense baseline the
    # compression ratio is measured against).
    payload_bytes_up: int = 0
    payload_bytes_down: int = 0
    dense_bytes_up: int = 0


@dataclass
class EventRecord:
    """One client-update *arrival* in an asynchronous run.

    Synchronous rounds have no per-update timeline (the barrier collapses
    a round into one instant); the async engine appends one of these per
    arrival so figures can plot against simulated time at event
    granularity, alongside the per-aggregation :class:`RoundRecord` list.
    """

    job_idx: int
    client_id: int
    dispatch_time_s: float
    arrival_time_s: float
    dispatch_version: int
    arrival_version: int
    staleness: int
    staleness_factor: float
    # Fleet connectivity: the job finished but its upload was lost; it was
    # never buffered or aggregated (compute time was still paid).
    dropped: bool = False
    # Exact serialized size of this arrival's upload (0 without a wire
    # format, and for dropped arrivals — a lost upload moves no bytes).
    payload_bytes: int = 0


@dataclass
class History:
    """Accumulated round records with the paper's summary views.

    ``records`` holds one entry per aggregation (a synchronous round or an
    async buffer flush); ``events`` holds one entry per client-update
    arrival and is populated only by the asynchronous engine.
    """

    records: list[RoundRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def append_event(self, event: EventRecord) -> None:
        self.events.append(event)

    # -- series used by the figure benches -----------------------------------
    def accuracy_series(self) -> list[tuple[int, float]]:
        """(round, accuracy) pairs for evaluated rounds (Fig. 5)."""
        return [
            (r.round_idx, r.test_accuracy)
            for r in self.records
            if r.test_accuracy is not None
        ]

    def best_accuracy(self) -> float:
        """The paper's headline number: best top-1 accuracy over training."""
        accs = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        if not accs:
            raise ValueError("no evaluated rounds in history")
        return max(accs)

    def loss_mean_series(self) -> list[float]:
        """Per-round mean of client inference losses (Fig. 6 top row)."""
        return [float(np.mean(r.client_losses_before)) for r in self.records]

    def loss_var_series(self) -> list[float]:
        """Per-round variance of client inference losses (Fig. 6 bottom row)."""
        return [float(np.var(r.client_losses_before)) for r in self.records]

    def mean_impact_time(self) -> float:
        """Average impact-factor computation time in seconds (Fig. 9 'DRL')."""
        return float(np.mean([r.impact_time_s for r in self.records]))

    def mean_aggregation_time(self) -> float:
        """Average eq.-(4) aggregation time in seconds (Fig. 9 'Aggregation')."""
        return float(np.mean([r.aggregation_time_s for r in self.records]))

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round reaching ``target`` accuracy, or None (Fig. 10)."""
        for r in self.records:
            if r.test_accuracy is not None and r.test_accuracy >= target:
                return r.round_idx
        return None

    def makespan_series(self) -> list[float]:
        """Per-round simulated makespans (virtual-clock runs only)."""
        return [r.sim_makespan_s for r in self.records if r.sim_makespan_s is not None]

    def total_sim_time(self) -> float:
        """Total simulated training time across all clocked rounds."""
        return float(np.sum(self.makespan_series()))

    def total_dropped(self) -> int:
        """Updates discarded by the virtual clock's deadline policy."""
        return sum(len(r.dropped_clients) for r in self.records)

    def accuracy_vs_time(self) -> list[tuple[float, float]]:
        """(cumulative simulated seconds, accuracy) for evaluated records.

        The natural x-axis for comparing synchronous and asynchronous
        protocols: equal round/aggregation counts cost very different
        amounts of simulated time once stragglers enter the picture.
        """
        t = 0.0
        out = []
        for r in self.records:
            if r.sim_makespan_s is not None:
                t += r.sim_makespan_s
            if r.test_accuracy is not None:
                out.append((float(t), r.test_accuracy))
        return out

    def arrival_series(self) -> list[tuple[float, int]]:
        """(arrival time, client id) per async event, in arrival order."""
        return [(e.arrival_time_s, e.client_id) for e in self.events]

    # -- fleet-behavior views -------------------------------------------------
    def online_series(self) -> list[tuple[int, int]]:
        """(round, online count) pairs for fleet-simulated rounds."""
        return [
            (r.round_idx, r.online_count)
            for r in self.records
            if r.online_count is not None
        ]

    def mean_online(self) -> float:
        """Average online-client count over fleet-simulated rounds."""
        counts = [r.online_count for r in self.records if r.online_count is not None]
        return float(np.mean(counts)) if counts else 0.0

    def total_connectivity_dropped(self) -> int:
        """Updates lost to fleet mid-round dropout: synchronous records'
        drop lists plus asynchronous dropped arrivals."""
        return sum(len(r.connectivity_dropped) for r in self.records) + sum(
            1 for e in self.events if e.dropped
        )

    def mean_work_fraction(self) -> float:
        """Average sampled completeness over all partial-work participants
        (1.0 when the fleet never truncated anyone)."""
        fractions = [f for r in self.records for f in r.work_fractions.values()]
        return float(np.mean(fractions)) if fractions else 1.0

    def mean_staleness(self) -> float:
        """Average staleness (in model versions) over all async arrivals."""
        if not self.events:
            return 0.0
        return float(np.mean([e.staleness for e in self.events]))

    # -- wire-subsystem views -------------------------------------------------
    def total_bytes_up(self) -> int:
        """Exact client→server bytes moved over the whole run."""
        return sum(r.payload_bytes_up for r in self.records)

    def total_bytes_down(self) -> int:
        """Exact server→client broadcast bytes over the whole run."""
        return sum(r.payload_bytes_down for r in self.records)

    def total_dense_bytes_up(self) -> int:
        """What the same uploads would have cost uncompressed."""
        return sum(r.dense_bytes_up for r in self.records)

    def wire_compression_ratio(self) -> float:
        """Dense-baseline upload bytes over actual upload bytes (1.0 when
        no wire format was attached or nothing moved)."""
        up = self.total_bytes_up()
        if up <= 0:
            return 1.0
        return self.total_dense_bytes_up() / up

    def payload_bytes_series(self) -> list[tuple[int, int, int]]:
        """(round, bytes up, bytes down) per record that moved bytes —
        the x-axis data for accuracy-vs-bytes plots."""
        return [
            (r.round_idx, r.payload_bytes_up, r.payload_bytes_down)
            for r in self.records
            if r.payload_bytes_up or r.payload_bytes_down
        ]

    def accuracy_vs_bytes(self) -> list[tuple[int, float]]:
        """(cumulative upload bytes, accuracy) for evaluated records."""
        total = 0
        out = []
        for r in self.records:
            total += r.payload_bytes_up
            if r.test_accuracy is not None:
                out.append((total, r.test_accuracy))
        return out

    # -- adversarial-fleet views ----------------------------------------------
    def backdoor_accuracy_series(self) -> list[tuple[int, float]]:
        """(round, backdoor-task accuracy) per evaluated record — the
        attack success rate over training (backdoor attacks only)."""
        return [
            (r.round_idx, r.backdoor_accuracy)
            for r in self.records
            if r.backdoor_accuracy is not None
        ]

    def final_backdoor_accuracy(self) -> float | None:
        """The last evaluated attack success rate, or None (no backdoor)."""
        series = self.backdoor_accuracy_series()
        return series[-1][1] if series else None

    def total_rejected(self) -> int:
        """Updates the robust aggregator rejected outright (Krum family)."""
        return sum(len(r.rejected_updates) for r in self.records)

    def total_clipped(self) -> int:
        """Updates whose delta norm the robust aggregator clipped."""
        return sum(len(r.clipped_updates) for r in self.records)

    def total_malicious_aggregated(self) -> int:
        """Malicious participations that reached aggregation (a client
        counts once per round/flush it was aggregated in)."""
        return sum(len(r.malicious_selected) for r in self.records)


class FederatedSimulation:
    """Synchronous FL over a fixed client population."""

    def __init__(
        self,
        clients: list[Client],
        test_set: ArrayDataset | None,
        model_factory,
        strategy: Strategy,
        config: FLConfig,
        selector=None,
        executor: Executor | None = None,
        clock: VirtualClock | None = None,
        fleet: FleetSimulator | None = None,
        tracer: Tracer | None = None,
        attack=None,
        defense=None,
        faults: FaultPlan | None = None,
        topology: str = "flat",
        n_edges: int = 2,
        wire=None,
    ) -> None:
        if len(clients) == 0:
            raise ValueError("need at least one client")
        if config.clients_per_round > len(clients):
            raise ValueError(
                f"clients_per_round={config.clients_per_round} exceeds population "
                f"{len(clients)}"
            )
        if topology not in ("flat", "hier"):
            raise ValueError(f"topology must be 'flat' or 'hier', got {topology!r}")
        if topology == "hier" and n_edges <= 0:
            raise ValueError("n_edges must be positive")
        self.clients = clients
        self.topology = topology
        self.n_edges = n_edges
        # Lazy providers (repro.fleet.scale) materialize participants per
        # round; a plain list is the historical eager population.
        self._lazy = hasattr(clients, "ensure") and hasattr(clients, "release")
        # Columnar per-client state: shard sizes answered without touching
        # Client objects, plus the availability engine's whole-fleet view.
        self.fleet_state = None
        if fleet is not None or self._lazy:
            if self._lazy:
                shard_sizes = clients.shard_sizes
            else:
                shard_sizes = np.array([c.n_samples for c in clients], dtype=np.int64)
            self.fleet_state = FleetState(
                len(clients),
                config.seed,
                availability=fleet.availability.columnar if fleet is not None else None,
                shard_sizes=shard_sizes,
            )
        self.test_set = test_set
        self.strategy = strategy
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        if selector is None:
            from repro.fl.selection import UniformSelection

            selector = UniformSelection(np.random.default_rng(config.seed + 17))
        self.selector = selector
        # The evaluation model also seeds the initial global weights; the
        # serial backend reuses it as its workspace (memory stays O(1) in N).
        self.model: Sequential = model_factory(np.random.default_rng(config.seed))
        self.global_weights = self.model.get_flat_weights()
        if executor is None:
            executor = SerialExecutor(clients, model_factory, model=self.model)
        self.executor = executor
        self.clock = clock
        self.fleet = fleet
        # Adversarial fleet (repro.fl.robust): `attack` perturbs malicious
        # clients' submitted updates (their data was already poisoned at
        # build time); `defense` replaces the weighted mean with a robust
        # combination rule.  Both None on the historical bit-exact path.
        self.attack = attack
        self.defense = defense
        # Wire subsystem (repro.fl.wire.WireFormat): uploads pass through
        # delta → error feedback → encode → decode before aggregation, and
        # exact payload bytes drive the clock when it has bandwidth.  None
        # keeps the historical bit-exact path untouched.
        self.wire = wire
        self.backdoor_test = None
        if attack is not None and test_set is not None:
            self.backdoor_test = attack.backdoor_test_set(test_set)
        # Observability is opt-in: tracer=None keeps every hot-path call
        # site at one `is not None` branch and allocates nothing.
        self.tracer = tracer
        if tracer is not None and fleet is not None:
            fleet.metrics = tracer.metrics
        # Fault tolerance (repro.runtime.faults): an optional seeded fault
        # plan flows to the executor with every round; recovery accounting
        # accumulates here.  The checkpointer (attached by the harness)
        # snapshots full run state after every `every` completed rounds.
        self.faults = faults
        self.fault_totals = FaultStats()
        self.checkpointer = None
        self._next_round = 0
        self.history = History()
        self._loss = SoftmaxCrossEntropy()

    def _n_samples(self, cid: int) -> int:
        """A client's shard size — from the columnar state when present,
        so size queries never materialize a lazy client."""
        if self.fleet_state is not None:
            return self.fleet_state.n_samples(cid)
        return self.clients[cid].n_samples

    # -- one round ----------------------------------------------------------
    def sample_participants(
        self, round_idx: int = 0, available: list[int] | None = None
    ) -> list[int]:
        """Pick K distinct clients via the selection policy (Algorithm 2,
        line 4 uses uniform sampling; see :mod:`repro.fl.selection`).

        With a fleet attached, ``available`` is the online pool and K is
        capped at its size — a smaller round beats stalling on devices
        that cannot be reached.
        """
        k = self.config.clients_per_round
        if available is not None:
            k = min(k, len(available))
        return self.selector.select(len(self.clients), k, round_idx, available=available)

    def _fleet_pool(self, round_idx: int) -> tuple[list[int] | None, float, int | None]:
        """(online pool, seconds waited for it, online count) for the round.

        Availability is sampled at the round's simulated start time; if
        nobody is online the server waits — slot by slot, advancing the
        clock — until someone is.  Without a fleet the pool is ``None``
        (every client, and the selectors' legacy code paths).
        """
        if self.fleet is None:
            return None, 0.0, None
        now = self.clock.elapsed_s if self.clock is not None else float(round_idx)
        new_t, pool = self.fleet.wait_for_online(now, min_count=1)
        wait_s = new_t - now
        if wait_s > 0 and self.clock is not None:
            self.clock.advance(wait_s)
        return pool, wait_s, len(pool)

    def _fleet_budgets(
        self, round_idx: int, participants: list[int]
    ) -> dict[int, int] | None:
        """Per-client batch caps from the fleet's completeness draws."""
        if self.fleet is None or self.fleet.completeness >= 1.0:
            return None
        cfg = self.config
        return {
            cid: self.fleet.batch_budget(
                round_idx,
                cid,
                n_local_batches(self._n_samples(cid), cfg.local_epochs,
                                cfg.batch_size),
            )
            for cid in participants
        }

    def collect_updates(
        self, participants: list[int], round_idx: int,
        client_batches: dict[int, int] | None = None,
    ) -> list[ClientUpdate]:
        """Broadcast + local training via the execution backend.

        Updates come back in participant order regardless of the backend's
        physical schedule, and each client's batch RNG is keyed on
        ``(round_idx, client_id)`` so every backend is bit-identical.
        """
        cfg = self.config
        ctx = RoundContext(
            round_idx=round_idx,
            global_weights=self.global_weights,
            epochs=cfg.local_epochs,
            lr=cfg.lr,
            batch_size=cfg.batch_size,
            base_seed=cfg.seed,
            client_kwargs=self.strategy.client_kwargs(),
            client_batches=client_batches,
            trace=self.tracer is not None,
            fault_plan=self.faults,
        )
        tr = self.tracer
        if tr is None:
            updates = self.executor.run_round(ctx, participants)
            absorb_fault_stats(self.executor, self.fault_totals, self.clock)
            return updates
        with tr.wall_span("executor.round", CAT_RUNTIME,
                          round=round_idx, participants=len(participants)):
            updates = self.executor.run_round(ctx, participants)
        absorb_fault_stats(self.executor, self.fault_totals, self.clock, tr.metrics)
        tr.add_worker_spans(self.executor.take_worker_spans())
        ipc = getattr(self.executor, "last_ipc_bytes", None)
        if ipc is not None:
            tr.metrics.inc("rt.ipc.bytes_out", ipc["out"])
            tr.metrics.inc("rt.ipc.bytes_in", ipc["in"])
        return updates

    def _wire_nbytes(self) -> tuple[int | None, int | None]:
        """A-priori per-transfer payload sizes (None without a wire).

        Pure functions of the arena shape, so they are known before any
        encoding happens — the clock charges comm time from them.
        """
        if self.wire is None:
            return None, None
        dim = self.global_weights.shape[0]
        dtype = self.global_weights.dtype
        return self.wire.upload_nbytes(dim, dtype), self.wire.download_nbytes(dim, dtype)

    def _observe_clock(
        self,
        round_idx: int,
        participants: list[int],
        updates: list[ClientUpdate],
        client_batches: dict[int, int] | None = None,
    ) -> tuple[list[ClientUpdate], RoundTiming | None, dict[int, int]]:
        """Apply the virtual clock: record makespan, enforce the deadline.

        Returns the surviving updates, the round's :class:`RoundTiming`
        (None without a clock), and the per-client batch counts the
        timing was computed from (the tracer decomposes spans with them).
        """
        if self.clock is None:
            return updates, None, {}
        cfg = self.config
        batches = {
            cid: n_local_batches(
                self._n_samples(cid), cfg.local_epochs, cfg.batch_size
            )
            for cid in participants
        }
        if client_batches:
            batches.update(client_batches)
        up_nbytes, down_nbytes = self._wire_nbytes()
        timing = self.clock.observe_round(
            round_idx, participants, batches, up_nbytes, down_nbytes
        )
        if timing.dropped:
            dropped = set(timing.dropped)
            updates = [u for u in updates if u.client_id not in dropped]
        return updates, timing, batches

    def _fleet_dropout(
        self, round_idx: int, updates: list[ClientUpdate]
    ) -> tuple[list[ClientUpdate], list[int]]:
        """Mid-round connectivity loss: the update is discarded *after* its
        compute time entered the makespan.  At least one update survives
        (a real server would re-request rather than lose the round)."""
        if self.fleet is None or self.fleet.dropout_prob <= 0.0:
            return updates, []
        dropped = [u.client_id for u in updates
                   if self.fleet.drops(round_idx, u.client_id)]
        if len(dropped) == len(updates):
            dropped = dropped[1:]  # keep the first participant's update
        if not dropped:
            return updates, []
        lost = set(dropped)
        return [u for u in updates if u.client_id not in lost], dropped

    def run_round(self, round_idx: int) -> RoundRecord:
        sim0 = self.clock.elapsed_s if self.clock is not None else None
        pool, wait_s, online_count = self._fleet_pool(round_idx)
        participants = self.sample_participants(round_idx, available=pool)
        budgets = self._fleet_budgets(round_idx, participants)
        if self._lazy:
            # Materialize the round's participants parent-side, before the
            # executor dispatches; everything else stays virtual.
            self.clients.ensure(participants)
        updates = self.collect_updates(participants, round_idx, budgets)
        payload_up = payload_down = dense_up = 0
        if self.wire is not None:
            dim = self.global_weights.shape[0]
            dtype = self.global_weights.dtype
            payload_down = self.wire.record_downloads(len(participants), dim, dtype)
            dense_up = len(updates) * self.wire.download_nbytes(dim, dtype)
        # Each upload passes through the attack and the wire here,
        # parent-side and in participant order — their seeded cells are
        # keyed per (round, client), so no executor schedule can reorder
        # them.  Error feedback is updated even for uploads a deadline
        # later drops: the client-side encoding already happened.
        uploaded = []
        for u in updates:
            u, nbytes = upload(u, round_idx, self.global_weights, self.attack, self.wire)
            uploaded.append(u)
            payload_up += nbytes
        updates, timing, batches = self._observe_clock(
            round_idx, participants, uploaded, budgets
        )
        sim_makespan = timing.makespan_s if timing is not None else None
        dropped = timing.dropped if timing is not None else []
        updates, conn_dropped = self._fleet_dropout(round_idx, updates)
        self.selector.observe(
            [u.client_id for u in updates], np.array([u.loss_before for u in updates])
        )
        window = aggregate_window(
            updates, [self.global_weights] * len(updates), self.global_weights,
            self.strategy, round_idx, defense=self.defense,
            n_edges=self.n_edges if self.topology == "hier" else None,
        )
        self.global_weights = window.weights

        work_fractions = {}
        if budgets is not None:
            work_fractions = {
                cid: self.fleet.work_fraction(round_idx, cid) for cid in participants
            }
        record = RoundRecord(
            round_idx=round_idx,
            **window.record_fields(updates, self.attack),
            # The round's simulated cost includes any time the server spent
            # waiting for an online client before it could even select.
            sim_makespan_s=None if sim_makespan is None else sim_makespan + wait_s,
            dropped_clients=dropped,
            online_count=online_count,
            wait_s=wait_s,
            connectivity_dropped=conn_dropped,
            work_fractions=work_fractions,
            payload_bytes_up=payload_up,
            payload_bytes_down=payload_down,
            dense_bytes_up=dense_up,
        )
        if self._lazy:
            self.clients.release()
        if self.tracer is not None:
            self._trace_round(record, timing, sim0, batches, window.wall)
        if self.test_set is not None and (
            round_idx % self.config.eval_every == 0
            or round_idx == self.config.rounds - 1
        ):
            if self.tracer is not None:
                # One span covers the arena broadcast (set_flat_weights)
                # plus the forward passes it feeds.
                with self.tracer.wall_span("evaluate", CAT_RUNTIME,
                                           round=round_idx):
                    self._eval_into(record)
            else:
                self._eval_into(record)
        self.history.append(record)
        return record

    def _eval_into(self, record: RoundRecord) -> None:
        self.model.set_flat_weights(self.global_weights)
        record.test_accuracy = top1_accuracy(
            self.model, self.test_set.x, self.test_set.y
        )
        record.test_loss = evaluate_loss(
            self.model, self._loss, self.test_set.x, self.test_set.y
        )
        if self.backdoor_test is not None:
            # Attack-task accuracy: how often the triggered samples land
            # on the attacker's target class (the attack success rate).
            record.backdoor_accuracy = top1_accuracy(
                self.model, self.backdoor_test.x, self.backdoor_test.y
            )

    def _trace_round(
        self,
        record: RoundRecord,
        timing: RoundTiming | None,
        sim0: float | None,
        batches: dict[int, int],
        wall: tuple[float, float, float, float],
    ) -> None:
        """Emit one round's spans and metrics (tracer != None only).

        Simulated-time fields derive from the virtual clock's timings —
        already pure functions of the seed — so the trace is
        bit-identical across execution backends; the wall fields (server
        aggregation) are this host's real cost.  Without a clock only
        wall spans are emitted.
        """
        tr = self.tracer
        w0, t0, t1, t2 = wall
        tr.span("impact_factors", CAT_AGGREGATION, track="server",
                wall_t0=w0, wall_dur=t1 - t0, round=record.round_idx)
        tr.span("aggregate", CAT_AGGREGATION, track="server",
                wall_t0=w0 + (t1 - t0), wall_dur=t2 - t1,
                round=record.round_idx, updates=len(record.participants))
        m = tr.metrics
        m.inc("sim.rounds")
        m.inc("sim.updates.aggregated", len(record.participants))
        m.inc("sim.updates.dropped_deadline", len(record.dropped_clients))
        m.inc("sim.updates.dropped_connectivity", len(record.connectivity_dropped))
        count_window(m, record, self.attack, self.defense, self.wire)
        if record.online_count is not None:
            m.set_gauge("sim.fleet.online", record.online_count)
        if self.fleet_state is not None:
            m.set_gauge("rt.fleet.state_bytes", self.fleet_state.nbytes)
        if timing is None or sim0 is None:
            return
        tr.span("round", CAT_WINDOW, track="server",
                sim_t0=sim0, sim_dur=record.sim_makespan_s,
                round=record.round_idx, participants=len(record.participants))
        m.observe("sim.round.makespan_s", record.sim_makespan_s)
        if record.wait_s > 0:
            tr.span("fleet.wait", CAT_QUEUE_WAIT, track="server",
                    sim_t0=sim0, sim_dur=record.wait_s, round=record.round_idx)
        start = sim0 + record.wait_s
        deadline_dropped = set(timing.dropped)
        conn_dropped = set(record.connectivity_dropped)
        up_nbytes, down_nbytes = self._wire_nbytes()
        comm_args: dict = {}
        up_args: dict = {}
        if self.wire is not None:
            comm_args = {"bytes": down_nbytes}
            up_args = {"bytes": up_nbytes}
        for cid, total in timing.client_times_s.items():
            download, compute, upload = self.clock.decompose(
                cid, batches[cid], total, up_nbytes, down_nbytes
            )
            track = f"client/{cid}"
            tr.span("download", CAT_COMM, track=track,
                    sim_t0=start, sim_dur=download,
                    round=record.round_idx, client=cid, **comm_args)
            tr.span("local_train", CAT_COMPUTE, track=track,
                    sim_t0=start + download, sim_dur=compute,
                    round=record.round_idx, client=cid, batches=batches[cid])
            tr.span("upload", CAT_COMM, track=track,
                    sim_t0=start + download + compute, sim_dur=upload,
                    round=record.round_idx, client=cid, **up_args)
            m.inc("sim.comm.payload_s", download + upload)
            if cid in deadline_dropped:
                tr.instant("deadline_drop", CAT_FLEET, track=track,
                           sim_t=start + min(total, timing.deadline_s or total),
                           round=record.round_idx, client=cid)
            elif cid in conn_dropped:
                tr.instant("connectivity_drop", CAT_FLEET, track=track,
                           sim_t=start + total,
                           round=record.round_idx, client=cid)
            else:
                idle = timing.makespan_s - total
                if idle > 0:
                    tr.span("barrier.wait", CAT_IDLE, track=track,
                            sim_t0=start + total, sim_dur=idle,
                            round=record.round_idx, client=cid)
        tr.maybe_snapshot(self.clock.elapsed_s)

    def run(self) -> History:
        """Run all T communication rounds (Algorithm 2, line 3).

        Starts from ``_next_round`` — 0 on a fresh run, later after
        :meth:`restore_state` — and snapshots through the attached
        checkpointer (if any) after each completed round, so a kill at
        any instant loses at most ``checkpoint_every`` rounds of work.
        """
        for t in range(self._next_round, self.config.rounds):
            self.run_round(t)
            self._next_round = t + 1
            if self.checkpointer is not None:
                self.checkpointer.step(self.snapshot_state)
        return self.history

    # -- checkpoint/resume ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full engine state as a self-contained (deep-copied) dict.

        Everything a resumed process needs to continue bit-identically:
        round cursor, global weights, History, the stateful policies
        (selector, strategy), the engine RNG, and the virtual clock's
        ledgers.  Deep-copied via pickle so in-process snapshots do not
        alias live state.
        """
        state = {
            "engine": "sync",
            "next_round": self._next_round,
            "global_weights": self.global_weights,
            "history": self.history,
            "selector": self.selector,
            "strategy": self.strategy,
            "rng_state": self.rng.bit_generator.state,
            "fault_totals": self.fault_totals,
            "wire": None if self.wire is None else self.wire.snapshot(),
            "clock": None if self.clock is None else {
                "elapsed_s": self.clock.elapsed_s,
                "fault_recovery_s": self.clock.fault_recovery_s,
                "timings": self.clock.timings,
            },
        }
        return pickle.loads(pickle.dumps(state))

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` dict; run() then continues."""
        if state.get("engine") != "sync":
            raise ValueError(
                f"cannot restore {state.get('engine')!r} state into the sync engine"
            )
        # Cast to the current compute dtype (dtype is fingerprinted at the
        # harness level, but direct callers may legitimately move); a
        # wrong-sized vector raises before any other state is touched.
        self.global_weights = restore_weights(
            state["global_weights"], self.global_weights
        )
        self._next_round = state["next_round"]
        self.history = state["history"]
        self.selector = state["selector"]
        self.strategy = state["strategy"]
        self.rng.bit_generator.state = state["rng_state"]
        self.fault_totals = state["fault_totals"]
        # Old snapshots predate the wire subsystem: .get keeps them loadable.
        wire_state = state.get("wire")
        if wire_state is not None and self.wire is not None:
            self.wire.restore(wire_state)
        clock_state = state.get("clock")
        if clock_state is not None and self.clock is not None:
            self.clock.elapsed_s = clock_state["elapsed_s"]
            self.clock.fault_recovery_s = clock_state["fault_recovery_s"]
            self.clock.timings = clock_state["timings"]

    def close(self) -> None:
        """Release the execution backend's workers (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
