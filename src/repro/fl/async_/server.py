"""The event-driven asynchronous federated server (FedBuff / FedAsync).

Where :class:`~repro.fl.simulation.FederatedSimulation` runs a barrier —
every round waits for its slowest participant — this server keeps up to
``max_concurrency`` client jobs in flight and reacts to *arrivals* in
virtual-time order:

1. Pop the earliest finish event from the :class:`EventQueue`.
2. Buffer the arrived update together with its staleness (how many
   aggregations happened since the job was dispatched).
3. When the buffer holds ``buffer_size`` updates (``mode="fedbuff"``) or
   on every arrival (``mode="fedasync"``), aggregate through the shared
   pipeline (:func:`repro.fl.pipeline.aggregate_window`, the same step a
   synchronous round runs): the strategy's impact factors are composed
   with a staleness decay and renormalized, and the global model moves
   toward the buffered combination (or by its mean delta, for
   ``server_mix="delta"``) by a ``server_mix`` step scaled by the
   buffer's average staleness factor (FedAsync's adaptive alpha,
   generalized to buffers).
4. Refill the free slot by dispatching a new job against the *current*
   global weights.

The total local-work budget matches the synchronous loop — ``rounds ×
clients_per_round`` jobs — so sync-vs-async comparisons hold compute
constant and differ only in protocol.

**Determinism.**  Job durations come from the virtual clock's ``(job,
client)``-keyed jitter streams, dispatch choices from a dedicated
sequential RNG consumed in event order, and batch/forward RNGs from the
same ``(job, client)`` cells the synchronous rounds use — so the whole
event timeline, and therefore every aggregation, is bit-identical across
the serial / thread / process backends.  Actual training is *lazy and
batched*: a job's update is materialized only when its arrival is
popped, at which point every in-flight job dispatched against the same
model version trains through one :class:`~repro.runtime.executor`
round-trip — that is where parallel backends earn their keep.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.async_.events import ClientJob, EventQueue
from repro.fl.async_.staleness import PolynomialStaleness, StalenessWeighting
from repro.fl.client import Client, ClientUpdate
from repro.fl.pipeline import aggregate_window, count_window, upload
from repro.fl.simulation import EventRecord, FLConfig, History, RoundRecord
from repro.fl.strategies.base import Strategy
from repro.fleet.columnar import FleetState
from repro.fleet.scale import is_client_provider
from repro.fleet.simulator import FleetSimulator
from repro.nn.losses import SoftmaxCrossEntropy, evaluate_loss
from repro.nn.metrics import top1_accuracy
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
from repro.runtime.clock import VirtualClock, n_local_batches
from repro.runtime.executor import Executor, RoundContext, SerialExecutor
from repro.runtime.faults import FaultPlan, FaultStats, absorb_fault_stats

AGGREGATION_MODES = ("fedbuff", "fedasync")
# How free concurrency slots are assigned to idle online clients:
# "random" — uniform choice (the historical behavior); "fairness" — the
# client with the fewest dispatched jobs goes first, so fast devices no
# longer collect proportionally more jobs just by finishing sooner.
DISPATCH_POLICIES = ("random", "fairness")

# Default server mixing steps: FedBuff replaces the global model with the
# buffered combination (the buffer already averages M models); FedAsync
# mixes a single — often stale — client model conservatively (the
# literature's alpha ~ 0.6).
_DEFAULT_MIX = {"fedbuff": 1.0, "fedasync": 0.6}
# server_mix="delta": FedBuff's original update form — the global model
# moves by the weighted mean client *delta* (w_trained - w_dispatched)
# instead of toward the weighted mean client model, so a stale update
# contributes its own progress rather than dragging the model toward the
# old weights it started from.
DELTA_MIX = "delta"


class AsyncFederatedServer:
    """Buffered-asynchronous FL over a fixed client population."""

    def __init__(
        self,
        clients: list[Client],
        test_set: ArrayDataset | None,
        model_factory,
        strategy: Strategy,
        config: FLConfig,
        clock: VirtualClock,
        executor: Executor | None = None,
        mode: str = "fedbuff",
        buffer_size: int = 5,
        max_concurrency: int | None = None,
        staleness: StalenessWeighting | None = None,
        server_mix: float | str | None = None,
        fleet: FleetSimulator | None = None,
        dispatch: str = "random",
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
        if topology not in ("flat", "hier"):
            raise ValueError(f"topology must be 'flat' or 'hier', got {topology!r}")
        if topology == "hier" and n_edges <= 0:
            raise ValueError("n_edges must be positive")
        if clock is None:
            raise ValueError(
                "asynchronous aggregation needs a VirtualClock — arrival "
                "order is defined by simulated device latency"
            )
        if mode not in AGGREGATION_MODES:
            raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if max_concurrency is None:
            max_concurrency = config.clients_per_round
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if max_concurrency > len(clients):
            raise ValueError(
                f"max_concurrency={max_concurrency} exceeds population "
                f"{len(clients)} (a client holds at most one job at a time)"
            )
        self.delta_mix = isinstance(server_mix, str)
        if self.delta_mix:
            if server_mix != DELTA_MIX:
                raise ValueError(
                    f"server_mix must be a float in (0, 1] or {DELTA_MIX!r}, "
                    f"got {server_mix!r}"
                )
            server_mix = 1.0  # the delta step's learning rate eta
        elif server_mix is None:
            server_mix = _DEFAULT_MIX[mode]
        if not 0.0 < server_mix <= 1.0:
            raise ValueError("server_mix must be in (0, 1]")
        if dispatch not in DISPATCH_POLICIES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_POLICIES}, got {dispatch!r}"
            )

        self.clients = clients
        self.topology = topology
        self.n_edges = n_edges
        # Lazy providers (repro.fleet.scale) materialize participants per
        # executor batch; a plain list is the historical eager population.
        self._lazy = is_client_provider(clients)
        self.test_set = test_set
        self.strategy = strategy
        self.config = config
        self.clock = clock
        self.mode = mode
        # FedAsync is exactly a buffer of one.
        self.flush_size = 1 if mode == "fedasync" else buffer_size
        self.max_concurrency = max_concurrency
        self.staleness = staleness if staleness is not None else PolynomialStaleness()
        self.server_mix = float(server_mix)
        # Total local-work budget: identical to the synchronous loop's.
        self.total_jobs = config.rounds * config.clients_per_round
        self.model = model_factory(np.random.default_rng(config.seed))
        self.global_weights = self.model.get_flat_weights()
        if executor is None:
            executor = SerialExecutor(clients, model_factory, model=self.model)
        self.executor = executor
        self.fleet = fleet
        self.dispatch = dispatch
        # Adversarial fleet (repro.fl.robust): `attack` perturbs malicious
        # arrivals relative to the weights their job was dispatched
        # against (so it bites identically under weight- and delta-form
        # mixing); `defense` replaces the buffer's weighted mean with a
        # robust combination rule.  Both None on the historical path.
        self.attack = attack
        self.defense = defense
        # Wire subsystem (repro.fl.wire.WireFormat): arrivals decode before
        # buffering, and the a-priori payload sizes below let dispatch
        # charge bandwidth-accurate durations before any encoding happens.
        # None keeps the historical bit-exact path untouched.
        self.wire = wire
        self._up_nbytes: int | None = None
        self._down_nbytes: int | None = None
        if wire is not None:
            dim = self.global_weights.shape[0]
            dtype = self.global_weights.dtype
            self._up_nbytes = wire.upload_nbytes(dim, dtype)
            self._down_nbytes = wire.download_nbytes(dim, dtype)
        self.backdoor_test = None
        if attack is not None and test_set is not None:
            self.backdoor_test = attack.backdoor_test_set(test_set)
        # Dispatch choices are consumed strictly in event order, so one
        # sequential stream is deterministic under every backend.
        self._dispatch_rng = np.random.default_rng(config.seed + 29)
        # Columnar per-client state; its ``jobs_served`` column drives the
        # fairness policy with one partial sort instead of a Python
        # min-scan over the pool.
        self.fleet_state = FleetState(
            len(clients),
            config.seed,
            availability=fleet.availability.columnar if fleet is not None else None,
            shard_sizes=(
                clients.shard_sizes if self._lazy
                else np.array([c.n_samples for c in clients], dtype=np.int64)
            ),
        )
        self.history = History()
        self.discarded_updates = 0
        # Arrivals whose upload was lost to fleet connectivity dropout.
        self.dropped_arrivals = 0
        # Observability is opt-in: tracer=None keeps every hot-path call
        # site at one `is not None` branch and allocates nothing.
        self.tracer = tracer
        if tracer is not None and fleet is not None:
            fleet.metrics = tracer.metrics
        # Simulated time each client went idle (its last arrival), so the
        # tracer can draw the gap before its next dispatch.
        self._idle_since: dict[int, float] = {}
        # Fault tolerance: the optional seeded fault plan rides with every
        # executor batch; recovery accounting accumulates here.  The event
        # loop's mutable state lives in one dict (`_loop`) so a
        # checkpointer can snapshot it between aggregation flushes.
        self.faults = faults
        self.fault_totals = FaultStats()
        self.checkpointer = None
        self._loop: dict | None = None
        self._loss = SoftmaxCrossEntropy()

    @property
    def jobs_dispatched(self) -> dict[int, int]:
        """Dict view of the columnar jobs-served counts (checkpoint/API
        compatible with the pre-columnar per-client dict)."""
        col = self.fleet_state.jobs_served
        return {cid: int(col[cid]) for cid in range(len(self.clients))}

    @jobs_dispatched.setter
    def jobs_dispatched(self, counts: dict[int, int]) -> None:
        self.fleet_state.jobs_served[:] = 0
        for cid, n in counts.items():
            self.fleet_state.jobs_served[int(cid)] = int(n)

    # -- dispatch -----------------------------------------------------------
    def _pick_client(self, idle: set[int], now: float) -> int | None:
        """One idle client to dispatch to, or None when nobody is reachable.

        With a fleet attached the candidate pool is the *online* idle
        clients; the fairness policy hands the slot to the candidate with
        the fewest dispatched jobs (ties by id) instead of a uniform draw,
        so slow-but-reachable devices keep getting work.
        """
        pool = np.fromiter(idle, dtype=np.int64, count=len(idle))
        pool.sort()
        if self.fleet is not None:
            pool = self.fleet.online_ids(now, pool)
            if pool.size == 0:
                return None
        if self.dispatch == "fairness":
            # One partial sort over the jobs-served column — same winner
            # as the historical min((jobs, id)) scan.
            return int(self.fleet_state.fairest(pool, 1)[0])
        return int(pool[self._dispatch_rng.integers(pool.size)])

    def _dispatch_until_full(
        self,
        now: float,
        version: int,
        queue: EventQueue,
        idle: set[int],
        in_flight: dict[int, ClientJob],
        next_job: int,
    ) -> int:
        """Fill free concurrency slots with jobs against the current model.

        Only *online* clients receive jobs; when every idle client is
        offline the slots stay open and are retried at the next arrival
        (or, if nothing is in flight, after a clock wait in ``run``).
        """
        cfg = self.config
        while next_job < self.total_jobs and len(in_flight) < self.max_concurrency and idle:
            cid = self._pick_client(idle, now)
            if cid is None:
                break
            batches = n_local_batches(
                self.fleet_state.n_samples(cid), cfg.local_epochs, cfg.batch_size
            )
            if self.fleet is not None:
                batches = self.fleet.batch_budget(next_job, cid, batches)
            job = ClientJob(
                job_idx=next_job,
                client_id=cid,
                dispatch_time_s=now,
                duration_s=self.clock.client_time(
                    next_job, cid, batches, self._up_nbytes, self._down_nbytes
                ),
                model_version=version,
                global_weights=self.global_weights,
                n_batches=batches,
            )
            queue.push(job)
            in_flight[job.job_idx] = job
            idle.discard(cid)
            self.fleet_state.record_jobs([cid])
            if self.wire is not None:
                # Every dispatch broadcasts the current dense global model.
                self.wire.record_downloads(
                    1, self.global_weights.shape[0], self.global_weights.dtype
                )
            next_job += 1
            if self.tracer is not None:
                idle_t0 = self._idle_since.pop(cid, None)
                if idle_t0 is not None and now > idle_t0:
                    self.tracer.span(
                        "between_jobs", CAT_IDLE, track=f"client/{cid}",
                        sim_t0=idle_t0, sim_dur=now - idle_t0, client=cid,
                    )
        return next_job

    def _wait_for_fleet(self, now: float) -> float:
        """Advance simulated time until some client is online again.

        Only reachable with a fleet attached (without one, dispatch never
        declines a slot while budget remains).  The wait is counted on the
        virtual clock only through subsequent dispatch/arrival times.
        """
        if self.fleet is None:  # pragma: no cover - defensive
            return now
        new_t, _ = self.fleet.wait_for_online(now, min_count=1)
        return max(now, new_t)

    # -- lazy batched training ---------------------------------------------
    def _materialize(
        self,
        job: ClientJob,
        in_flight: dict[int, ClientJob],
        computed: dict[int, ClientUpdate],
    ) -> ClientUpdate:
        """Train ``job`` (and, in one executor batch, every in-flight job
        dispatched against the same model version)."""
        if job.job_idx not in computed:
            group = [
                j for j in in_flight.values()
                if j.model_version == job.model_version and j.job_idx not in computed
            ]
            client_batches = None
            if self.fleet is not None:
                client_batches = {j.client_id: j.n_batches for j in group}
            ctx = RoundContext(
                round_idx=job.job_idx,
                global_weights=job.global_weights,
                epochs=self.config.local_epochs,
                lr=self.config.lr,
                batch_size=self.config.batch_size,
                base_seed=self.config.seed,
                client_kwargs=self.strategy.client_kwargs(),
                job_rounds={j.client_id: j.job_idx for j in group},
                client_batches=client_batches,
                trace=self.tracer is not None,
                fault_plan=self.faults,
            )
            tr = self.tracer
            ids = [j.client_id for j in group]
            if self._lazy:
                # Materialize the batch parent-side, release after: the
                # resident Client set stays O(batch), not O(N).
                self.clients.ensure(ids)
            if tr is None:
                updates = self.executor.run_round(ctx, ids)
                absorb_fault_stats(self.executor, self.fault_totals, self.clock)
            else:
                with tr.wall_span("executor.batch", CAT_RUNTIME,
                                  version=job.model_version, jobs=len(group)):
                    updates = self.executor.run_round(ctx, ids)
                absorb_fault_stats(
                    self.executor, self.fault_totals, self.clock, tr.metrics
                )
                tr.add_worker_spans(self.executor.take_worker_spans())
                ipc = getattr(self.executor, "last_ipc_bytes", None)
                if ipc is not None:
                    tr.metrics.inc("rt.ipc.bytes_out", ipc["out"])
                    tr.metrics.inc("rt.ipc.bytes_in", ipc["in"])
            for j, update in zip(group, updates):
                computed[j.job_idx] = update
            if self._lazy:
                self.clients.release(ids)
        return computed.pop(job.job_idx)

    # -- aggregation --------------------------------------------------------
    def _aggregate(
        self,
        buffer: list[tuple[ClientJob, ClientUpdate, int, float]],
        agg_idx: int,
        now: float,
        last_agg_t: float,
        bytes_up: int = 0,
        bytes_down: int = 0,
    ) -> RoundRecord:
        """One buffer flush through the shared pipeline: staleness-composed
        impact factors, eq. (4), and a staleness-scaled server mixing step."""
        updates = [u for _, u, _, _ in buffer]
        factors = np.array([f for _, _, _, f in buffer])
        window = aggregate_window(
            updates, [job.global_weights for job, _, _, _ in buffer],
            self.global_weights, self.strategy, agg_idx,
            factors=factors, defense=self.defense,
            n_edges=self.n_edges if self.topology == "hier" else None,
            server_mix=self.server_mix, delta_mix=self.delta_mix,
        )
        self.global_weights = window.weights
        record = RoundRecord(
            round_idx=agg_idx,
            **window.record_fields(updates, self.attack),
            sim_makespan_s=now - last_agg_t,
            staleness=[s for _, _, s, _ in buffer],
            staleness_factors=[float(f) for f in factors],
            payload_bytes_up=bytes_up,
            payload_bytes_down=bytes_down,
            dense_bytes_up=(
                len(buffer) * self._down_nbytes if self.wire is not None else 0
            ),
        )
        if self.tracer is not None:
            self._trace_aggregation(record, now, last_agg_t, window.wall)
        if self.test_set is not None and agg_idx % self.config.eval_every == 0:
            if self.tracer is not None:
                with self.tracer.wall_span("evaluate", CAT_RUNTIME,
                                           aggregation=agg_idx):
                    self._evaluate(record)
            else:
                self._evaluate(record)
        self.history.append(record)
        return record

    def _trace_aggregation(
        self,
        record: RoundRecord,
        now: float,
        last_agg_t: float,
        wall: tuple[float, float, float, float],
    ) -> None:
        """Emit one buffer flush's spans and metrics (tracer != None only).

        The ``agg_window`` spans tile the simulated timeline between
        consecutive flushes, so their durations sum to the run's total
        simulated time — the async counterpart of the synchronous
        engine's ``round`` windows.
        """
        tr = self.tracer
        w0, t0, t1, t2 = wall
        tr.span("agg_window", CAT_WINDOW, track="server",
                sim_t0=last_agg_t, sim_dur=now - last_agg_t,
                aggregation=record.round_idx, updates=len(record.participants))
        tr.span("impact_factors", CAT_AGGREGATION, track="server",
                wall_t0=w0, wall_dur=t1 - t0, aggregation=record.round_idx)
        tr.span("aggregate", CAT_AGGREGATION, track="server",
                wall_t0=w0 + (t1 - t0), wall_dur=t2 - t1,
                aggregation=record.round_idx, updates=len(record.participants))
        m = tr.metrics
        m.inc("sim.aggregations")
        m.inc("sim.updates.aggregated", len(record.participants))
        count_window(m, record, self.attack, self.defense, self.wire)
        m.observe("sim.window.span_s", record.sim_makespan_s)
        m.set_gauge("rt.fleet.state_bytes", self.fleet_state.nbytes)
        for s in record.staleness or ():
            m.observe("sim.staleness", s)
        tr.maybe_snapshot(now)

    def _trace_arrival(
        self, job: ClientJob, now: float, staleness: int, dropped: bool
    ) -> None:
        """Emit one finished job's client-side spans (tracer != None only).

        The job's simulated duration is decomposed into the device
        profile's download / compute / upload shares — pure arithmetic on
        already-drawn times, so tracing consumes no RNG.
        """
        tr = self.tracer
        cid = job.client_id
        track = f"client/{cid}"
        download, compute, upload = self.clock.decompose(
            cid, job.n_batches, job.duration_s, self._up_nbytes, self._down_nbytes
        )
        comm_args: dict = {}
        up_args: dict = {}
        if self.wire is not None:
            comm_args = {"bytes": self._down_nbytes}
            up_args = {"bytes": self._up_nbytes}
        start = job.dispatch_time_s
        tr.span("download", CAT_COMM, track=track,
                sim_t0=start, sim_dur=download, job=job.job_idx, client=cid,
                **comm_args)
        tr.span("local_train", CAT_COMPUTE, track=track,
                sim_t0=start + download, sim_dur=compute,
                job=job.job_idx, client=cid, batches=job.n_batches,
                staleness=staleness)
        tr.span("upload", CAT_COMM, track=track,
                sim_t0=start + download + compute, sim_dur=upload,
                job=job.job_idx, client=cid, **up_args)
        m = tr.metrics
        m.inc("sim.comm.payload_s", download + upload)
        m.inc("sim.jobs.arrived")
        if dropped:
            tr.instant("connectivity_drop", CAT_FLEET, track=track,
                       sim_t=now, job=job.job_idx, client=cid)
            m.inc("sim.updates.dropped_connectivity")

    def _evaluate(self, record: RoundRecord) -> None:
        self.model.set_flat_weights(self.global_weights)
        record.test_accuracy = top1_accuracy(
            self.model, self.test_set.x, self.test_set.y
        )
        record.test_loss = evaluate_loss(
            self.model, self._loss, self.test_set.x, self.test_set.y
        )
        if self.backdoor_test is not None:
            record.backdoor_accuracy = top1_accuracy(
                self.model, self.backdoor_test.x, self.backdoor_test.y
            )

    # -- the event loop ------------------------------------------------------
    def _init_loop_state(self) -> dict:
        """The event loop's mutable state, fresh.  One dict so a snapshot
        captures all of it (queue, slots, buffer, cursors) at once."""
        return {
            "queue": EventQueue(),
            "idle": set(range(len(self.clients))),
            "in_flight": {},   # job_idx -> ClientJob
            "computed": {},    # job_idx -> ClientUpdate (trained, unpopped)
            "buffer": [],      # (job, update, staleness, factor)
            "version": 0,
            "last_agg_t": 0.0,
            "now": 0.0,
            "next_job": 0,
            "primed": False,   # has the initial dispatch wave run?
            # Wire byte accounting for the current aggregation window:
            # bytes uploaded by buffered arrivals, and the job cursor at
            # the window's start (dispatches since then are its
            # broadcasts).  Read back with .get() so pre-wire snapshots
            # stay loadable.
            "window_bytes_up": 0,
            "window_job0": 0,
        }

    def _window_bytes(self, st: dict) -> tuple[int, int]:
        """(upload, download) bytes of the closing aggregation window, and
        reset the window counters."""
        if self.wire is None:
            return 0, 0
        bytes_up = st.get("window_bytes_up", 0)
        bytes_down = (st["next_job"] - st.get("window_job0", 0)) * self._down_nbytes
        st["window_bytes_up"] = 0
        st["window_job0"] = st["next_job"]
        return bytes_up, bytes_down

    def run(self) -> History:
        """Process all ``total_jobs`` arrivals in virtual-time order.

        Loop state persists on ``self._loop`` so a checkpointer can
        snapshot it between aggregation flushes and a restored server
        continues mid-timeline, bit-identical to never having stopped.
        """
        if self._loop is None:
            self._loop = self._init_loop_state()
        st = self._loop
        if not st["primed"]:
            st["next_job"] = self._dispatch_until_full(
                st["now"], st["version"], st["queue"], st["idle"],
                st["in_flight"], st["next_job"],
            )
            st["primed"] = True

        while st["queue"] or st["next_job"] < self.total_jobs:
            if not st["queue"]:
                # Budget remains but every idle client was offline at the
                # last dispatch point: wait (advance simulated time) until
                # someone churns back online, then re-enqueue work.
                waited_from = st["now"]
                st["now"] = self._wait_for_fleet(st["now"])
                if self.tracer is not None and st["now"] > waited_from:
                    self.tracer.span(
                        "fleet.wait", CAT_QUEUE_WAIT, track="server",
                        sim_t0=waited_from, sim_dur=st["now"] - waited_from,
                    )
                st["next_job"] = self._dispatch_until_full(
                    st["now"], st["version"], st["queue"], st["idle"],
                    st["in_flight"], st["next_job"],
                )
                if not st["queue"]:
                    break  # pathological availability; give up cleanly
                continue
            event = st["queue"].pop()
            st["now"] = now = event.time_s
            job = event.job
            # Connectivity: the job finished (its time was paid) but its
            # upload may be lost mid-round; a lost update is never
            # materialized (unless an earlier group trained it) or buffered.
            dropped = self.fleet is not None and self.fleet.drops(
                job.job_idx, job.client_id
            )
            payload_bytes = 0
            if dropped:
                update = None
                st["computed"].pop(job.job_idx, None)
                self.dropped_arrivals += 1
            else:
                update = self._materialize(job, st["in_flight"], st["computed"])
                # Poisoned and encoded against the weights this job was
                # dispatched with — the same anchor delta-form mixing
                # uses.  The seeded cells are (job_idx, client), drawn
                # here in arrival order, itself a pure function of the seed.
                update, payload_bytes = upload(
                    update, job.job_idx, job.global_weights, self.attack, self.wire
                )
                st["window_bytes_up"] = st.get("window_bytes_up", 0) + payload_bytes
            del st["in_flight"][job.job_idx]
            st["idle"].add(job.client_id)

            staleness = st["version"] - job.model_version
            factor = self.staleness.factor(staleness)
            self.history.append_event(EventRecord(
                job_idx=job.job_idx,
                client_id=job.client_id,
                dispatch_time_s=job.dispatch_time_s,
                arrival_time_s=now,
                dispatch_version=job.model_version,
                arrival_version=st["version"],
                staleness=staleness,
                staleness_factor=factor,
                dropped=dropped,
                payload_bytes=payload_bytes,
            ))
            if not dropped:
                st["buffer"].append((job, update, staleness, factor))
            if self.tracer is not None:
                self._trace_arrival(job, now, staleness, dropped)
                self._idle_since[job.client_id] = now
                m = self.tracer.metrics
                m.set_gauge("sim.jobs.in_flight", len(st["in_flight"]))
                m.set_gauge("sim.buffer.depth", len(st["buffer"]))
                if self.fleet is not None:
                    m.set_gauge(
                        "sim.fleet.online", len(self.fleet.online_ids(now))
                    )

            flushed = False
            if len(st["buffer"]) >= self.flush_size:
                bytes_up, bytes_down = self._window_bytes(st)
                self._aggregate(
                    st["buffer"], st["version"], now, st["last_agg_t"],
                    bytes_up, bytes_down,
                )
                st["buffer"] = []
                st["version"] += 1
                st["last_agg_t"] = now
                flushed = True
            st["next_job"] = self._dispatch_until_full(
                now, st["version"], st["queue"], st["idle"],
                st["in_flight"], st["next_job"],
            )
            if flushed and self.checkpointer is not None:
                # Snapshot at the end of the flushing iteration — after
                # the refill dispatch, so a resumed loop re-enters exactly
                # where an uninterrupted one would be.
                self.checkpointer.step(self.snapshot_state)

        if st["buffer"]:
            # A partial final buffer: flush it unless the strategy needs a
            # fixed participation level (FedDRL's agent has a hard K).
            if getattr(self.strategy, "fixed_k", False):
                self.discarded_updates += len(st["buffer"])
            else:
                bytes_up, bytes_down = self._window_bytes(st)
                self._aggregate(
                    st["buffer"], st["version"], st["now"], st["last_agg_t"],
                    bytes_up, bytes_down,
                )
                st["buffer"] = []
                st["version"] += 1
        # The final model always gets an evaluation, whatever eval_every is.
        if (
            self.test_set is not None
            and self.history.records
            and self.history.records[-1].test_accuracy is None
        ):
            self._evaluate(self.history.records[-1])
        return self.history

    # -- checkpoint/resume ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full engine state as a self-contained (deep-copied) dict.

        Captures the event loop mid-timeline: the pending arrival heap
        (in-flight jobs carry their dispatch-version weights), slot and
        buffer state, the model-version counter, the dispatch RNG, and
        the fairness/drop tallies — everything a fresh process needs to
        continue the run bit-identically.
        """
        state = {
            "engine": "async",
            "loop": self._loop,
            "history": self.history,
            "global_weights": self.global_weights,
            "strategy": self.strategy,
            "dispatch_rng_state": self._dispatch_rng.bit_generator.state,
            "jobs_dispatched": self.jobs_dispatched,
            "discarded_updates": self.discarded_updates,
            "dropped_arrivals": self.dropped_arrivals,
            "idle_since": self._idle_since,
            "fault_totals": self.fault_totals,
            "wire": None if self.wire is None else self.wire.snapshot(),
            "clock": {
                "elapsed_s": self.clock.elapsed_s,
                "fault_recovery_s": self.clock.fault_recovery_s,
                "timings": self.clock.timings,
            },
        }
        return pickle.loads(pickle.dumps(state))

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` dict; run() then continues."""
        if state.get("engine") != "async":
            raise ValueError(
                f"cannot restore {state.get('engine')!r} state into the async engine"
            )
        self.global_weights = restore_weights(
            state["global_weights"], self.global_weights
        )
        self._loop = state["loop"]
        self.history = state["history"]
        self.strategy = state["strategy"]
        self._dispatch_rng.bit_generator.state = state["dispatch_rng_state"]
        self.jobs_dispatched = state["jobs_dispatched"]
        self.discarded_updates = state["discarded_updates"]
        self.dropped_arrivals = state["dropped_arrivals"]
        self._idle_since = state["idle_since"]
        self.fault_totals = state["fault_totals"]
        # Old snapshots predate the wire subsystem: .get keeps them loadable.
        wire_state = state.get("wire")
        if wire_state is not None and self.wire is not None:
            self.wire.restore(wire_state)
        clock_state = state.get("clock")
        if clock_state is not None:
            self.clock.elapsed_s = clock_state["elapsed_s"]
            self.clock.fault_recovery_s = clock_state["fault_recovery_s"]
            self.clock.timings = clock_state["timings"]

    def checkpoint(self) -> dict:
        """Lightweight server checkpoint: weights + model-version counter
        + mixing state.  For full kill-safe loop state use
        :meth:`snapshot_state`."""
        return {
            "global_weights": self.global_weights.copy(),
            "model_version": self._loop["version"] if self._loop is not None else 0,
            "server_mix": self.server_mix,
            "delta_mix": self.delta_mix,
            "mode": self.mode,
        }

    def load_checkpoint(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint`; dtype-portable like
        :meth:`restore_state`."""
        if state.get("mode") != self.mode:
            raise ValueError(
                f"checkpoint holds {state.get('mode')!r} state but this "
                f"server runs {self.mode!r}"
            )
        self.global_weights = restore_weights(
            state["global_weights"], self.global_weights
        )
        if self._loop is None:
            self._loop = self._init_loop_state()
        self._loop["version"] = int(state["model_version"])
        self.server_mix = float(state["server_mix"])
        self.delta_mix = bool(state["delta_mix"])

    def close(self) -> None:
        """Release the execution backend's workers (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "AsyncFederatedServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
