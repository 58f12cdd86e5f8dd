"""Experiment configuration: dataset × partition × method × scale.

The paper runs 1000 communication rounds of GPU training; a CPU NumPy
reproduction sweeps the same grid at reduced *scale presets*:

* ``ci`` — seconds per experiment; used by the test suite.
* ``bench`` — tens of seconds; used by the benchmark harness under
  ``benchmarks/`` that regenerates the tables/figures.
* ``paper`` — the paper's nominal parameters (1000 rounds, full model);
  provided for completeness, expect hours on CPU.

Scale changes rounds/data/model size only — never the algorithms — so the
*shape* of the comparisons is preserved: every method in a comparison
runs on the same data, partition and round budget.

A field declared with :func:`flag` is also a ``python -m repro`` option:
its metadata holds the option spelling, help text and, for enumerated
fields, the ``choices`` that ``__post_init__`` validates against.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace

from repro.fl.async_ import (
    AGGREGATION_MODES,
    DELTA_MIX,
    DISPATCH_POLICIES,
    STALENESS_POLICIES,
)
from repro.fl.robust import ATTACK_MODELS, ROBUST_AGGREGATORS
from repro.fl.wire import QUANT_BITS, WIRE_CODECS
from repro.fleet import AVAILABILITY_MODELS
from repro.nn.dtypes import SUPPORTED_DTYPES
from repro.runtime import (
    BACKENDS,
    BANDWIDTH_MODELS,
    DEADLINE_POLICIES,
    LATENCY_MODELS,
)


@dataclass(frozen=True)
class ScalePreset:
    """Size knobs shared by every experiment at a given scale."""

    name: str
    rounds: int
    n_train: int
    n_test: int
    local_epochs: int
    batch_size: int
    model: str  # "mlp" | "simple_cnn" | "vgg_mini" | "vgg11"
    image_size: int
    cifar_classes: int  # CIFAR-100 stand-in class count at this scale
    eval_every: int


SCALES: dict[str, ScalePreset] = {
    "ci": ScalePreset(
        name="ci", rounds=12, n_train=400, n_test=200, local_epochs=2,
        batch_size=20, model="mlp", image_size=8, cifar_classes=20, eval_every=1,
    ),
    "bench": ScalePreset(
        name="bench", rounds=30, n_train=1200, n_test=400, local_epochs=3,
        batch_size=20, model="mlp", image_size=8, cifar_classes=30, eval_every=1,
    ),
    "paper": ScalePreset(
        name="paper", rounds=1000, n_train=50_000, n_test=10_000, local_epochs=5,
        batch_size=10, model="auto", image_size=32, cifar_classes=100, eval_every=1,
    ),
}


def flag(option: str, help: str, *, default, choices=None, parse=None):
    """A config field that ``python -m repro`` exposes as `option`.

    `choices` restricts the value (checked in ``__post_init__`` and by
    the parser); `parse` replaces the argparse converter derived from the
    field's type.
    """
    return field(default=default, metadata={
        "flag": option, "help": help, "choices": choices, "parse": parse,
    })


def _server_mix(value: str):
    """--server-mix accepts a float step or the literal 'delta'."""
    if value == DELTA_MIX:
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a float in (0, 1] or 'delta', got {value!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the paper's evaluation grid."""

    dataset: str = flag("--dataset", "synthetic stand-in to train on",
                        default="mnist", choices=("mnist", "fashion", "cifar100"))
    partition: str = flag("--partition", "non-IID partitioning scheme", default="CE",
                          choices=("IID", "PA", "CE", "CN", "EQUAL", "NONEQUAL"))
    method: str = flag("--method", "aggregation strategy (or centralized baseline)",
                       default="fedavg",
                       choices=("fedavg", "fedprox", "feddrl", "singleset"))
    n_clients: int = flag("--clients", "population size N", default=10)
    clients_per_round: int = flag("--per-round", "participants K", default=10)
    scale: str = flag("--scale", "size preset: ci / bench / paper-nominal",
                      default="ci", choices=tuple(sorted(SCALES)))
    # Non-IID level for CE/CN (Fig. 8 sweeps this).
    delta: float = flag("--delta", "cluster-skew level for CE/CN", default=0.6)
    labels_per_client: int | None = None  # None -> paper default per dataset
    lr: float = 0.01
    prox_mu: float = 0.01
    seed: int = flag("--seed", "experiment RNG seed", default=0)
    # Scale overrides (None -> take from the preset).
    rounds: int | None = flag("--rounds", "override the scale preset's round count",
                              default=None)
    n_train: int | None = None
    n_test: int | None = None
    local_epochs: int | None = None
    batch_size: int | None = None
    model: str | None = None
    eval_every: int | None = None
    # FedDRL knobs.  beta follows eq. (6); gamma/noise/updates are tuned for
    # the CPU-scale round counts used here (Table 1's gamma=0.99 targets
    # 1000-round runs; a shorter effective horizon and more agent updates
    # per round compensate for having ~30x fewer transitions).
    drl_beta: float = 0.5
    drl_explore: bool = True
    drl_prioritized: bool = True
    drl_gamma: float = 0.9
    drl_noise_scale: float = 0.05
    drl_updates_per_round: int = 8
    fairness_weight: float = 1.0
    # Two-stage pretraining (Section 3.4.2): number of online rounds each
    # worker runs before the main agent is trained offline and deployed.
    # 0 disables pretraining (basic training only, Algorithm 1).
    drl_pretrain_rounds: int = flag(
        "--pretrain", "two-stage pretraining rounds per worker (feddrl)", default=0)
    drl_pretrain_workers: int = 2
    drl_offline_updates: int = 200
    # Runtime: execution backend and virtual-clock device simulation (see
    # repro.runtime).  All backends are bit-identical for a given seed;
    # latency_model="none" disables the virtual clock entirely.
    backend: str = flag("--backend", "client-execution backend (bit-identical results)",
                        default="serial", choices=BACKENDS)
    workers: int | None = flag(
        "--workers", "worker count for thread/process backends (default: CPU count)",
        default=None)
    latency_model: str = flag("--latency-model", "virtual-clock device latency model",
                              default="none", choices=("none", *LATENCY_MODELS))
    # Substrate compute dtype (repro.nn.dtypes).
    dtype: str = flag(
        "--dtype", "substrate compute dtype; float32 halves memory bandwidth and "
        "IPC payload, float64 (default) matches historical results bit-for-bit",
        default="float64", choices=SUPPORTED_DTYPES)
    straggler_fraction: float = flag(
        "--straggler-fraction", "fraction of simulated devices that straggle",
        default=0.0)
    straggler_slowdown: float = flag(
        "--straggler-slowdown", "slowdown factor applied to straggler devices",
        default=8.0)
    deadline_s: float | None = flag(
        "--deadline", "simulated round deadline in seconds", default=None)
    deadline_policy: str = flag(
        "--deadline-policy", "wait for stragglers or drop their updates",
        default="wait", choices=DEADLINE_POLICIES)
    # Asynchronous aggregation (repro.fl.async_).  "sync" keeps the
    # classic per-round barrier.  Async modes need a latency_model (arrival
    # order *is* device timing) and run the same total local-work budget
    # as sync (rounds x K jobs).
    aggregation: str = flag(
        "--aggregation", "synchronous rounds, or the event-driven async engine: "
        "fedbuff aggregates every --buffer-size arrivals, fedasync on every "
        "arrival (needs --latency-model)",
        default="sync", choices=("sync", *AGGREGATION_MODES))
    buffer_size: int = flag(
        "--buffer-size", "fedbuff: arrived updates per aggregation", default=5)
    max_concurrency: int | None = flag(
        "--max-concurrency", "async: max client jobs in flight (default: --per-round)",
        default=None)
    staleness: str = flag("--staleness", "async staleness-decay on impact factors",
                          default="polynomial", choices=STALENESS_POLICIES)
    server_mix: float | str | None = flag(
        "--server-mix", "async server mixing step in (0, 1], or 'delta' for "
        "FedBuff's delta-based update (default: 1.0 fedbuff / 0.6 fedasync)",
        default=None, parse=_server_mix)
    # Fleet behavior (repro.fleet): "always" + zero dropout + completeness
    # 1.0 disables the fleet entirely; anything else needs a latency_model
    # (fleet behavior evolves over the virtual clock).
    availability: str = flag(
        "--availability", "fleet availability model: who is online as simulated "
        "time advances (needs --latency-model)",
        default="always", choices=AVAILABILITY_MODELS)
    offline_fraction: float = flag(
        "--offline-fraction", "mean offline fraction for the availability model",
        default=0.2)
    churn_rate: float = flag(
        "--churn-rate", "markov availability: on/off switching intensity "
        "(mean session length ~ 1/rate slots)", default=0.5)
    dropout_prob: float = flag(
        "--dropout-prob", "per-(round, client) mid-round dropout: the update is "
        "lost after its compute time is paid", default=0.0)
    completeness: float = flag(
        "--completeness", "minimum fraction of the local batch budget a client "
        "runs (sampled per round from [c, 1])", default=1.0)
    dispatch: str = flag(
        "--dispatch", "async job dispatch among online idle clients: uniform, "
        "or fairness (fewest jobs first)",
        default="random", choices=DISPATCH_POLICIES)
    # Aggregation topology (repro.fl.hierarchical): "hier" folds each round
    # (sync) or buffer window (async) into n_edges edge-server FedAvg
    # aggregates first, and the cloud strategy/defense runs over the edges.
    topology: str = flag(
        "--topology", "aggregation topology: flat (clients -> cloud) or hier "
        "(clients -> edge servers -> cloud)", default="flat", choices=("flat", "hier"))
    n_edges: int = flag("--edges", "edge-server count for --topology hier", default=2)
    # Client materialization (repro.fleet.scale): "lazy" keeps the
    # population virtual (O(K) resident clients, bit-identical histories).
    fleet_mode: str = flag(
        "--fleet-mode", "client materialization: eager builds every Client up "
        "front; lazy materializes only each round's participants "
        "(bit-identical history)", default="eager", choices=("eager", "lazy"))
    # Adversarial fleet (repro.fl.robust): "none" = honest fleet, "mean" =
    # the classic impact-factor-weighted mean; the robust defenses compose
    # with staleness decay and server_mix="delta".
    attack: str = flag(
        "--attack", "adversarial fleet: poison a seeded malicious subset's data "
        "(label_flip, backdoor) or their submitted updates (sign_flip, scale, ipm)",
        default="none", choices=("none", *ATTACK_MODELS))
    malicious_fraction: float = flag(
        "--malicious-fraction", "fraction of clients the attack compromises "
        "(seeded; at least one when an attack is set)", default=0.2)
    attack_scale: float = flag(
        "--attack-scale", "update-attack amplification (and backdoor "
        "model-replacement boost when > 1)", default=1.0)
    aggregator: str = flag(
        "--aggregator", "server combination rule: the classic weighted mean, or "
        "a robust defense (median, trimmed_mean, krum, multikrum, norm_clip)",
        default="mean", choices=ROBUST_AGGREGATORS)
    # Observability (repro.obs): None disables tracing entirely (no-op at
    # every call site).
    trace: str | None = flag(
        "--trace", "stream spans/metrics to a JSONL trace at PATH (a Chrome "
        "trace and a run manifest are written next to it)", default=None)
    metrics_interval: float = flag(
        "--metrics-interval", "snapshot the metrics registry into the trace "
        "every N simulated seconds (needs --trace)", default=0.0)
    # Fault tolerance (repro.runtime.faults): a cell's *first* attempt
    # fails with the given probabilities, plus the parent-side recovery
    # knobs.  All-zero probabilities keep every backend on the historical
    # fault-free path.
    fault_crash_prob: float = flag(
        "--fault-crash", "per-(round, client) probability the first attempt "
        "crashes its worker (seeded, recovered bit-identically)", default=0.0)
    fault_exception_prob: float = flag(
        "--fault-exception", "per-cell probability of an injected task error",
        default=0.0)
    fault_transient_prob: float = flag(
        "--fault-transient", "per-cell probability of a transient failure that "
        "clears on retry", default=0.0)
    fault_hang_prob: float = flag(
        "--fault-hang", "per-cell probability of an injected hang", default=0.0)
    fault_hang_s: float = flag(
        "--fault-hang-s", "wall seconds an injected hang stalls before raising",
        default=0.05)
    task_timeout_s: float | None = flag(
        "--task-timeout", "per-task timeout in wall seconds for pooled backends "
        "(default: wait forever)", default=None)
    max_retries: int = flag("--max-retries", "bounded per-task retry budget", default=3)
    # Kill-safe checkpoint/resume (repro.runtime.checkpoint).
    checkpoint_path: str | None = flag(
        "--checkpoint", "atomically snapshot full run state to PATH (kill-safe; "
        "see --checkpoint-every / --resume)", default=None)
    checkpoint_every: int = flag(
        "--checkpoint-every", "snapshot every N rounds (sync) or aggregation "
        "flushes (async); needs --checkpoint", default=1)
    resume: str | None = flag(
        "--resume", "restore run state from a snapshot and continue "
        "(bit-identical to an uninterrupted run)", default=None)
    # Wire-efficient uploads (repro.fl.wire): lossy codecs keep per-client
    # error-feedback residuals unless error_feedback=False; "none"
    # bandwidth keeps the byte-blind historical clock.
    codec: str = flag(
        "--codec", "upload codec for client deltas: dense float passthrough, "
        "topk sparsification, qsgd{4,8} stochastic quantization, or "
        "topk+qsgd{4,8} composition", default="dense", choices=WIRE_CODECS)
    topk_frac: float = flag(
        "--topk-frac", "topk codecs: fraction of coordinates kept", default=0.01)
    quant_bits: int = flag(
        "--quant-bits", "qsgd codecs without a bits suffix: quantization bit width",
        default=8, choices=QUANT_BITS)
    error_feedback: bool = flag(
        "--error-feedback", "carry the lossy-codec residual into the next upload "
        "from the same client", default=True)
    bandwidth_model: str = flag(
        "--bandwidth-model", "per-client link-rate model: comm time becomes "
        "payload_bytes / bandwidth (needs --latency-model)",
        default="none", choices=("none", *BANDWIDTH_MODELS))
    up_mbps: float = flag("--up-mbps", "mean client uplink rate in Mbit/s", default=1.0)
    down_mbps: float = flag(
        "--down-mbps", "mean client downlink rate in Mbit/s", default=10.0)
    straggler_comm_slowdown: float | None = flag(
        "--straggler-comm-slowdown", "separate straggler multiplier for comm "
        "phases (default: same as --straggler-slowdown)", default=None)

    def __post_init__(self) -> None:
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices is not None and getattr(self, f.name) not in choices:
                raise ValueError(f"{f.name} must be one of {choices}")
        if self.n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if self.clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive")
        if self.clients_per_round > self.n_clients:
            raise ValueError("clients_per_round cannot exceed n_clients")
        if self.rounds is not None and self.rounds <= 0:
            raise ValueError("rounds must be positive when given")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.drl_pretrain_rounds < 0:
            raise ValueError("drl_pretrain_rounds must be non-negative")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.workers is not None and self.workers <= 0:
            raise ValueError("workers must be positive when given")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.method == "singleset" and (
            self.backend != "serial"
            or self.workers is not None
            or self.latency_model != "none"
        ):
            raise ValueError(
                "singleset is centralized training — backend/workers/"
                "latency settings do not apply to it"
            )
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be non-negative")
        if self.metrics_interval > 0 and self.trace is None:
            raise ValueError("metrics_interval needs trace=PATH to write to")
        if self.trace is not None and self.method == "singleset":
            raise ValueError(
                "tracing instruments the federated engines — singleset "
                "is centralized training and emits no trace"
            )
        if self.deadline_policy == "drop" and self.deadline_s is None:
            raise ValueError("deadline_policy='drop' requires deadline_s")
        if self.latency_model == "none" and (
            self.deadline_s is not None
            or self.deadline_policy != "wait"
            or self.straggler_fraction > 0
            or self.straggler_comm_slowdown is not None
        ):
            raise ValueError(
                "deadline/straggler settings have no effect without a "
                f"latency_model — pick one of {LATENCY_MODELS}"
            )
        if self.method == "feddrl" and self.deadline_policy == "drop":
            # The DRL agent's state/action dims are fixed at K; dropping
            # straggler updates would hand it fewer (see ROADMAP: async FL).
            raise ValueError(
                "feddrl needs exactly K updates per round; "
                "deadline_policy='drop' is unsupported for it (use 'wait')"
            )
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.max_concurrency is not None and self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive when given")
        if isinstance(self.server_mix, str):
            if self.server_mix != DELTA_MIX:
                raise ValueError(
                    f"server_mix must be a float in (0, 1] or {DELTA_MIX!r}"
                )
        elif self.server_mix is not None and not 0.0 < self.server_mix <= 1.0:
            raise ValueError("server_mix must be in (0, 1] when given")
        self._validate_fleet()
        self._validate_robust()
        self._validate_faults()
        self._validate_scale_out()
        self._validate_wire()
        if self.aggregation != "sync":
            if self.method == "singleset":
                raise ValueError(
                    "singleset is centralized training — asynchronous "
                    "aggregation does not apply to it"
                )
            if self.latency_model == "none":
                raise ValueError(
                    "asynchronous aggregation needs a latency_model — "
                    "arrival order is defined by simulated device timing; "
                    f"pick one of {LATENCY_MODELS}"
                )
            if self.deadline_s is not None or self.deadline_policy != "wait":
                raise ValueError(
                    "round deadlines are a synchronous concept — the async "
                    "engine never waits on a round barrier"
                )
            if self.method == "feddrl" and self.aggregation == "fedasync":
                raise ValueError(
                    "feddrl needs a fixed participation level; fedasync "
                    "aggregates single updates (use fedbuff, where the "
                    "agent is built for K=buffer_size)"
                )
            if self.method == "feddrl" and self.drl_pretrain_rounds > 0:
                raise ValueError(
                    "two-stage pretraining trains an agent for K="
                    "clients_per_round synchronous rounds; it cannot seed "
                    "an async buffer-sized agent"
                )
            if self.max_concurrency is not None and self.max_concurrency > self.n_clients:
                raise ValueError(
                    "max_concurrency cannot exceed n_clients (a client "
                    "holds at most one job at a time)"
                )

    def _validate_fleet(self) -> None:
        if not 0.0 <= self.offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        if self.churn_rate <= 0.0:
            raise ValueError("churn_rate must be positive")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if not 0.0 < self.completeness <= 1.0:
            raise ValueError("completeness must be in (0, 1]")
        if self.dispatch != "random" and self.aggregation == "sync":
            raise ValueError(
                "dispatch policies apply to the async engine only — "
                "synchronous rounds select participants, they do not "
                "dispatch jobs"
            )
        if not self.fleet_active:
            return
        if self.latency_model == "none":
            raise ValueError(
                "fleet behavior (availability/dropout/completeness) evolves "
                "over the virtual clock — pick a latency_model, one of "
                f"{LATENCY_MODELS}"
            )
        if self.method == "feddrl" and self.aggregation == "sync":
            raise ValueError(
                "feddrl needs exactly K updates per synchronous round; an "
                "unreliable fleet cannot guarantee that — use "
                "aggregation='fedbuff' (the agent is built for "
                "K=buffer_size and buffers fill from whoever arrives)"
            )

    def _validate_scale_out(self) -> None:
        if self.n_edges <= 0:
            raise ValueError("n_edges must be positive")
        if self.topology == "hier":
            if self.method == "singleset":
                raise ValueError(
                    "singleset is centralized training — an aggregation "
                    "topology does not apply to it"
                )
            if self.aggregation == "fedasync":
                raise ValueError(
                    "fedasync flushes one update at a time — there is "
                    "nothing to fold into edges; use sync or fedbuff"
                )
            window = (
                self.buffer_size if self.aggregation == "fedbuff"
                else self.clients_per_round
            )
            if self.n_edges > window:
                raise ValueError(
                    f"n_edges={self.n_edges} exceeds the aggregation window "
                    f"({window} updates) — every edge needs at least one "
                    "member"
                )
            if self.method == "feddrl" and self.aggregation == "fedbuff":
                raise ValueError(
                    "feddrl needs a fixed participation level; under "
                    "fedbuff a fast client can land twice in one window, "
                    "leaving fewer than n_edges distinct edges — use "
                    "topology='hier' with aggregation='sync'"
                )
        if self.fleet_mode == "lazy":
            if self.method == "singleset":
                raise ValueError(
                    "singleset is centralized training — lazy client "
                    "materialization does not apply to it"
                )
            if self.backend == "process":
                raise ValueError(
                    "the process backend ships every client to its workers "
                    "at pool construction — lazy materialization needs the "
                    "serial or thread backend"
                )
            if self.attack != "none":
                raise ValueError(
                    "attacks poison client shards at build time, which "
                    "materializes the whole fleet — use fleet_mode='eager'"
                )
            if self.availability == "label_skew":
                raise ValueError(
                    "label_skew availability reads every client's labels at "
                    "build time — use fleet_mode='eager' or another "
                    "availability model"
                )

    def _validate_robust(self) -> None:
        if not 0.0 <= self.malicious_fraction < 0.5:
            raise ValueError(
                "malicious_fraction must be in [0, 0.5) — no robust "
                "aggregator survives a malicious majority"
            )
        if self.attack_scale <= 0:
            raise ValueError("attack_scale must be positive")
        if self.attack != "none" and self.malicious_fraction == 0.0:
            raise ValueError(
                "an attack needs a positive malicious_fraction — "
                "nobody is compromised at 0.0"
            )
        if self.method == "singleset" and (
            self.attack != "none" or self.aggregator != "mean"
        ):
            raise ValueError(
                "singleset is centralized training — attacks and robust "
                "aggregation apply to the federated engines only"
            )

    def _validate_faults(self) -> None:
        probs = (
            self.fault_crash_prob, self.fault_exception_prob,
            self.fault_transient_prob, self.fault_hang_prob,
        )
        for p in probs:
            if not 0.0 <= p < 1.0:
                raise ValueError("fault probabilities must be in [0, 1)")
        if sum(probs) >= 1.0:
            raise ValueError("fault probabilities must sum below 1")
        if self.fault_hang_s <= 0:
            raise ValueError("fault_hang_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive when given")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_every != 1 and self.checkpoint_path is None:
            raise ValueError("checkpoint_every needs checkpoint_path to write to")
        if self.method == "singleset" and (
            self.faults_active
            or self.checkpoint_path is not None
            or self.resume is not None
        ):
            raise ValueError(
                "singleset is centralized training — fault injection and "
                "checkpointing apply to the federated engines only"
            )
        if self.method == "feddrl" and (
            self.checkpoint_path is not None or self.resume is not None
        ):
            raise ValueError(
                "feddrl checkpointing is unsupported: the DRL agent's "
                "replay buffer and network state are not snapshotted yet"
            )

    def _validate_wire(self) -> None:
        if not 0.0 < self.topk_frac <= 1.0:
            raise ValueError("topk_frac must be in (0, 1]")
        if self.up_mbps <= 0 or self.down_mbps <= 0:
            raise ValueError("up_mbps/down_mbps must be positive")
        if (
            self.straggler_comm_slowdown is not None
            and self.straggler_comm_slowdown < 1.0
        ):
            raise ValueError("straggler_comm_slowdown must be >= 1 when given")
        if self.bandwidth_model != "none" and self.latency_model == "none":
            raise ValueError(
                "a bandwidth model drives the virtual clock's comm phases — "
                f"pick a latency_model, one of {LATENCY_MODELS}"
            )
        if self.method == "singleset" and self.wire_active:
            raise ValueError(
                "singleset is centralized training — upload codecs and "
                "bandwidth models apply to the federated engines only"
            )

    # -- resolved views ------------------------------------------------------
    @property
    def wire_active(self) -> bool:
        """True when uploads are compressed or bytes drive comm time."""
        return self.codec != "dense" or self.bandwidth_model != "none"

    @property
    def faults_active(self) -> bool:
        """True when any fault-injection probability is positive."""
        return (
            self.fault_crash_prob + self.fault_exception_prob
            + self.fault_transient_prob + self.fault_hang_prob
        ) > 0.0

    @property
    def fleet_active(self) -> bool:
        """True when any fleet-behavior axis departs from the ideal fleet."""
        return (
            self.availability != "always"
            or self.dropout_prob > 0.0
            or self.completeness < 1.0
        )

    @property
    def robust_active(self) -> bool:
        """True when an attack or a non-mean aggregation rule is configured."""
        return self.attack != "none" or self.aggregator != "mean"

    @property
    def preset(self) -> ScalePreset:
        return SCALES[self.scale]

    def resolved(self, name: str):
        """Field value with the scale preset as fallback."""
        value = getattr(self, name)
        return getattr(self.preset, name) if value is None else value

    @property
    def effective_labels_per_client(self) -> int:
        """Paper defaults: 2 labels/client, 20 for CIFAR-100 under PA."""
        if self.labels_per_client is not None:
            return self.labels_per_client
        if self.dataset == "cifar100" and self.partition == "PA":
            # Paper: 20 labels/client for CIFAR-100. Scale proportionally to
            # the stand-in's class count (20/100 of the classes).
            return max(2, self.preset.cifar_classes // 5)
        return 2

    @property
    def effective_model(self) -> str:
        model = self.resolved("model")
        if model != "auto":
            return model
        return "vgg11" if self.dataset == "cifar100" else "simple_cnn"

    def with_(self, **kwargs) -> "ExperimentConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)
