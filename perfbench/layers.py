"""The benchmark's metric catalogue.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints,
with its unit and better-direction; ``BENCHMARK.json`` must list the same
names (the self-tests check it).  Each per-layer entry also names the
end-to-end metric and workload it should move, so a later change can name
a layer and predict where a gain appears.

Per-layer values are totals over one traced training run of the
workload's fixed length (sub-seed 0).  ``*_s`` values are busy seconds
(the span's whole duration), ``*_self_s`` values subtract child spans,
``*.calls`` count spans.  Layers a workload does not exercise read 0.
"""

from __future__ import annotations

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("round_s_p50", "s", "lower"),
    ("round_s_tail", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("wall_to_target_s", "s", "lower"),
    ("final_accuracy", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

NN_KERNELS = (
    "nn.Conv2D.fwd", "nn.Conv2D.bwd", "nn.MaxPool2D.fwd", "nn.MaxPool2D.bwd",
    "nn.Dense.fwd", "nn.Dense.bwd", "nn.activation", "nn.optim.step",
)
NN_PARENTS = ("client_train", "client_eval", "server_eval", "drl")

_SETUP = "setup_s@all"
_CNN = "round_s_p50,train_samples_per_s,wall_to_target_s@cnn-fedavg"
_CNN_P50 = "round_s_p50@cnn-fedavg; no change on feddrl-cluster"
_DRL = "round_s_p50,round_s_tail@feddrl-cluster"
_TAIL = "round_s_tail@feddrl-cluster,fedbuff-wire"
_SYNC = "round_s_p50@cnn-fedavg,feddrl-cluster"
_ASYNC = "round_s_p50@fedbuff-wire"
_WIRE = "round_s_p50@fedbuff-wire; no change on the sync workloads"


def _busy(name: str, moves: str, self_time: bool = False):
    """A span layer: its seconds and its call count."""
    seconds = f"{name}_self_s" if self_time else f"{name}_s"
    return [(seconds, "s", "lower", moves), (f"{name}.calls", "count", "lower", moves)]


def _per_layer():
    out = []
    out += _busy("data.synth", _SETUP)
    out += _busy("data.partition", _SETUP)
    out += _busy("fl.client.make_clients", _SETUP)
    out += _busy("harness.build", _SETUP, self_time=True)
    for kernel in NN_KERNELS:
        moves = _CNN if "Conv" in kernel or "Pool" in kernel else _CNN + "; " + _DRL
        out += _busy(kernel, moves)
        out += [(f"{kernel}_s.{p}", "s", "lower", moves) for p in NN_PARENTS]
    out += _busy("fl.client.local_train", _CNN_P50)
    out += _busy("fl.client.eval", _CNN_P50)
    out += [
        ("fl.client.eval_share", "ratio", "lower", _CNN_P50),
        ("fl.client.sgd_steps", "count", "lower", _CNN_P50),
    ]
    out += _busy("fl.strategies.impact", _TAIL)
    out += _busy("fl.strategies.aggregate", _TAIL)
    out += _busy("fl.strategies.round_end", _TAIL)
    out += _busy("drl.act", _DRL)
    out += _busy("drl.train", _DRL)
    out += [
        ("drl.train.updates", "count", "lower", _DRL),
        ("drl.train.active_ratio", "ratio", "higher", _DRL),
    ]
    out += _busy("fl.simulation.round", _SYNC, self_time=True)
    out += _busy("fl.simulation.eval", _SYNC)
    out += _busy("fl.async_.run", _ASYNC, self_time=True)
    out += _busy("fl.async_.eval", _ASYNC)
    out += [
        ("fl.async_.flushes", "count", "higher", _ASYNC),
        ("fl.async_.arrivals", "count", "higher", _ASYNC),
        ("fl.async_.dropped_ratio", "ratio", "lower", _ASYNC),
        ("fl.async_.mean_staleness", "versions", "lower", _ASYNC),
    ]
    out += _busy("fl.wire.transmit", _WIRE)
    out += [
        ("fl.wire.bytes_up", "bytes", "lower", _WIRE),
        ("fl.wire.bytes_down", "bytes", "lower", _WIRE),
        ("fl.wire.compression_ratio", "ratio", "higher", _WIRE),
    ]
    out += _busy("runtime.executor.run_round", _ASYNC)
    out += [
        ("runtime.executor.jobs", "count", "higher", _ASYNC),
        ("runtime.executor.s_per_job", "s", "lower", _ASYNC),
        ("runtime.executor.overhead_s", "s", "lower", _ASYNC),
        ("runtime.executor.retries", "count", "lower", _ASYNC),
    ]
    out += _busy("runtime.clock.client_time", _ASYNC)
    out += [("runtime.clock.sim_makespan_s", "sim_s", "lower", _ASYNC)]
    out += _busy("fleet.online_ids", _ASYNC)
    out += _busy("fleet.drops", _ASYNC)
    out += [("trace.overhead_ratio", "ratio", "lower", "none: traced / untraced wall")]
    return tuple(out)


# (name, unit, better, end-to-end metric @ workload it should move)
PER_LAYER = _per_layer()
