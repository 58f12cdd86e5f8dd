"""Outside-in span tracing: wrap calls into each module's public functions.

Nothing in ``src/`` is instrumented.  :func:`traced` replaces selected
module functions and class methods with wrappers that record a span —
name, start, end, parent — into a :class:`SpanRecorder`, and restores the
originals on exit.  Spans stay in memory; :meth:`SpanRecorder.summary`
turns them into per-name busy (inclusive) and self times, where a span's
self time is its duration minus the time its child spans cover.

Spans are recorded in this process only: under a process-pool executor
the workers' training would show up as the parent's
``runtime.executor.run_round`` span (every workload runs serial).
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import repro.fl.async_.server as _async_server
import repro.fl.client as _client
import repro.fl.simulation as _simulation
import repro.harness.runner as _runner
from repro.drl.agent import DDPGAgent
from repro.fl.strategies.base import Strategy
from repro.fl.strategies.fedavg import FedAvg
from repro.fl.strategies.feddrl import FedDRL
from repro.fl.wire import WireFormat
from repro.fleet.simulator import FleetSimulator
from repro.nn import layers as nn_layers
from repro.nn.optim import SGD, Adam, ProximalSGD
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import SerialExecutor

# Span name -> the parent category its nn kernel children are filed under.
PARENT_CATEGORIES = {
    "fl.client.eval": "client_eval",
    "fl.client.local_train": "client_train",
    "fl.simulation.eval": "server_eval",
    "fl.async_.eval": "server_eval",
    "drl.act": "drl",
    "drl.train": "drl",
}


class SpanRecorder:
    """Spans of one traced region, kept in memory as flat lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # Per-name outcome tallies filled by result hooks (e.g. DRL updates).
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recorded as span ``name``.  A call nested directly in a
        span of the same name (a subclass calling ``super()``) is not
        recorded twice.  ``on_call(recorder, args, result)`` may tally
        outcome counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------
    def categories(self) -> list[str | None]:
        """Each span's nearest categorising ancestor (or itself)."""
        cats: list[str | None] = []
        for name, parent in zip(self.names, self.parents):
            own = PARENT_CATEGORIES.get(name)
            if own is None and parent >= 0:
                own = cats[parent]
            cats.append(own)
        return cats

    def summary(self) -> dict:
        """Busy (inclusive) and self seconds and call counts per span name,
        and per (name, parent category)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        split: dict[tuple[str, str], float] = defaultdict(float)
        split_calls: dict[tuple[str, str], int] = defaultdict(int)
        cats = self.categories()
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            busy[name] += dur
            self_s[name] += dur - child[i]
            calls[name] += 1
            p = self.parents[i]
            if p >= 0 and cats[p] is not None:
                split[(name, cats[p])] += dur
                split_calls[(name, cats[p])] += 1
        return {
            "busy": dict(busy), "self": dict(self_s), "calls": dict(calls),
            "split": dict(split), "split_calls": dict(split_calls),
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent index)."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                }) + "\n")


def _tally_jobs(rec: SpanRecorder, args, result) -> None:
    rec.counts["runtime.executor.jobs"] += len(args[2])


def _tally_drl_train(rec: SpanRecorder, args, result) -> None:
    if result is not None:
        rec.counts["drl.train.active"] += 1
        rec.counts["drl.train.updates"] += result.updates


def _targets():
    """(owner, attribute, span name, result hook) for every wrapped call."""
    out = [
        # Set-up layers, at their call sites in the harness.
        (_runner, "cifar100_like", "data.synth", None),
        (_runner, "build_partition", "data.partition", None),
        (_runner, "make_clients", "fl.client.make_clients", None),
        # Client work: local training and its evaluate_loss passes.
        (_client.Client, "local_train", "fl.client.local_train", None),
        (_client, "evaluate_loss", "fl.client.eval", None),
        # Server evaluation in each engine.
        (_simulation, "top1_accuracy", "fl.simulation.eval", None),
        (_simulation, "evaluate_loss", "fl.simulation.eval", None),
        (_async_server, "top1_accuracy", "fl.async_.eval", None),
        (_async_server, "evaluate_loss", "fl.async_.eval", None),
        # Engine step entry points.
        (_simulation.FederatedSimulation, "run_round", "fl.simulation.round", None),
        (_async_server.AsyncFederatedServer, "run", "fl.async_.run", None),
        # Strategy: the Fig. 9 split plus the agent's side-thread training.
        (FedAvg, "impact_factors", "fl.strategies.impact", None),
        (FedDRL, "impact_factors", "fl.strategies.impact", None),
        (Strategy, "on_round_end", "fl.strategies.round_end", None),
        (FedDRL, "on_round_end", "fl.strategies.round_end", None),
        (DDPGAgent, "act", "drl.act", None),
        (DDPGAgent, "train", "drl.train", _tally_drl_train),
        # Wire, executor, clock, fleet.
        (WireFormat, "transmit", "fl.wire.transmit", None),
        (SerialExecutor, "run_round", "runtime.executor.run_round", _tally_jobs),
        (VirtualClock, "client_time", "runtime.clock.client_time", None),
        (FleetSimulator, "online_ids", "fleet.online_ids", None),
        (FleetSimulator, "drops", "fleet.drops", None),
        # nn kernels.
        (nn_layers.Conv2D, "forward", "nn.Conv2D.fwd", None),
        (nn_layers.Conv2D, "backward", "nn.Conv2D.bwd", None),
        (nn_layers.MaxPool2D, "forward", "nn.MaxPool2D.fwd", None),
        (nn_layers.MaxPool2D, "backward", "nn.MaxPool2D.bwd", None),
        (nn_layers.Dense, "forward", "nn.Dense.fwd", None),
        (nn_layers.Dense, "backward", "nn.Dense.bwd", None),
        (SGD, "step", "nn.optim.step", None),
        (ProximalSGD, "step", "nn.optim.step", None),
        (Adam, "step", "nn.optim.step", None),
    ]
    for act in (nn_layers.ReLU, nn_layers.LeakyReLU, nn_layers.Tanh,
                nn_layers.Sigmoid, nn_layers.Softplus):
        out.append((act, "forward", "nn.activation", None))
        out.append((act, "backward", "nn.activation", None))
    return out


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, hook))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
