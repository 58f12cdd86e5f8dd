"""Benchmark runs: timed training repetitions, their metrics and checks.

One *repetition* builds a fresh engine from the workload's config (timed
as set-up), runs its fixed number of aggregation steps — sync rounds via
``run_round``, or FedBuff flushes inside ``run`` — and closes it.  An
untraced run repeats until ``--seconds`` have passed, cycling through the
workload's sub-seeds (each at least once), and reports the end-to-end
metrics.  A traced run alternates untraced and traced repetitions of
sub-seed 0 and reports the per-layer metrics of :mod:`perfbench.layers`
plus the tracing overhead.

Every repetition is checked: accuracy finite and at the workload's
target, and the History digest equal to every other repetition of the
same experiment seed — in this run, and in earlier runs of the same
source tree (a digest ledger under ``.bench_build/``).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.harness.runner as runner
from repro.harness.reporting import history_digest
from perfbench.layers import END_TO_END, NN_KERNELS, NN_PARENTS, PER_LAYER
from perfbench.tracer import SpanRecorder, traced
from perfbench.workloads import WORKLOADS, Workload, subseeds

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Rep:
    """One timed training repetition."""

    subseed: int
    setup_s: float
    step_s: list[float]
    wall_s: float
    samples: int
    final_accuracy: float
    to_target_s: float | None
    digest: str
    peak_rss_mb: float
    sim: object = None  # the closed engine, kept for traced repetitions
    failures: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# one repetition
# --------------------------------------------------------------------------

def _hwm_kb(pid: int | str) -> int:
    """A process's peak resident set (VmHWM) in KiB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus any live executor worker processes."""
    kb = _hwm_kb("self")
    for child in multiprocessing.active_children():
        kb += _hwm_kb(child.pid)
    return kb / 1024.0


def _run_steps(sim, cfg) -> list[float]:
    """Wall seconds of each aggregation step."""
    if cfg.aggregation == "sync":
        times = []
        for r in range(cfg.resolved("rounds")):
            t0 = perf_counter()
            sim.run_round(r)
            times.append(perf_counter() - t0)
        return times
    # The async engine runs its whole timeline in run(); a flush ends when
    # its record lands in the History, so time the gaps between appends.
    marks = [perf_counter()]
    append = sim.history.append

    def timed_append(record):
        append(record)
        marks.append(perf_counter())

    sim.history.append = timed_append
    try:
        sim.run()
    finally:
        del sim.history.append
    return [b - a for a, b in zip(marks, marks[1:])]


def run_rep(
    workload: Workload, subseed: int, rounds: int | None = None,
    recorder: SpanRecorder | None = None,
) -> Rep:
    """Build, train and close one engine; ``recorder`` traces it (the
    caller installs the wrappers)."""
    cfg = workload.config(subseed, rounds)
    t0 = perf_counter()
    root = recorder.open("bench.rep") if recorder is not None else None
    build = runner.build_simulation
    if recorder is not None:
        build = recorder.wrap("harness.build", build)
    sim = build(cfg)
    try:
        setup_s = perf_counter() - t0
        steps = _run_steps(sim, cfg)
        rss = peak_rss_mb()
    finally:
        sim.close()
    if recorder is not None:
        recorder.close(root)
    wall = perf_counter() - t0

    history = sim.history
    epochs = cfg.resolved("local_epochs")
    samples = int(sum(int(r.client_sizes.sum()) for r in history.records)) * epochs
    failures = []
    accs = [r.test_accuracy for r in history.records]
    final = accs[-1] if accs and accs[-1] is not None else float("nan")
    if not math.isfinite(final):
        failures.append(f"seed {subseed}: final accuracy {final}")
    to_target = None
    elapsed = 0.0
    for dt, acc in zip(steps, accs):
        elapsed += dt
        if acc is not None and acc >= workload.target:
            to_target = elapsed
            break
    if to_target is None:
        failures.append(
            f"seed {subseed}: accuracy never reached {workload.target} "
            f"(final {final:.4f})"
        )
    if len(steps) != len(history.records):
        failures.append(f"seed {subseed}: {len(steps)} steps timed, "
                        f"{len(history.records)} recorded")
    return Rep(
        subseed=subseed, setup_s=setup_s, step_s=steps, wall_s=wall,
        samples=samples, final_accuracy=final, to_target_s=to_target,
        digest=history_digest(history), peak_rss_mb=rss,
        # Only traced repetitions keep their engine (for layer counts);
        # holding every engine would inflate the run's own peak RSS.
        sim=sim if recorder is not None else None,
        failures=failures,
    )


# --------------------------------------------------------------------------
# digests
# --------------------------------------------------------------------------

def tree_hash() -> str:
    """sha256 over the program and benchmark sources — one id per commit."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class DigestLedger:
    """History digests of earlier runs of this source tree, by experiment.

    A digest that differs from one recorded for the same source tree,
    workload, experiment seed and length marks the repetition failed.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.tree = tree_hash()
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def check(self, workload: str, rep: Rep, rounds: int) -> bool:
        key = f"{self.tree}:{workload}:{rep.subseed}:{rounds}"
        known = self.entries.setdefault(key, rep.digest)
        return known == rep.digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True))
        os.replace(tmp, self.path)


def check_digests(reps: list[Rep], workload: Workload, rounds: int,
                  ledger: DigestLedger | None) -> None:
    """Fail repetitions whose digest disagrees with another run of the
    same experiment seed (in this run or in the ledger)."""
    first: dict[int, str] = {}
    for rep in reps:
        known = first.setdefault(rep.subseed, rep.digest)
        if known != rep.digest:
            rep.failures.append(f"seed {rep.subseed}: digest differs within the run")
        if ledger is not None and not ledger.check(workload.name, rep, rounds):
            rep.failures.append(f"seed {rep.subseed}: digest differs from an earlier run")
    if ledger is not None:
        ledger.save()


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

TAIL_BLOCK = 100


def tail(values: list[float], block: int = TAIL_BLOCK) -> tuple[float, float, int]:
    """(value, percentile, blocks) of the tail step time.

    Within a block of steps the tail is the highest order statistic with
    ten steps beyond it — the 90th percentile of a full block of 100.
    Steps are cut into consecutive full blocks (one block of everything
    when there are fewer than ``block``) and the median over blocks is
    reported, so one burst of host noise moves one block, not the metric.
    """
    n = len(values)
    size = block if n >= block else n
    k = size - 10 if size > 10 else size  # 1-indexed rank, size - k steps above
    tails = [sorted(values[i:i + size])[k - 1] for i in range(0, n - size + 1, size)]
    return statistics.median(tails), 100.0 * k / size, len(tails)


def end_to_end(reps: list[Rep], setups: list[float] = ()) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample details behind them;
    ``setups`` are extra build-only set-up times."""
    setup_times = [r.setup_s for r in reps] + list(setups)
    steps = [t for r in reps for t in r.step_s]
    tail_s, pct, blocks = tail(steps)
    by_seed: dict[int, list[Rep]] = defaultdict(list)
    for r in reps:
        by_seed[r.subseed].append(r)
    to_target = [
        statistics.median(r.to_target_s if r.to_target_s is not None else sum(r.step_s)
                          for r in group)
        for group in by_seed.values()
    ]
    values = {
        "setup_s": statistics.median(setup_times),
        "round_s_p50": statistics.median(steps),
        "round_s_tail": tail_s,
        "train_samples_per_s": sum(r.samples for r in reps) / sum(steps),
        "wall_to_target_s": statistics.fmean(to_target),
        "final_accuracy": statistics.fmean(g[0].final_accuracy for g in by_seed.values()),
        "peak_rss_mb": max(r.peak_rss_mb for r in reps),
    }
    details = {
        "repetitions": len(reps),
        "steps": len(steps),
        "round_s_tail_percentile": round(pct, 2),
        "round_s_tail_samples": len(steps),
        "round_s_tail_blocks": blocks,
        "setup_samples": len(setup_times),
        "final_accuracy_by_seed": {s: g[0].final_accuracy for s, g in by_seed.items()},
        "digest_by_seed": {s: g[0].digest for s, g in by_seed.items()},
    }
    return values, details


def layer_values(rec: SpanRecorder, rep: Rep) -> dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    s = rec.summary()
    busy, self_s, calls = s["busy"], s["self"], s["calls"]
    values: dict[str, float] = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith("_self_s"):
            values[name] = self_s.get(name[: -len("_self_s")], 0.0)
        elif name.endswith("_s"):
            values[name] = busy.get(name[:-2], 0.0)
    for kernel in NN_KERNELS:
        for parent in NN_PARENTS:
            values[f"{kernel}_s.{parent}"] = s["split"].get((kernel, parent), 0.0)
    sim, history = rep.sim, rep.sim.history
    train_s = busy.get("fl.client.local_train", 0.0)
    run_round_s = busy.get("runtime.executor.run_round", 0.0)
    jobs = rec.counts.get("runtime.executor.jobs", 0)
    drl_calls = calls.get("drl.train", 0)
    asynchronous = hasattr(sim, "flush_size")
    arrivals = len(history.events)
    values.update({
        "fl.client.eval_share": busy.get("fl.client.eval", 0.0) / train_s if train_s else 0.0,
        "fl.client.sgd_steps": s["split_calls"].get(("nn.optim.step", "client_train"), 0),
        # The engines time eq. (4) themselves (the Fig. 9 split), on every
        # path — FedBuff's delta mix calls no public function to wrap.
        "fl.strategies.aggregate_s": sum(r.aggregation_time_s for r in history.records),
        "fl.strategies.aggregate.calls": len(history.records),
        "drl.train.updates": rec.counts.get("drl.train.updates", 0),
        "drl.train.active_ratio": (
            rec.counts.get("drl.train.active", 0) / drl_calls if drl_calls else 0.0
        ),
        "fl.async_.flushes": len(history.records) if asynchronous else 0,
        "fl.async_.arrivals": arrivals,
        "fl.async_.dropped_ratio": (
            sum(e.dropped for e in history.events) / arrivals if arrivals else 0.0
        ),
        "fl.async_.mean_staleness": history.mean_staleness(),
        "fl.wire.bytes_up": history.total_bytes_up(),
        "fl.wire.bytes_down": history.total_bytes_down(),
        "fl.wire.compression_ratio": history.wire_compression_ratio(),
        "runtime.executor.jobs": jobs,
        "runtime.executor.s_per_job": run_round_s / jobs if jobs else 0.0,
        # Executor time beyond the clients' own training; only visible
        # when training runs in this process (serial backend).
        "runtime.executor.overhead_s": run_round_s - train_s if train_s else 0.0,
        "runtime.executor.retries": sim.fault_totals.rt_retries,
        "runtime.clock.sim_makespan_s": history.total_sim_time() if sim.clock else 0.0,
    })
    return values


def layer_groups(rec: SpanRecorder, fold: bool) -> dict[str, float]:
    """Self seconds per layer, partitioning the traced wall time.

    Unfolded, every span name is a layer (the kernel view).  Folded, a
    span inside a categorising parent (client training, client or server
    evaluation, DRL) counts towards that category instead.
    """
    n = len(rec.names)
    child = [0.0] * n
    for i in range(n):
        if rec.parents[i] >= 0:
            child[rec.parents[i]] += rec.ends[i] - rec.starts[i]
    groups: dict[str, float] = defaultdict(float)
    for i, (name, cat) in enumerate(zip(rec.names, rec.categories())):
        layer = cat if fold and cat is not None else name
        groups[layer] += rec.ends[i] - rec.starts[i] - child[i]
    return dict(groups)


def check_trace(rec: SpanRecorder, rep: Rep, workload: Workload) -> dict:
    """Reconcile self times with the repetition's wall time, and check
    that the workload's stated dominant layer is the largest one (in the
    folded view when it names a category, else per span)."""
    fold = all(name in NN_PARENTS for name in workload.dominant)
    groups = layer_groups(rec, fold)
    total_self = sum(groups.values())
    dominant = sum(groups.get(name, 0.0) for name in workload.dominant)
    others = [v for k, v in groups.items() if k not in workload.dominant]
    top = sorted(groups.items(), key=lambda kv: -kv[1])[:6]
    return {
        "reconcile_error": abs(total_self - rep.wall_s) / rep.wall_s,
        "dominant": list(workload.dominant),
        "dominant_share": dominant / rep.wall_s,
        "dominant_ok": dominant >= max(others, default=0.0),
        "top_self_shares": {k: round(v / rep.wall_s, 4) for k, v in top},
    }


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def environment(seed: int, seeds: list[int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "experiment_seeds": seeds,
    }


# Extra build-only set-ups per untraced run: a run trains only a few
# repetitions, too few set-ups for a steady median on their own.
SETUP_SAMPLES = 12


def time_setup(workload: Workload, seed: int) -> float:
    """Wall seconds from the config to a ready engine, then close it."""
    cfg = workload.config(seed)
    t0 = perf_counter()
    sim = runner.build_simulation(cfg)
    setup_s = perf_counter() - t0
    sim.close()
    return setup_s


def _warm_up(workload: Workload, seed: int) -> None:
    """One short untimed repetition: imports, allocator and caches settle."""
    run_rep(workload, seed, rounds=1)


def run(
    workload_name: str, seed: int, seconds: float, trace: bool,
    rounds: int | None = None, n_subseeds: int | None = None,
    state_dir: Path | None = None,
) -> tuple[dict, dict]:
    """One benchmark run: (result object, details).

    ``rounds`` and ``n_subseeds`` shorten the workload for smoke tests.
    ``state_dir`` receives the digest ledger and, for a traced run, the
    last traced repetition's spans as JSON lines.
    """
    workload = WORKLOADS[workload_name]
    length = workload.rounds if rounds is None else rounds
    seeds = subseeds(seed, workload.subseeds if n_subseeds is None else n_subseeds)
    ledger = None
    if state_dir is not None:
        state_dir.mkdir(parents=True, exist_ok=True)
        ledger = DigestLedger(state_dir / "digests.json")
    details = {"workload": workload_name, "rounds": length,
               "env": environment(seed, seeds)}
    _warm_up(workload, seeds[0])
    start = perf_counter()

    if not trace:
        reps: list[Rep] = []
        while len(reps) < len(seeds) or perf_counter() - start < seconds:
            reps.append(run_rep(workload, seeds[len(reps) % len(seeds)], length))
        check_digests(reps, workload, length, ledger)
        setups = [time_setup(workload, seeds[i % len(seeds)]) for i in range(SETUP_SAMPLES)]
        values, more = end_to_end(reps, setups)
        details.update(more)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    else:
        plain: list[Rep] = []
        traced_reps: list[tuple[Rep, SpanRecorder]] = []
        while not traced_reps or perf_counter() - start < seconds:
            # Alternate which side goes first so drift hits both equally.
            order = (False, True) if len(traced_reps) % 2 == 0 else (True, False)
            for with_trace in order:
                if not with_trace:
                    plain.append(run_rep(workload, seeds[0], length))
                    continue
                rec = SpanRecorder()
                with traced(rec):
                    rep = run_rep(workload, seeds[0], length, recorder=rec)
                traced_reps.append((rep, rec))
        reps = plain + [rep for rep, _ in traced_reps]
        check_digests(reps, workload, length, ledger)
        per_rep = [layer_values(rec, rep) for rep, rec in traced_reps]
        values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(rep.wall_s for rep, _ in traced_reps)
            / statistics.median(rep.wall_s for rep in plain)
        )
        checks = []
        for rep, rec in traced_reps:
            checks.append(check_trace(rec, rep, workload))
            if checks[-1]["reconcile_error"] > 0.01:
                rep.failures.append("trace self times do not add up to the wall time")
        details["trace"] = checks[len(checks) // 2]
        details["trace"]["max_reconcile_error"] = max(c["reconcile_error"] for c in checks)
        details["traced_repetitions"] = len(traced_reps)
        if state_dir is not None:
            spans = state_dir / f"spans-{workload_name}-{seed}.jsonl"
            traced_reps[-1][1].dump(spans)
            details["spans"] = str(spans)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better, _moves in PER_LAYER}

    failures = [f for rep in reps for f in rep.failures]
    details["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": len(reps),
        "failed": sum(1 for rep in reps if rep.failures),
        "metrics": metrics,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        state_dir=ROOT / ".bench_build" / "perfbench",
    )
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0
