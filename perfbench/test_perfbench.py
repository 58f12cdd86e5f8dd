"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``.

Tiny-length passes of every workload check that each named metric is
emitted with its unit; an injected slowdown checks that the benchmark's
own comparison flags it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import bench, compare  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, subseeds  # noqa: E402
from repro.fl.client import Client  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, trace: bool, rounds: int = 2) -> dict:
    result, _ = bench.run(workload, seed=0, seconds=0, trace=trace,
                          rounds=rounds, n_subseeds=1)
    return result


def test_benchmark_json_matches_the_catalogue():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [entry[:3] for entry in PER_LAYER]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    expected = {entry[0]: entry[1] for entry in catalogue}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert math.isfinite(value["value"])
    json.dumps(result)


def test_traced_run_reconciles_and_keeps_the_digest():
    workload = WORKLOADS["feddrl-cluster"]
    plain = bench.run_rep(workload, 0, rounds=3)
    rec = bench.SpanRecorder()
    with bench.traced(rec):
        traced = bench.run_rep(workload, 0, rounds=3, recorder=rec)
    # Wrappers are removed on exit.
    assert Client.local_train.__name__ == "local_train"
    assert not hasattr(Client.local_train, "__wrapped__")
    assert traced.digest == plain.digest
    check = bench.check_trace(rec, traced, workload)
    assert check["reconcile_error"] < 0.01
    values = bench.layer_values(rec, traced)
    assert values["fl.client.local_train.calls"] == 30
    assert values["runtime.executor.jobs"] == 30
    assert values["fl.strategies.impact.calls"] == 3


def test_traced_run_writes_spans_and_ledger(tmp_path):
    result, details = bench.run("feddrl-cluster", seed=0, seconds=0, trace=True,
                                rounds=2, n_subseeds=1, state_dir=tmp_path)
    spans = [json.loads(line) for line in
             (tmp_path / "spans-feddrl-cluster-0.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == "bench.rep" and spans[0]["parent"] == -1
    assert all(s["start"] <= s["end"] for s in spans)
    assert {"fl.client.local_train", "drl.act"} <= {s["name"] for s in spans}
    assert json.loads((tmp_path / "digests.json").read_text())


def test_digest_ledger_flags_a_changed_history(tmp_path):
    rep = bench.run_rep(WORKLOADS["feddrl-cluster"], 0, rounds=2)
    ledger = bench.DigestLedger(tmp_path / "digests.json")
    assert ledger.check("feddrl-cluster", rep, 2)
    ledger.save()
    reloaded = bench.DigestLedger(tmp_path / "digests.json")
    assert reloaded.check("feddrl-cluster", rep, 2)
    rep.digest = "0" * 64
    assert not reloaded.check("feddrl-cluster", rep, 2)
    bench.check_digests([rep], WORKLOADS["feddrl-cluster"], 2, reloaded)
    assert rep.failures


def test_tail_is_the_highest_rank_with_ten_samples_beyond_it():
    assert bench.tail(list(range(1, 101))) == (90, 90.0, 1)
    assert bench.tail(list(range(1, 41))) == (30, 75.0, 1)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 1)
    # Full blocks of 100; the median over blocks resists one noisy block.
    noisy = list(range(1, 101)) + [1000.0] * 100 + list(range(1, 101)) + [5.0] * 7
    assert bench.tail(noisy) == (90, 90.0, 3)


def test_subseeds_are_disjoint_across_seeds():
    assert not set(subseeds(1, 4)) & set(subseeds(2, 4))
    with pytest.raises(ValueError):
        subseeds(-1, 2)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [1.5] * 5, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(base, [0.8] * 5, "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(base, [1.01] * 5, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7]
    assert compare.verdict(noisy, [1.05] * 5, "lower", 0.1)["verdict"] == "unresolved"


def test_injected_slowdown_is_flagged_worse(monkeypatch):
    base = [_tiny("feddrl-cluster", False, rounds=3) for _ in range(3)]
    original = Client.local_train

    def slow_local_train(self, *args, **kwargs):
        time.sleep(0.02)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Client, "local_train", slow_local_train)
    change = [_tiny("feddrl-cluster", False, rounds=3) for _ in range(3)]
    report = compare.compare(base, change, SPEC)
    assert report["metrics"]["round_s_p50"]["verdict"] == "worse"
    # Same seeds, same program numerics: accuracy does not move.
    assert report["metrics"]["final_accuracy"]["verdict"] == "unchanged"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cnn-fedavg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
