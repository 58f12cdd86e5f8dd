"""Noise-aware comparison of two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result objects (the last line ``perfbench/run.py`` prints),
one per line, all from one workload.  For every end-to-end metric in
``BENCHMARK.json`` the verdict is:

* ``worse`` — the change's median is worse than the base median by more
  than the metric's bound;
* ``better`` — the change's median is better by more than the base's own
  spread (interquartile distance over median), and the change wins at
  least nine in ten pairs of runs taken in order;
* ``unresolved`` — the base's spread is wider than the bound, so a
  difference inside it cannot be told from noise;
* ``unchanged`` — otherwise.

Exits 1 when a metric is worse or a run is not correct.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path: str | Path) -> list[dict]:
    """Result objects from a JSON-lines file; other lines are skipped."""
    out = []
    for line in Path(path).read_text().splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "metrics" in obj:
            out.append(obj)
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric; see the module docstring for the rule."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    # Relative improvement of the change over the base (> 0 is better).
    gain = sign * (c_med - b_med) / abs(b_med)
    b_spread = spread(base)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if gain < -bound:
        result = "worse"
    elif gain > b_spread and pairs and wins >= 0.9 * len(pairs):
        result = "better"
    elif b_spread > bound and not all(sign * (c - b) > 0 for b in base for c in change):
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "verdict": result, "base_median": b_med, "change_median": c_med,
        "gain": gain, "base_spread": b_spread, "wins": wins, "pairs": len(pairs),
    }


def compare(base: list[dict], change: list[dict], spec: dict | None = None) -> dict:
    """Per-metric verdicts plus whether every run was correct."""
    if spec is None:
        spec = json.loads(BENCHMARK_JSON.read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
        if b and c:
            metrics[name] = verdict(b, c, m["better"], m["bound"])
    correct = all(r["correct"] and r["failed"] == 0 for r in base + change)
    return {"correct": correct, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report = compare(load_results(argv[0]), load_results(argv[1]))
    for name, v in report["metrics"].items():
        print(f"{name:22s} {v['verdict']:10s} base {v['base_median']:.6g} "
              f"change {v['change_median']:.6g} gain {v['gain']:+.2%} "
              f"base spread {v['base_spread']:.2%} wins {v['wins']}/{v['pairs']}")
    print(json.dumps(report))
    worse = any(v["verdict"] == "worse" for v in report["metrics"].values())
    return 1 if worse or not report["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
