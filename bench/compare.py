"""Compare two sets of benchmark results (JSONL files written by ``--out``).

For each workload and end-to-end metric it prints each side's median and
quartiles and a verdict:

- improved: the change wins at least 9 of 10 runs paired by seed (ties count
  for neither) and the medians differ by more than the parent's quartile
  spread;
- no worse within bound: the change's median is at most ``bound`` (a share
  of the parent's median) worse, and the parent's spread is within the bound;
- worse: the change's median is worse by more than the bound, with the
  parent's spread within the bound;
- unresolved: anything else, unless every run of the change reads better
  than every run of the parent, which counts as no worse.

It also prints the failed verb runs of each side against the runs attempted.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: {seed: result}} of the untraced records of one file."""
    by_workload: dict = defaultdict(dict)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    by_workload[rec["workload"]][rec["seed"]] = rec["result"]
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)  # > 0 when the change is better
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "no worse within bound"
    if (p3 - p1) > bound * abs(pm):
        return "unresolved"
    return "no worse within bound" if -gain <= bound * abs(pm) else "worse"


def main(parent_path: str, change_path: str, spec: dict) -> None:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<8} {'metric':<22} {'parent q1/median/q3':>30} "
          f"{'change q1/median/q3':>30}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs.values() if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values() if name in r["metrics"]]
            if not p_vals or not c_vals:
                print(f"{workload:<8} {name:<22} missing on one side")
                continue
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s]["metrics"] and name in c_runs[s]["metrics"]]
            print(f"{workload:<8} {name:<22} {_fmt(quartiles(p_vals)):>30} "
                  f"{_fmt(quartiles(c_vals)):>30}  "
                  f"{verdict(p_vals, c_vals, pairs, m['better'], m['bound'])}")
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs.values())
            failed = sum(r["failed"] for r in runs.values())
            print(f"{workload:<8} failed verb runs ({label}): {failed}/{attempted} "
                  f"= {failed / attempted:.4f} over {len(runs)} runs")
