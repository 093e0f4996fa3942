#!/usr/bin/env python3
"""Summarise one result set, or compare two, per workload × metric.

Result sets are the JSONL files ``run.py --out`` appends to (one record per
run).  With one file, prints each metric's median, quartiles, spread (the
inter-quartile distance as a share of the median) and the failure share.
With two (``before`` ``after``), adds a verdict per end-to-end metric:

* ``better`` — every ``after`` run beats every ``before`` run, or the
  medians improve by more than both sides' spreads;
* ``worse`` — the median worsens by more than the metric's bound;
* ``within bound`` — the difference is inside the bound;
* ``unresolved`` — either side's spread exceeds the bound, so the runs
  cannot tell.

Per-layer metrics have no bound; they get ``changed`` when the medians
differ by more than both spreads and ``unresolved`` otherwise.

    python3 perfbench/compare.py before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchstats import quartiles, spread  # noqa: E402
from workloads import END_TO_END, PER_LAYER  # noqa: E402

RULES = {name: (better, bound) for name, _u, better, bound in END_TO_END}
RULES.update({name: (better, None) for name, _u, better in PER_LAYER})

Key = Tuple[str, str]


def load(path: str) -> Tuple[Dict[Key, List[float]], Dict[str, List[float]]]:
    """(values per (workload, metric), failure shares per workload)."""
    values: Dict[Key, List[float]] = defaultdict(list)
    fails: Dict[str, List[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        res = rec["result"]
        fails[rec["workload"]].append(res["failed"] / max(1, res["attempted"]))
        for name, m in res["metrics"].items():
            values[(rec["workload"], name)].append(float(m["value"]))
    return values, fails


def verdict(name: str, before: List[float], after: List[float]) -> str:
    better, bound = RULES.get(name, ("lower", None))
    qa, qb = quartiles(before), quartiles(after)
    noise = max(spread(before), spread(after))
    if not qa[1]:
        return "unresolved"
    change = (qb[1] - qa[1]) / abs(qa[1])
    gain = -change if better == "lower" else change
    if bound is None:
        return "changed" if abs(change) > noise else "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    if min(sign * x for x in after) > max(sign * x for x in before):
        return "better"  # every run of `after` beats every run of `before`
    if noise > bound:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > noise:
        return "better"
    return "within bound"


def _fmt(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.4g} [{q1:.4g}, {q3:.4g}] ({spread(values):5.1%})"


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before")
    p.add_argument("after", nargs="?")
    args = p.parse_args(argv)
    a_vals, a_fail = load(args.before)
    b_vals, b_fail = load(args.after) if args.after else ({}, {})
    worse = 0
    for workload in sorted({w for w, _ in a_vals}):
        fa = quartiles(a_fail[workload])[1]
        head = f"== {workload}: {len(a_fail[workload])} run(s), failed share {fa:.3%}"
        if args.after:
            fb = quartiles(b_fail.get(workload, [0.0]))[1]
            head += f" -> {len(b_fail.get(workload, []))} run(s), {fb:.3%}"
        print(head)
        names = sorted(n for w, n in a_vals if w == workload)
        for name in names:
            line = f"  {name:38s} {_fmt(a_vals[(workload, name)])}"
            after = b_vals.get((workload, name))
            if after:
                v = verdict(name, a_vals[(workload, name)], after)
                worse += v == "worse"
                line += f"  ->  {_fmt(after)}  {v}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
