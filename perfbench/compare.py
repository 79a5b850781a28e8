#!/usr/bin/env python3
"""Summarise one result set, or compare two, per workload and metric.

    python3 perfbench/compare.py parent.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

A result set is a JSON-lines file written by ``run.py --record`` or
``collect.py``.  For each workload and metric the summary prints median,
first and third quartile and the spread (quartile distance over median)
against the metric's bound in BENCHMARK.json.  A comparison adds the ratio
of medians (change / parent) and a verdict:

- better: every change run beats every parent run;
- unresolved: otherwise, when the spread of either side exceeds the bound;
- better: the change wins at least nine tenths of the seed-paired runs and
  the medians differ by more than the parent's quartile distance;
- worse beyond bound: the change's median is worse than the parent's by
  more than the bound;
- within bound: none of the above.

Per-layer metrics have no bound; they get medians and ratios only.  All
records of both sets must have been measured for the same --seconds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple[dict, set]:
    """(workload, trace) -> metric -> values ordered by seed, and the set of
    run lengths (--seconds) found in the file."""
    runs = defaultdict(list)
    seconds = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
                seconds.add(rec["seconds"])
    out = {}
    for key, recs in runs.items():
        recs.sort(key=lambda r: r["seed"])
        metrics = defaultdict(list)
        for rec in recs:
            for name, m in rec["metrics"].items():
                metrics[name].append(m["value"])
        out[key] = metrics
    return out, seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    def beats(x, y):
        return x > y if better == "higher" else x < y

    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = (mb - ma) if better == "higher" else (ma - mb)
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if all(beats(y, x) for x in a for y in b):
        return "better"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    if wins >= 0.9 * len(pairs) and gain > qa3 - qa1:
        return "better"
    if -gain > bound * abs(ma):
        return "worse beyond bound"
    return "within bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    loaded = [load(p) for p in argv]
    sets = [data for data, _ in loaded]
    seconds = set().union(*(secs for _, secs in loaded))
    if len(seconds) > 1:
        print(f"compare: records were measured for different --seconds "
              f"({', '.join(map(str, sorted(seconds)))}); not comparable",
              file=sys.stderr)
        return 2
    for key in sorted(set().union(*sets)):
        workload, trace = key
        group = spec["per_layer"] if trace else spec["end_to_end"]
        runs = [len(next(iter(s[key].values()), [])) if key in s else 0
                for s in sets]
        kind = "traced, per layer" if trace else "end to end"
        print(f"\n== {workload} ({kind}); runs: "
              + " vs ".join(map(str, runs)))
        head = (f"{'metric':24s} {'unit':10s} {'median':>12s} {'q1':>12s} "
                f"{'q3':>12s} {'spread':>7s}")
        if len(sets) == 2:
            head += f" {'median B':>12s} {'spread B':>8s} {'B/A':>7s}  verdict"
        else:
            head += f" {'bound':>6s}"
        print(head)
        for m in group:
            vals = [s.get(key, {}).get(m["name"]) for s in sets]
            if not all(vals):
                continue
            q1, med, q3 = quartiles(vals[0])
            line = (f"{m['name']:24s} {m['unit']:10s} {med:12.5g} {q1:12.5g} "
                    f"{q3:12.5g} {spread(vals[0]):7.3f}")
            bound = m.get("bound")
            if len(sets) == 1:
                line += f" {bound:6.3f}" if bound is not None else ""
            else:
                mb = quartiles(vals[1])[1]
                ratio = mb / med if med else float("nan")
                line += f" {mb:12.5g} {spread(vals[1]):8.3f} {ratio:7.4f}"
                if bound is not None:
                    line += "  " + verdict(vals[0], vals[1], m["better"], bound)
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
