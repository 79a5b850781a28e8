#!/usr/bin/env python3
"""Run the benchmark on several seeds and append every result to one file.

    python3 perfbench/collect.py --out parent.jsonl --runs 10
    python3 perfbench/collect.py --out parent.jsonl --runs 10 --trace 1

Runs go one at a time, each in its own process, seeds 1..runs on every
chosen workload, each measuring BENCHMARK.json's run_seconds.  Summarise
or compare the files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON-lines file to append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = str(Path(args.out).resolve())
    for workload in args.workloads.split(","):
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(args.trace), "--record", out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0]}",
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
