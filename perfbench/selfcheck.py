#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, runs for one second and its last
   output line carries exactly the metrics BENCHMARK.json names; both runs
   of a seed attempt and fail the same units.
2. Outputs of real calls, deliberately corrupted, count as failed units.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_metrics() -> None:
    for w in SPEC["workloads"]:
        counts = set()
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True and res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], float), (name, m)
            counts.add((res["attempted"], res["failed"]))
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} units, {res['failed']} failed")
        assert len(counts) == 1, (w["name"], counts)


def _edit_row(text: str, row: int, drop_field: bool) -> str:
    """Drop the last field of a data row, or the whole row."""
    lines = text.splitlines()
    if drop_field:
        lines[row + 1] = lines[row + 1].rsplit(",", 1)[0]
    else:
        del lines[row + 1]
    return "\n".join(lines) + "\n"


def check_corruption() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    from hrflow import cli
    from run import OUT, run_batch
    from workloads import WORKLOADS

    workdir = OUT / "selfcheck"
    try:
        for name, suffix, edits, expect in (
            # a 9-field sweep row and a missing last row: two failed rows
            ("sweep", "_sweep.csv", ((3, True), (19, False)), 2),
            ("portrait", "_portrait.csv", ((10, True),), 1),
            ("tables", "_forward.csv", ((5, True),), 1),
        ):
            wl = WORKLOADS[name](3, str(workdir / name))
            batch = wl.next_batch()
            outs = run_batch(cli.main, batch, wl.outdir, [])
            assert wl.check(batch, outs).failed == 0, name
            for out in outs:
                for fname in out.files:
                    if fname.endswith(suffix):
                        for row, drop in edits:
                            out.files[fname] = _edit_row(out.files[fname],
                                                         row, drop)
            failed = wl.check(batch, outs).failed
            assert failed == expect, (name, failed, expect)
            for out in outs:
                out.rc, out.files = None, {}
            failed = wl.check(batch, outs).failed
            assert failed == batch.units, (name, "raised", failed)
            print(f"ok  {name}: corrupted output counts {expect} failed "
                  f"unit(s), a raising call all {batch.units}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    from run import OUT

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("self-check passed")
