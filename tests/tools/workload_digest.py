#!/usr/bin/env python3
"""A SHA-256 over every byte the benchmark's workloads make hrflow write.

    python3 tests/tools/workload_digest.py --workload sweep --seed 41 \\
        --batches 200

Run from anywhere; the package is imported from this checkout's ``src/``
and the batches are drawn by ``perfbench/workloads.py``, as the benchmark
draws them from the same seed.  Every call of a batch goes through
``hrflow.cli.main``, and the digest covers, call by call, its argv, its
exit code, its stdout and stderr, and every file it wrote (name and
content).  The calls run in a fresh temporary directory and every path in
them is relative to it, so two checkouts print the same digest exactly
when they write the same bytes.  One line is printed per workload and
seed: ``<workload> <seed> <batches> <sha256>``.

This is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"),
                str(ROOT / "perfbench")]

from hrflow import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _call(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or SystemExit code), stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(workload: str, seed: int, batches: int) -> str:
    """The SHA-256 of ``batches`` batches of ``workload`` drawn from
    ``seed``; the calls run in the current directory."""
    sha = hashlib.sha256()
    wl = WORKLOADS[workload](seed, "work")
    for _ in range(batches):
        for argv in wl.next_batch().argvs:
            code, out, err = _call(argv)
            sha.update(repr((argv, code, out, err)).encode())
            names = sorted(os.listdir(wl.outdir)) \
                if os.path.isdir(wl.outdir) else []
            for name in names:
                path = os.path.join(wl.outdir, name)
                with open(path, "rb") as fh:
                    sha.update(repr((name, fh.read())).encode())
                os.remove(path)
    return sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default all three")
    ap.add_argument("--seed", type=int, action="append",
                    help="repeatable; default 41 and 42")
    ap.add_argument("--batches", type=int, default=100)
    args = ap.parse_args(argv)
    home = os.getcwd()
    for workload in args.workload or sorted(WORKLOADS):
        for seed in args.seed or [41, 42]:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    sha = digest(workload, seed, args.batches)
                finally:
                    os.chdir(home)
            print(workload, seed, args.batches, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
