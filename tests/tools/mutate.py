#!/usr/bin/env python3
"""Which flipped comparisons and swapped boolean operators tier-1 misses.

    python3 tests/tools/mutate.py --module yflow --module classify \\
        --jobs 2 > survivors.json

Each mutant changes one site of one module of ``src/hrflow``, found with
the stdlib ``ast``: a comparison operator becomes its strict or non-strict
twin (``<`` and ``<=``, ``>`` and ``>=``) or its negation (``<`` and
``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``),
or a boolean operator swaps ``and`` and ``or``.  The edit is made in the
text, so every other byte of the module is kept.  A site is keyed by its
node type and position, since a ``BoolOp`` and its first ``Compare`` can
share a line and a column, and by the operator's index within the node.

The checkout (default: the one holding this file) is copied once per job
into a scratch directory; each mutant is written into a copy, tier-1 runs
there with ``-x`` and a fixed hypothesis seed, and the module is put back.
A mutant survives when the run passes, and a run that takes more than
TIMEOUT_S seconds kills it.  The survivors are printed as one JSON list on
stdout, one record per mutant; the counts go to stderr.

This is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ENGINE = ("yflow", "classify", "einstein", "roots", "cli")
#: the other modules ``--module`` may name
OTHERS = ("flow", "stepper", "blowup", "spaces")
#: seconds before a run counts as killed (tier-1 takes about 20)
TIMEOUT_S = 600

#: per comparison operator, the operators it is flipped to
FLIPS = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
}
TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}
COMPARE_OP = re.compile(rb"<=|>=|==|!=|<|>|\bis\s+not\b|\bnot\s+in\b"
                        rb"|\bis\b|\bin\b")
BOOL_OP = re.compile(rb"\band\b|\bor\b")


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each line (1-based) starts."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def mutants(module: str, source: bytes) -> list[dict]:
    """Every mutant of one module, each with the byte spans to replace."""
    starts, lines, out = _offsets(source), source.splitlines(), []

    def op_span(pattern, left, right):
        """Byte span of the operator between two operands."""
        return pattern.search(
            source, starts[left.end_lineno] + left.end_col_offset,
            starts[right.lineno] + right.col_offset).span()

    def add(node, index, old, new, spans):
        out.append({
            "module": module, "node": type(node).__name__,
            "line": node.lineno, "col": node.col_offset, "index": index,
            "from": TEXT[old], "to": TEXT[new],
            "source": lines[node.lineno - 1].decode().strip(),
            "spans": spans,
        })

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                span = op_span(COMPARE_OP, operands[i], operands[i + 1])
                for new in FLIPS[type(op)]:
                    add(node, i, type(op), new, [span])
        elif isinstance(node, ast.BoolOp):
            old = type(node.op)
            add(node, 0, old, ast.Or if old is ast.And else ast.And,
                [op_span(BOOL_OP, a, b)
                 for a, b in zip(node.values, node.values[1:])])
    return out


def apply(source: bytes, mutant: dict) -> bytes:
    """The module's text with the mutant's operator spans replaced."""
    out, last = [], 0
    for lo, hi in mutant["spans"]:
        out += [source[last:lo], mutant["to"].encode()]
        last = hi
    return b"".join(out + [source[last:]])


def _copy(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))


def _run(work: Path) -> str:
    """Tier-1 with -x in the copy: 'survived', 'killed' or 'timeout'."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--hypothesis-seed=0", "tests"]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def run_all(root: Path, todo: list[dict], jobs: int) -> list[dict]:
    """Each mutant's outcome, the mutants shared out over ``jobs`` copies."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        works = [Path(tmp) / f"w{j}" for j in range(jobs)]
        for work in works:
            _copy(root, work)
        if _run(works[0]) != "survived":
            raise SystemExit("tier-1 fails on the unmutated checkout")

        def worker(j):
            results = []
            for m in todo[j::jobs]:
                path = works[j] / "src" / "hrflow" / f"{m['module']}.py"
                original = path.read_bytes()
                path.write_bytes(apply(original, m))
                try:
                    results.append(m | {"outcome": _run(works[j])})
                finally:
                    path.write_bytes(original)
                print(f"{m['module']}:{m['line']} {m['from']} -> {m['to']}: "
                      f"{results[-1]['outcome']}", file=sys.stderr,
                      flush=True)
            return results

        with ThreadPoolExecutor(jobs) as pool:
            parts = list(pool.map(worker, range(jobs)))
    return [r for part in parts for r in part]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to mutate; default the one holding this "
                         "file")
    ap.add_argument("--module", action="append", choices=ENGINE + OTHERS,
                    help="repeatable; default all five engine modules")
    ap.add_argument("--jobs", type=int, default=1,
                    help="copies run side by side")
    args = ap.parse_args(argv)
    todo = []
    for module in args.module or ENGINE:
        path = args.root / "src" / "hrflow" / f"{module}.py"
        todo += mutants(module, path.read_bytes())
    results = run_all(args.root.resolve(), todo, max(1, args.jobs))
    survivors = [r for r in results if r["outcome"] == "survived"]
    print(f"{len(todo)} mutants, {len(survivors)} survived", file=sys.stderr)
    keys = ("module", "node", "line", "col", "index", "from", "to", "source")
    print(json.dumps([{k: r[k] for k in keys} for r in survivors], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
