#!/usr/bin/env python3
"""hrflow benchmark: one workload, run in-process through ``hrflow.cli.main``.

    python3 perfbench/run.py --workload sweep --seed 1 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced blocks and reports the
per-layer metrics and the tracing overhead.  Every output is checked; the
last line of standard output is the result as JSON.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 7
#: first batches of a run whose values are checked against the references
REF_BATCHES = {"sweep": 8, "tables": 8, "portrait": 4}
#: seed of the fixed reference panel behind ref_rel_err_max
PANEL_SEED = 0
#: distinct batches a run draws from its seed, per second of --seconds.
#: The run always finishes one pass over them, which takes about two thirds
#: of --seconds on the host in README.md, then repeats them until --seconds
#: of call time have passed.  ``attempted`` and ``failed`` count that first
#: pass, so they depend on the seed alone.
POOL_PER_S = {"sweep": 6, "tables": 28, "portrait": 20}
#: a traced run alternates untraced and traced blocks of this much call
#: time, or a tenth of the run when that is shorter
BLOCK_S = 1.0
#: call time between two machine-speed samples
SAMPLE_EVERY_S = 0.25
#: duration of the speed kernel on the nominal machine; call times are
#: reported as they would read there (see README.md, "Machine speed")
NOMINAL_KERNEL_S = 0.010


def _import_paths() -> None:
    if not ((ROOT / "src" / "hrflow" / "cli.py").is_file()
            and (ROOT / "tests" / "randspaces.py").is_file()):
        sys.exit("perfbench: src/hrflow or tests/randspaces.py is missing; "
                 "run from the root of an hrflow checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]


def speed_sample() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with hrflow: RK4 steps of a planar field and float formatting.
    Its ratio to NOMINAL_KERNEL_S is the machine's momentary slowdown."""
    def f(a, b):
        y = a / b
        return -1.0 - 0.5 * y * y, -2.0 + y

    x1, x2, h = 1.0, 1.0, 1e-4
    cells = []
    t0 = time.perf_counter()
    for i in range(6000):
        k1 = f(x1, x2)
        k2 = f(x1 + h / 2 * k1[0], x2 + h / 2 * k1[1])
        k3 = f(x1 + h / 2 * k2[0], x2 + h / 2 * k2[1])
        k4 = f(x1 + h * k3[0], x2 + h * k3[1])
        x1 += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        x2 += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if i % 3 == 0:
            cells.append(format(x1, ".17g"))
    return time.perf_counter() - t0


@dataclass
class Counts:
    """Outcomes of the first pass over a run's distinct batches."""

    attempted: int = 0
    failed: int = 0
    classified: int = 0
    mismatched: int = 0

    def add(self, batch, verdict) -> None:
        self.attempted += batch.units
        self.failed += verdict.failed
        self.classified += verdict.classified
        self.mismatched += verdict.mismatched


@dataclass
class Tally:
    """Units and call times of one kind of block (untraced or traced),
    repeated batches included."""

    call_s: list = field(default_factory=list)  # wall time of each call
    call_k: list = field(default_factory=list)  # last speed sample before it
    busy_s: float = 0.0
    units: int = 0
    completed: int = 0
    bytes_out: int = 0

    def add(self, batch, outs, verdict, k: int) -> None:
        self.call_s.extend(o.seconds for o in outs)
        self.call_k.extend(k for _ in outs)
        self.busy_s += sum(o.seconds for o in outs)
        self.units += batch.units
        self.completed += batch.units - verdict.failed
        self.bytes_out += sum(len(o.stdout) + sum(map(len, o.files.values()))
                              for o in outs)

    def nominal_call_s(self, kernel_s: list) -> list:
        """Call times at nominal machine speed: each scaled by the mean of
        the speed samples taken just before and just after it."""
        return [s * 2 * NOMINAL_KERNEL_S / (kernel_s[k] + kernel_s[k + 1])
                for s, k in zip(self.call_s, self.call_k)]

    def units_per_s(self, kernel_s: list) -> float:
        return self.completed / sum(self.nominal_call_s(kernel_s))


def _drain(outdir: str) -> dict[str, str]:
    """Read and remove every file a call left in its output directory."""
    files = {}
    if os.path.isdir(outdir):
        for name in os.listdir(outdir):
            path = os.path.join(outdir, name)
            with open(path, encoding="utf-8") as fh:
                files[name] = fh.read()
            os.remove(path)
    return files


def run_batch(main, batch, outdir: str, errors: list) -> list:
    """Run a batch's calls; only the ``main`` call itself is timed."""
    from workloads import CallOutput

    outs = []
    for argv in batch.argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit):
                rc = None
                errors.append(traceback.format_exc())
            dt = time.perf_counter() - t0
        outs.append(CallOutput(rc, buf.getvalue(), _drain(outdir), dt))
    return outs


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


def setup_probe(workload: str, seed: int) -> None:
    """Import hrflow and finish the workload's first call; print seconds."""
    t0 = time.perf_counter()
    from hrflow import cli
    from workloads import WORKLOADS

    workdir = OUT / f"probe-{workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[workload](seed, str(workdir))
        run_batch(cli.main, wl.next_batch(), wl.outdir, [])
        print(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES fresh interpreters, each probe's time taken
    at nominal machine speed like the call times."""
    kernel_s = [speed_sample()]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
        kernel_s.append(speed_sample())
    return statistics.median(
        t * 2 * NOMINAL_KERNEL_S / (a + b)
        for t, a, b in zip(times, kernel_s, kernel_s[1:]))


# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hrflow").glob("*.py")):
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": src.hexdigest()}


def reference_errors(items) -> tuple[list[float], bool]:
    """Deviation of each item from its independent reference, and whether
    all are within tolerance."""
    from reference import FIELD_TOL, T_TOL, field_deviation, singular_time
    from workloads import fixture_coeffs

    errs, ok = [], True
    for kind, ref, *vals in items:
        c = fixture_coeffs(ref)
        if kind == "T":
            y0, T = vals
            T_ref = singular_time(c, y0)
            err = abs(T - T_ref) / abs(T_ref)
            ok &= err <= T_TOL
        else:
            err, sign_ok = field_deviation(c, *vals)
            ok &= err <= FIELD_TOL and sign_ok
        errs.append(err)
    return errs, ok


def _timed_loop(wl, seconds: float, tracer, errors: list):
    """Run the pool of distinct batches once, then repeat it until
    ``seconds`` of call time have passed, sampling the machine speed every
    SAMPLE_EVERY_S; with a tracer, every other block is traced.  A repeated
    batch must check out exactly as it did the first time.  Returns the
    untraced and traced tallies, the first-pass counts, the number of
    repeats that checked out differently, the speed samples and the
    reference items of the first REF_BATCHES batches."""
    from hrflow import cli

    plain, traced = Tally(), Tally()
    first = Counts()
    pool_size = max(1, round(POOL_PER_S[wl.name] * seconds))
    pool, outcomes = [], []
    changed = 0
    block_s = min(BLOCK_S, seconds / 10)
    kernel_s = [speed_sample()]
    refs = []
    n_batches = 0
    while ((busy := plain.busy_s + traced.busy_s) < seconds
           or n_batches < pool_size):
        if busy >= len(kernel_s) * SAMPLE_EVERY_S:
            kernel_s.append(speed_sample())
        if n_batches < pool_size:
            pool.append(wl.next_batch())
        batch = pool[n_batches % pool_size]
        if tracer is not None and int(busy / block_s) % 2 == 1:
            tally = traced
            tracer.install()
            try:
                outs = run_batch(
                    lambda argv: tracer.span("cli", cli.main, argv),
                    batch, wl.outdir, errors)
            finally:
                tracer.uninstall()
        else:
            tally = plain
            outs = run_batch(cli.main, batch, wl.outdir, errors)
        verdict = wl.check(batch, outs)
        tally.add(batch, outs, verdict, len(kernel_s) - 1)
        outcome = (verdict.failed, verdict.classified, verdict.mismatched)
        if n_batches < pool_size:
            first.add(batch, verdict)
            outcomes.append(outcome)
        else:
            changed += outcome != outcomes[n_batches % pool_size]
        if n_batches < REF_BATCHES[wl.name]:
            refs.extend(verdict.ref_items)
        n_batches += 1
    kernel_s.append(speed_sample())
    return plain, traced, first, changed, kernel_s, refs


def _panel_refs(workload: str, workdir: Path) -> list:
    """Reference items of the fixed panel: the first batches at PANEL_SEED."""
    from hrflow import cli
    from workloads import WORKLOADS

    panel = WORKLOADS[workload](PANEL_SEED, str(workdir))
    refs = []
    for _ in range(REF_BATCHES[workload]):
        batch = panel.next_batch()
        outs = run_batch(cli.main, batch, panel.outdir, [])
        refs.extend(panel.check(batch, outs).ref_items)
    return refs


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from hrflow import cli
    from tracing import Tracer
    from workloads import WORKLOADS

    setup_s = None if trace else measure_setup(workload, seed)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    errors: list = []
    try:
        wl = WORKLOADS[workload](seed, str(workdir))
        warm = wl.next_batch()
        wl.check(warm, run_batch(cli.main, warm, wl.outdir, errors))
        plain, traced, first, changed, kernel_s, seeded_refs = _timed_loop(
            wl, seconds, tracer, errors)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        panel_refs = _panel_refs(workload, workdir / "panel")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    panel_errs, panel_ok = reference_errors(panel_refs)
    _, seeded_ok = reference_errors(seeded_refs)
    if errors:
        print(f"{len(errors)} calls raised; the first:\n{errors[0]}",
              file=sys.stderr)
    if changed:
        print(f"{changed} repeated batches checked out differently from "
              f"their first run", file=sys.stderr)
    attempted, failed = first.attempted, first.failed
    info = {"calls": len(plain.call_s) + len(traced.call_s),
            "passes": (plain.units + traced.units) / attempted,
            "slowdown": statistics.fmean(kernel_s) / NOMINAL_KERNEL_S,
            "fail_frac": failed / attempted,
            "mismatch_frac": (first.mismatched / first.classified
                              if first.classified else 0.0),
            "reference_items": {"panel": len(panel_refs),
                                "seeded": len(seeded_refs)}}
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.jsonl")
        metrics = tracer.layer_metrics(traced.units, traced.bytes_out,
                                       1.0 / info["slowdown"])
        metrics["trace.overhead_frac"] = (
            1.0 - traced.units_per_s(kernel_s) / plain.units_per_s(kernel_s))
        info["traced_calls"] = len(traced.call_s)
    else:
        call_ms = [1e3 * s for s in plain.nominal_call_s(kernel_s)]
        info["wall_units_per_s"] = plain.completed / plain.busy_s
        info["wall_call_ms_p50"] = 1e3 * statistics.median(plain.call_s)
        metrics = {
            "setup_s": setup_s,
            "units_per_s": plain.units_per_s(kernel_s),
            "call_ms_p50": statistics.median(call_ms),
            "call_ms_p90": statistics.quantiles(call_ms, n=10,
                                                method="inclusive")[8],
            "ok_frac": 1.0 - failed / attempted,
            "match_frac": 1.0 - info["mismatch_frac"],
            "ref_rel_err_max": max(panel_errs) if panel_errs else float("nan"),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "correct": bool(panel_ok and seeded_ok and panel_errs
                        and not changed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="call time measured per run (default: run_seconds "
                         "in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full result, with its "
                                     "environment, to this JSON-lines file")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_paths()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
             for m in spec[group]}
    for name, value in res["metrics"].items():
        print(f"{name:24s} {value:.6g} {units.get(name, '')}")
    for name, value in res["info"].items():
        print(f"{name:24s} {value}")
    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  "info": res["info"]} | result
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
