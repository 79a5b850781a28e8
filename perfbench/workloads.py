"""The benchmark workloads: inputs drawn from the seed, the command lines
they run through ``hrflow.cli.main``, and the checks every output must pass.

A workload hands out batches.  A batch is the smallest group of CLI calls
whose outputs can be checked together: one ``sweep`` call (20 rows), one
random table (``validate``, ``einstein``, ``flow --backward``, ``blowup``),
or one ``portrait`` call (a 50x50 grid).  ``units`` counts what the batch
delivers: classified rows, processed tables or grid points.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from hrflow.classify import Outcome, predicted_report, regime_of
from hrflow.einstein import critical_directions, einstein_roots
from hrflow.errors import OnEinsteinRoot
from hrflow.spaces import (
    MaxCoeffs,
    derive_coeffs,
    dump_space,
    get_space,
)
from randspaces import random_maximal_space, random_nonmaximal_space

#: log-uniform initial directions wide enough to reach every regime of
#: every catalog fixture
Y0_RANGE = (0.05, 20.0)
SWEEP_FIXTURES = ("SU42", "FIX-A", "FIX-B", "FIX-C0",
                  "FIX-D", "FIX-E", "FIX-E2", "FIX-F")
SWEEP_ROWS = 20
PORTRAIT_FIXTURES = ("SU42", "FIX-A", "FIX-D", "FIX-F")
PORTRAIT_GRID = 50

SWEEP_HEADER = ("index,y0,regime,outcome,T_estimate,ancient_exists,"
                "ancient_type,forward_y_limit,backward_y_limit,"
                "matches_prediction")
TRAJECTORY_HEADER = "t,x1,x2,y,R,kappa,first_integral"
PORTRAIT_HEADER = "x1,x2,dx1,dx2,R_sign,region"
OUTCOMES = {o.value for o in Outcome}
REPORT_KEYS = {"regime", "forward_outcome", "singular_type", "forward_y_limit",
               "ancient_exists", "ancient_type", "backward_y_limit",
               "T_estimate"}

#: rows per batch whose values are checked against an independent reference
SWEEP_REF_ROWS = 2
PORTRAIT_REF_ROWS = 20


@dataclass
class CallOutput:
    """What one ``cli.main`` call left behind."""

    rc: int | None                  # None when the call raised
    stdout: str
    files: dict[str, str]           # file name -> content
    seconds: float


@dataclass
class Batch:
    argvs: list[list[str]]
    units: int
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of checking one batch."""

    failed: int = 0                 # units that raised, exited non-zero, or
                                    # left a row missing or malformed
    classified: int = 0             # completed classifications
    mismatched: int = 0             # ... that disagree with predicted_report
    ref_items: list = field(default_factory=list)


def _floats(cells) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _csv_rows(text: str, header: str) -> list[list[str]] | None:
    """Data rows of a CSV whose header matches, or None when it does not.
    Rows are returned as split; callers check each row's field count."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def _one(files: dict[str, str], suffix: str) -> str | None:
    hits = [v for k, v in files.items() if k.endswith(suffix)]
    return hits[0] if len(hits) == 1 else None


# ---------------------------------------------------------------------------


class SweepWorkload:
    """``hrflow sweep --mode random`` over the eight two-summand fixtures."""

    name = "sweep"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = os.path.join(workdir, "out")
        self.count = 0

    def next_batch(self) -> Batch:
        fixture = SWEEP_FIXTURES[self.count % len(SWEEP_FIXTURES)]
        self.count += 1
        sweep_seed = int(self.rng.integers(0, 2**31))
        argv = ["sweep", "--space", fixture, "--mode", "random",
                "--seed", str(sweep_seed), "--count", str(SWEEP_ROWS),
                "--y0-range", f"{Y0_RANGE[0]},{Y0_RANGE[1]}",
                "--out", self.outdir]
        return Batch([argv], SWEEP_ROWS, {"fixture": fixture})

    def check(self, batch: Batch, outs: list[CallOutput]) -> Verdict:
        (out,) = outs
        v = Verdict()
        text = _one(out.files, "_sweep.csv")
        rows = _csv_rows(text, SWEEP_HEADER) if text is not None else None
        good = 0
        n_fields = SWEEP_HEADER.count(",") + 1
        for idx, cells in enumerate((rows or [])[:batch.units]):
            if len(cells) != n_fields or cells[0] != str(idx):
                continue
            nums = _floats(cells[1:2] + ([cells[4]] if cells[4] else []))
            if (nums is None or not Y0_RANGE[0] <= nums[0] <= Y0_RANGE[1]
                    or cells[3] not in OUTCOMES
                    or cells[5] not in ("True", "False", "None")
                    or cells[9] not in ("True", "False")):
                continue
            good += 1
            v.classified += 1
            v.mismatched += cells[9] == "False"
            if idx < SWEEP_REF_ROWS and cells[4]:
                v.ref_items.append(
                    ("T", batch.meta["fixture"], nums[0], nums[1]))
        # rows an aborted call never wrote count as failed
        v.failed = batch.units - good
        return v


# ---------------------------------------------------------------------------


class TablesWorkload:
    """Random valid tables, alternately non-maximal and maximal, each run
    through ``validate``, ``einstein``, ``flow --backward`` and ``blowup``."""

    name = "tables"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = os.path.join(workdir, "out")
        self.indir = os.path.join(workdir, "tables")
        os.makedirs(self.indir, exist_ok=True)
        self.count = 0

    def next_batch(self) -> Batch:
        i = self.count
        self.count += 1
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        space = draw(self.rng, name=f"T{i}")
        lo, hi = Y0_RANGE
        y0 = float(np.exp(self.rng.uniform(np.log(lo), np.log(hi))))
        path = os.path.join(self.indir, f"table_{i}.json")
        dump_space(space, path)
        coeffs = derive_coeffs(space)
        es = einstein_roots(coeffs)
        crit = critical_directions(coeffs) if isinstance(coeffs, MaxCoeffs) \
            else None
        try:
            pred = predicted_report(regime_of(coeffs, es, crit, y0), es, coeffs)
        except OnEinsteinRoot:
            pred = None
        common = ["--space", path, "--out", self.outdir]
        argvs = [
            ["validate", *common],
            ["einstein", *common],
            ["flow", *common, "--backward", "--y0", repr(y0)],
            ["blowup", *common, "--y0", repr(y0)],
        ]
        return Batch(argvs, 1, {"coeffs": coeffs, "y0": y0, "pred": pred,
                                "kind": space.kind.value})

    def check(self, batch: Batch, outs: list[CallOutput]) -> Verdict:
        v = Verdict()
        checks = (self._validate_ok, self._einstein_ok, self._flow_ok,
                  self._blowup_ok)
        ok = True
        for out, check in zip(outs, checks):
            ok &= out.rc == 0 and check(batch, out, v)
        v.failed = 0 if ok else 1
        return v

    @staticmethod
    def _json(text: str | None) -> dict | None:
        try:
            data = json.loads(text) if text is not None else None
        except ValueError:
            return None
        return data if isinstance(data, dict) else None

    def _validate_ok(self, batch, out, v) -> bool:
        data = self._json(out.stdout)
        return data is not None and data.get("ok") is True

    def _einstein_ok(self, batch, out, v) -> bool:
        data = self._json(out.stdout)
        return (data is not None and data.get("kind") == batch.meta["kind"]
                and data.get("case") in ("a", "b", "c", "C0", "d", "e", "f")
                and isinstance(data.get("roots"), list))

    def _flow_ok(self, batch, out, v) -> bool:
        for suffix in ("_forward.csv", "_backward.csv"):
            text = _one(out.files, suffix)
            rows = _csv_rows(text, TRAJECTORY_HEADER) if text else None
            if not rows or len(rows) < 2:
                return False
            for cells in rows:
                # first_integral is empty where it does not exist
                if len(cells) != 7 or _floats(cells[:6]) is None:
                    return False
        rep = self._json(_one(out.files, "_report.json"))
        if rep is None or set(rep) != REPORT_KEYS:
            return False
        T = rep["T_estimate"]
        if not isinstance(T, float) or not math.isfinite(T) or T <= 0:
            return False
        v.classified += 1
        v.mismatched += not _matches(rep, batch.meta["pred"])
        v.ref_items.append(("T", batch.meta["coeffs"], batch.meta["y0"], T))
        return True

    def _blowup_ok(self, batch, out, v) -> bool:
        data = self._json(_one(out.files, "_blowup.json"))
        return (data is not None
                and data.get("kind") in ("EinsteinPoint", "RigidProduct"))


def _matches(rep: dict, pred) -> bool:
    """The case-table predicate of ``hrflow sweep``'s matches_prediction
    column, evaluated on a report JSON."""
    if pred is None:
        return False
    lim = rep["forward_y_limit"]
    return (rep["forward_outcome"] == pred.outcome.value
            and rep["ancient_exists"] == pred.ancient_exists
            and (pred.forward_y_limit is None
                 or (lim is not None
                     and abs(lim - pred.forward_y_limit)
                     <= 1e-2 * (1 + abs(pred.forward_y_limit)))))


# ---------------------------------------------------------------------------


class PortraitWorkload:
    """``hrflow portrait`` on its default grid with seeded coordinate ranges."""

    name = "portrait"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = os.path.join(workdir, "out")
        self.count = 0

    def next_batch(self) -> Batch:
        fixture = PORTRAIT_FIXTURES[self.count % len(PORTRAIT_FIXTURES)]
        self.count += 1
        lo1, lo2 = np.exp(self.rng.uniform(np.log(0.02), np.log(0.5), 2))
        w1, w2 = self.rng.uniform(1.0, 4.0, 2)
        ranges = ((float(lo1), float(lo1 + w1)), (float(lo2), float(lo2 + w2)))
        argv = ["portrait", "--space", fixture,
                "--x1-range", "{!r},{!r}".format(*ranges[0]),
                "--x2-range", "{!r},{!r}".format(*ranges[1]),
                "--out", self.outdir]
        return Batch([argv], PORTRAIT_GRID * PORTRAIT_GRID,
                     {"fixture": fixture, "ranges": ranges})

    def check(self, batch: Batch, outs: list[CallOutput]) -> Verdict:
        (out,) = outs
        v = Verdict()
        text = _one(out.files, "_portrait.csv")
        rows = _csv_rows(text, PORTRAIT_HEADER) if text is not None else None
        lines_json = _one(out.files, "_portrait_lines.json")
        if rows is None or lines_json is None:
            v.failed = batch.units
            return v
        (a1, b1), (a2, b2) = batch.meta["ranges"]
        slack = 1e-12
        stride = max(1, batch.units // PORTRAIT_REF_ROWS)
        good = 0
        for idx, cells in enumerate(rows[:batch.units]):
            if len(cells) != 6 or cells[4] not in ("+", "-", "0") \
                    or not cells[5]:
                continue
            nums = _floats(cells[:4])
            if nums is None or not (a1 - slack <= nums[0] <= b1 + slack
                                    and a2 - slack <= nums[1] <= b2 + slack):
                continue
            good += 1
            if idx % stride == 0:
                v.ref_items.append(("P", batch.meta["fixture"], *nums,
                                    cells[4]))
        v.failed = batch.units - good
        return v


WORKLOADS = {w.name: w for w in (SweepWorkload, TablesWorkload,
                                 PortraitWorkload)}


def fixture_coeffs(ref):
    """Coefficient record of a catalog name, or the record itself."""
    if isinstance(ref, str):
        return derive_coeffs(get_space(ref))
    return ref
