"""Command-line front end: space ingestion, runs, sweeps and report emission.

Exit codes: 0 success, 2 validation or configuration failure, 3 undetermined
classification (a singular time beyond the horizon or not finite, a triple
Einstein root), 4 file input/output failure.  Raised errors are mapped to
them in ``main`` alone; the closed form decides them, and the stepper,
which only draws ``flow``'s trajectories, decides none.  All emitted files
are plot-ready CSV or JSON with deterministic formatting; nothing is
rendered.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
# soliton_limit and regime_of are not called here; the benchmark tracer
# (perfbench/tracing.py) wraps these names as the blow-up and
# classification layer boundaries
from .blowup import limit_at, soliton_limit  # noqa: F401
from .classify import (  # noqa: F401
    classify_slots,
    classify_trajectory,
    predicted_report,
    regime_of,
)
from .einstein import (
    critical_directions,
    einstein_roots,
    scalar_zero_directions,
)
from .errors import (
    HrflowError,
    NotCollapsed,
    SpaceModelError,
    Undetermined,
)
from .flow import (
    Direction,
    IntegrationOptions,
    MetricState,
    Termination,
    integrate,
    make_rhs,
)
from .spaces import (
    TwoSummandSpace,
    catalog,
    derive_coeffs,
    get_space,
    load_space,
    space_to_dict,
    validate,
)
from .yflow import YFlow

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDETERMINED = 3
EXIT_IO = 4

#: sweep starts classified per engine pass
SWEEP_CHUNK = 256


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _resolve_space(ref: str):
    """Catalog name or path to a JSON space definition."""
    if ref.endswith(".json") or os.sep in ref:
        return load_space(ref)
    return get_space(ref)


def _two_summand(ref: str):
    """The space named by ``ref`` and its derived (validated) coefficients;
    a space with other than two isotropy summands is invalid input."""
    space = _resolve_space(ref)
    if not isinstance(space, TwoSummandSpace):
        raise SpaceModelError(f"this command needs a two-summand space; "
                              f"{space.name} has l = {space.l}")
    return space, derive_coeffs(space)


def _numbers(text: str, sep: str, kind, flag: str):
    """The two numbers of a flag value ``a<sep>b``."""
    try:
        a, b = (kind(v) for v in text.split(sep))
    except ValueError:
        raise SpaceModelError(
            f"{flag} takes two numbers a{sep}b, got {text!r}") from None
    return a, b


def _range(text: str, flag: str) -> tuple[float, float]:
    """A ``lo,hi`` flag value with 0 < lo < hi < inf."""
    lo, hi = _numbers(text, ",", float, flag)
    if not 0.0 < lo < hi < math.inf:
        raise SpaceModelError(
            f"{flag} must be positive and increasing, got {text!r}")
    return lo, hi


def _options_from(args, direction: Direction) -> IntegrationOptions:
    # blowup has no --max-steps and checks its horizon alone
    try:
        return IntegrationOptions(
            direction=direction, max_time=args.horizon,
            max_steps=getattr(args, "max_steps", IntegrationOptions.max_steps))
    except ValueError as exc:
        raise SpaceModelError(f"--horizon or --max-steps: {exc}") from None


def _initial_state(args) -> MetricState:
    if args.y0 is not None:
        return MetricState(t=0.0, x1=args.y0, x2=1.0)
    if args.x1 is None or args.x2 is None:
        raise SpaceModelError("provide either --y0 or both --x1 and --x2")
    return MetricState(t=0.0, x1=args.x1, x2=args.x2)


def _tag(v: float) -> str:
    """A start value for a file name, in full where ``:g`` would round it."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def _slug(space, args) -> str:
    tag = space.name.replace("(", "").replace(")", "").replace("/", "-")
    if getattr(args, "y0", None) is not None:
        return f"{tag}_y0_{_tag(args.y0)}"
    if getattr(args, "x1", None) is not None:
        return f"{tag}_x1_{_tag(args.x1)}_x2_{_tag(args.x2)}"
    return tag


def _within_horizon(T_estimate: float, x2: float, horizon: float) -> None:
    """The horizon rule of ``flow`` and ``blowup``: the singular time from
    the closed form, in units of the starting x2, must not exceed
    ``--horizon``, else the run is undetermined."""
    T = T_estimate / x2
    if not T <= horizon:
        raise NotCollapsed(f"the singular time T = {T} (in units of x2) is "
                           f"not within the horizon {horizon}")


def _write_json(path: str, payload: dict) -> str:
    """Write the payload as indented JSON; return the text written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _make_dir(path: str) -> None:
    """Create the output directory unless it is already there; a file in
    its place still fails in ``makedirs``."""
    if not os.path.isdir(path):
        os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args) -> int:
    spaces = catalog()
    if args.json:
        print(json.dumps({n: space_to_dict(s) for n, s in spaces.items()},
                         indent=2, sort_keys=True))
    else:
        for name, s in sorted(spaces.items()):
            kind = s.kind.value if isinstance(s, TwoSummandSpace) else "Irreducible"
            print(f"{name:10s} l={s.l} d={list(s.d)} {kind}")
    return EXIT_OK


def cmd_validate(args) -> int:
    space = _resolve_space(args.space)
    report = validate(space)
    payload = {
        "space": space.name,
        "ok": report.ok,
        "violations": [
            {"rule": v.rule, "message": v.message, "magnitude": v.magnitude}
            for v in report.violations
        ],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_einstein(args) -> int:
    space, c = _two_summand(args.space)
    es = einstein_roots(c)
    sz = scalar_zero_directions(c)
    payload = {
        "space": space.name,
        "kind": space.kind.value,
        "case": es.case_label,
        "roots": [{"value": r, "multiplicity": m} for r, m in es.roots],
        "scalar_zero": {
            "positive_roots": list(sz.positive_roots),
            "negative_roots": list(sz.negative_roots),
            "has_zero_root": sz.has_zero_root,
        },
    }
    if c.planar.maximal:
        cd = critical_directions(c)
        payload["critical_directions"] = [cd.y_tilde_1, cd.y_tilde_2]
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_flow(args) -> int:
    space, coeffs = _two_summand(args.space)
    init = _initial_state(args)
    horizon = _options_from(args, Direction.FORWARD).max_time
    _make_dir(args.out)
    slug = _slug(space, args)
    # one closed-form engine serves both runs and the report
    engine = YFlow(coeffs, einstein_roots(coeffs))

    # the stepper only draws: its ending decides how far each CSV reaches
    runs = []
    directions = [Direction.FORWARD] + [Direction.BACKWARD] * args.backward
    for direction in directions:
        traj = integrate(coeffs, init, _options_from(args, direction),
                         engine=engine)
        path = os.path.join(args.out, f"{slug}_{direction.value.lower()}.csv")
        traj.to_csv(path)
        if traj.termination is Termination.STEP_LIMIT:
            print(f"note: {path} is truncated: the run ended with StepLimit "
                  "before the flow did", file=sys.stderr)
        runs.append(traj)

    # the report and the exit come from the engine alone
    rep = classify_trajectory(runs[0], runs[1] if args.backward else None)
    _within_horizon(rep.T_estimate, init.x2, horizon)
    _write_json(os.path.join(args.out, f"{slug}_report.json"), rep.to_dict())
    print(f"{slug}: {rep.forward_outcome.value} ({rep.singular_type.value}), "
          f"T ~ {rep.T_estimate}, ancient = {rep.ancient_exists}")
    return EXIT_OK


def cmd_portrait(args) -> int:
    space, coeffs = _two_summand(args.space)
    nx, ny = _numbers(args.grid.lower(), "x", int, "--grid")
    if min(nx, ny) < 2:
        raise SpaceModelError(f"--grid needs at least 2x2, got {args.grid}")
    x1_lo, x1_hi = _range(args.x1_range, "--x1-range")
    x2_lo, x2_hi = _range(args.x2_range, "--x2-range")
    es = einstein_roots(coeffs)
    slug = _slug(space, args)

    lines: dict = {
        "einstein_roots": [r for r, _ in es.roots],
        "scalar_zero_positive": list(
            scalar_zero_directions(coeffs).positive_roots),
    }
    # the region of a point is the band of y = x1/x2 between these edges
    if coeffs.planar.maximal:
        cd = critical_directions(coeffs)
        edges = [cd.y_tilde_1, cd.y_tilde_2]
        lines["critical_directions"] = edges
        labels = ["X1", "X2", "X3"]
    else:
        edges = [coeffs.planar.b0 / coeffs.planar.b1]
        lines["stationary_x2_ray"] = edges[0]
        labels = ["below_DB", "above_DB"]

    # looked up in flow at call time: perfbench/tracing.py patches it there
    from .flow import _scalar_curvature_arrays

    xs1 = np.linspace(x1_lo, x1_hi, nx)
    xs2 = np.linspace(x2_lo, x2_hi, ny)
    u1, u2 = (g.ravel() for g in np.meshgrid(xs1, xs2, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d1, d2 = make_rhs(coeffs)(u1, u2)
        R = _scalar_curvature_arrays(u1, u2, coeffs)
    if not all(np.isfinite(v).all() for v in (d1, d2, R)):
        raise SpaceModelError(
            "the field or the scalar curvature overflows on this grid; "
            "narrow --x1-range or --x2-range")
    # the tail ",<R_sign>,<region>\n" of a point is tails[3*region + sign + 1]
    tails = np.array([f",{s},{r}\n" for r in labels for s in "-0+"], object)
    tail = tails[3 * np.searchsorted(edges, u1 / u2, side="right")
                 + np.sign(R).astype(np.intp) + 1]
    _make_dir(args.out)
    path = os.path.join(args.out, f"{slug}_portrait.csv")
    # row i*ny + j is the point (xs1[i], xs2[j]); each grid value is
    # formatted once, "%.17g" being _fmt's format.  An x1 grid line is
    # the x1 string joined into the per-call x2 template, filled with the
    # line's dx1, dx2 and tails (taken out of numpy one line at a time),
    # and written as one string
    x2_parts = [",%.17g" % v + ",%.17g,%.17g%s" for v in xs2.tolist()]
    cells = [None] * (3 * ny)
    grid_lines = zip(["%.17g" % v for v in xs1.tolist()],
                     *(a.reshape(nx, ny) for a in (d1, d2, tail)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,dx1,dx2,R_sign,region\n")
        for x1, *line in grid_lines:
            cells[0::3], cells[1::3], cells[2::3] = (a.tolist() for a in line)
            fh.write((x1 + x1.join(x2_parts)) % tuple(cells))
    _write_json(os.path.join(args.out, f"{slug}_portrait_lines.json"), lines)
    print(f"portrait written to {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    space, coeffs = _two_summand(args.space)
    if args.count < 1:
        raise SpaceModelError("--count must be at least 1")
    lo, hi = _range(args.y0_range, "--y0-range")
    engine = YFlow(coeffs, einstein_roots(coeffs))
    if args.mode == "grid":
        y0s = np.geomspace(lo, hi, args.count) if args.count > 1 else np.array([lo])
    else:
        rng = np.random.default_rng(args.seed)
        y0s = np.exp(rng.uniform(np.log(lo), np.log(hi), args.count))
    _make_dir(args.out)
    path = os.path.join(args.out, f"{_slug(space, args)}_sweep.csv")
    header = ("index,y0,regime,outcome,T_estimate,ancient_exists,"
              "ancient_type,forward_y_limit,backward_y_limit,matches_prediction")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(y0s), SWEEP_CHUNK):
            chunk = y0s[start:start + SWEEP_CHUNK].tolist()
            for i, row in enumerate(_sweep_rows(engine, chunk), start):
                fh.write(f"{i}," + row + "\n")
    print(f"sweep written to {path}")
    return EXIT_OK


def _sweep_rows(engine: YFlow, y0s: list[float]) -> list[str]:
    """The nine fields after the index of each start, all but y0 and T
    formatted once per slot (``YFlow.locate``); a singular time that is
    not finite leaves the run undetermined."""
    y0, slot = engine.locate(y0s)
    rows, out = {}, []
    for v, k, rep in zip(y0s, slot.tolist(),
                         classify_slots(engine, y0, slot)):
        if k not in rows:
            rows[k] = _sweep_row(engine, rep)
        if rep.regime.family != "fixed" and not math.isfinite(rep.T_estimate):
            raise NotCollapsed(f"T = {rep.T_estimate} from y0 = {v}")
        out.append(rows[k].format(_fmt(v), _fmt(rep.T_estimate)))
    return out


def _sweep_row(engine: YFlow, rep) -> str:
    """The row of the report's slot, with {0} for y0 and {1} for T; a
    fixed direction leaves all but y0 and the regime empty.  A row
    matches the case table when every field of ``predicted_report``
    agrees, limits to 1e-2."""
    if rep.regime.family == "fixed":
        return "{0},fixed" + "," * 7
    pred = predicted_report(rep.regime, engine.es, engine.c)
    matches = (
        rep.forward_outcome is pred.outcome
        and _near(rep.forward_y_limit, pred.forward_y_limit)
        and rep.ancient_exists == pred.ancient_exists
        and rep.ancient_type == pred.ancient_type
        and _near(rep.backward_y_limit, pred.backward_y_limit)
    )
    return ",".join([
        "{0}", str(rep.regime), rep.forward_outcome.value, "{1}",
        str(rep.ancient_exists),
        rep.ancient_type.value if rep.ancient_type else "",
        _fmt(rep.forward_y_limit),
        _fmt(rep.backward_y_limit) if rep.ancient_exists else "",
        str(bool(matches)),
    ])


def _near(got: float | None, want: float | None) -> bool:
    """A limit against the case table's: both absent, or within 1e-2."""
    if got is None or want is None:
        return got is want
    return abs(got - want) <= 1e-2 * (1 + abs(want))


def cmd_blowup(args) -> int:
    """The blow-up limit and the singular time of the forward flow, both
    from the closed form along y; no trajectory is stepped.  T_estimate is
    x2(0) times the engine's T, as in ``flow``'s report."""
    space, coeffs = _two_summand(args.space)
    init = _initial_state(args)
    horizon = _options_from(args, Direction.FORWARD).max_time
    ends = YFlow(coeffs, einstein_roots(coeffs)).run([init.y])
    T_estimate = init.x2 * float(ends.T[0])
    _within_horizon(T_estimate, init.x2, horizon)
    limit = limit_at(coeffs, ends.y_forward[0], bool(ends.shrinks[0]))
    _make_dir(args.out)
    payload = limit.to_dict() | {"space": space.name,
                                 "T_estimate": T_estimate}
    text = _write_json(
        os.path.join(args.out, f"{_slug(space, args)}_blowup.json"), payload)
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _space_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True,
                   help="catalog name or path to a space JSON file")
    p.add_argument("--out", default=".", help="output directory")


def _horizon_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=float,
                   default=IntegrationOptions().max_time)


def _integration_flags(p: argparse.ArgumentParser) -> None:
    _horizon_flag(p)
    p.add_argument("--max-steps", type=int,
                   default=IntegrationOptions().max_steps)


def _initial_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--y0", type=float, default=None)
    p.add_argument("--x1", type=float, default=None)
    p.add_argument("--x2", type=float, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; its table never changes, so it is built
    once per process."""
    parser = argparse.ArgumentParser(
        prog="hrflow",
        description="Flow laboratory for invariant metrics on homogeneous "
                    "spaces with one or two isotropy summands",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        for add_flags in flag_groups:
            add_flags(p)
        return p

    p = command("catalog", cmd_catalog, "list the built-in space fixtures")
    p.add_argument("--json", action="store_true")

    command("validate", cmd_validate, "check a space table for consistency",
            _space_flags)
    command("einstein", cmd_einstein, "homothety directions and sign rays",
            _space_flags)

    p = command("flow", cmd_flow, "integrate one initial condition",
                _space_flags, _integration_flags, _initial_flags)
    p.add_argument("--backward", action="store_true",
                   help="also probe ancient existence")

    p = command("portrait", cmd_portrait, "sample the vector field on a grid",
                _space_flags)
    p.add_argument("--grid", default="50x50")
    p.add_argument("--x1-range", default="0.04,2.0")
    p.add_argument("--x2-range", default="0.04,2.0")

    p = command("sweep", cmd_sweep, "classify a family of initial conditions",
                _space_flags)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y0-range", default="0.1,10")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--mode", choices=("grid", "random"), default="grid")

    command("blowup", cmd_blowup, "rescaled limit near the singular time",
            _space_flags, _horizon_flag, _initial_flags)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that maps errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"input/output failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except Undetermined as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except SpaceModelError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except HrflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
