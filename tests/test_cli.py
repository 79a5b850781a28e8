import ast
import bisect
import hashlib
import json
import math
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hrflow as h
from hrflow import cli, einstein, stepper
from hrflow.cli import main
from hrflow.flow import make_rhs
from hrflow.yflow import YFlow

from oracles import per_start_sweep_rows
from randspaces import (
    random_maximal_space,
    random_nonmaximal_space,
    random_tables,
)
from test_golden import Y0 as GOLDEN_Y0


def run_cli(*argv):
    return main(list(argv))


def test_catalog_lists_fixtures(capsys):
    assert run_cli("catalog") == 0
    out = capsys.readouterr().out
    assert "SU42" in out and "FIX-D" in out


def test_validate_ok(capsys):
    assert run_cli("validate", "--space", "SU42") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["violations"] == []


def test_validate_bad_space(tmp_path, capsys):
    space = h.space_to_dict(h.get_space("FIX-A"))
    space["c"] = [0.5, 0.9]  # breaks the balance relation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(space))
    assert run_cli("validate", "--space", str(path)) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and payload["violations"]


def _fix_a_with(**changes):
    space = h.space_to_dict(h.get_space("FIX-A"))
    for key, value in changes.items():
        if key in ("i", "j", "k", "value"):
            space["triple"][0][key] = value
        else:
            space[key] = value
    return space


@pytest.mark.parametrize("space", [
    pytest.param(_fix_a_with(i=3), id="index-past-l"),
    # an index 0 wrapped round to summand l and the table validated
    pytest.param(_fix_a_with(k=0), id="index-zero"),
    pytest.param(_fix_a_with(value="1/0"), id="zero-denominator"),
    # int() truncated the dimension to 2
    pytest.param(_fix_a_with(d=[2.5, 4]), id="fractional-d"),
    pytest.param(_fix_a_with(d=[float("inf"), 4]), id="infinite-d"),
    # the last entry for one unordered triple won
    pytest.param(_fix_a_with(c=None, triple=[
        {"i": 1, "j": 2, "k": 2, "value": 4},
        {"i": 2, "j": 1, "k": 2, "value": 5}]), id="repeated-triple"),
])
def test_malformed_space_json_is_invalid_input(tmp_path, capsys, space):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(space))
    assert run_cli("validate", "--space", str(path)) == 2
    assert "malformed space definition" in capsys.readouterr().err


def test_einstein_su42(capsys):
    assert run_cli("einstein", "--space", "SU42") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "c" and payload["roots"] == []


def test_flow_su42_backward(tmp_path, capsys):
    code = run_cli("flow", "--space", "SU42", "--x1", "1", "--x2", "1",
                   "--backward", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "SU42_x1_1_x2_1_report.json").read_text())
    assert report["forward_outcome"] == "FiberCollapse"
    assert report["ancient_exists"] is False
    fwd_csv = (tmp_path / "SU42_x1_1_x2_1_forward.csv").read_text().splitlines()
    assert fwd_csv[0] == "t,x1,x2,y,R,kappa,first_integral"
    assert (tmp_path / "SU42_x1_1_x2_1_backward.csv").exists()


def test_flow_fixed_direction(tmp_path, capsys):
    code = run_cli("flow", "--space", "FIX-A", "--x1", "2", "--x2", "2",
                   "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "FIX-A_x1_2_x2_2_report.json").read_text())
    assert report["T_estimate"] == pytest.approx(1.0, abs=1e-9)
    assert report["ancient_exists"] is None


def test_flow_missing_space_file(tmp_path):
    assert run_cli("flow", "--space", str(tmp_path / "missing.json"),
                   "--y0", "1") == 4


def test_flow_rejects_bad_initial_data(tmp_path):
    assert run_cli("flow", "--space", "SU42", "--y0", "-1",
                   "--out", str(tmp_path)) == 2
    assert run_cli("flow", "--space", "SU42", "--out", str(tmp_path)) == 2


def test_portrait_su42(tmp_path):
    code = run_cli("portrait", "--space", "SU42", "--grid", "12x12",
                   "--x1-range", "0.1,2", "--x2-range", "0.1,2",
                   "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "SU42_portrait.csv").read_text().splitlines()
    assert rows[0] == "x1,x2,dx1,dx2,R_sign,region"
    ybar = 6.5399767260707575
    for row in rows[1:]:
        x1, x2, dx1, dx2, sign, region = row.split(",")
        if float(x1) / float(x2) < ybar:
            assert sign == "+"
    lines = json.loads((tmp_path / "SU42_portrait_lines.json").read_text())
    assert lines["einstein_roots"] == []
    assert lines["scalar_zero_positive"][0] == pytest.approx(ybar)
    assert "stationary_x2_ray" in lines


def test_portrait_fix_d_regions(tmp_path):
    code = run_cli("portrait", "--space", "FIX-D", "--grid", "9x9",
                   "--x1-range", "0.2,2", "--x2-range", "0.2,2",
                   "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "FIX-D_portrait.csv").read_text().splitlines()[1:]
    seen_x2 = False
    for row in rows:
        x1, x2, dx1, dx2, sign, region = row.split(",")
        if region == "X2":
            seen_x2 = True
            assert float(dx1) < 0 and float(dx2) < 0
    assert seen_x2
    lines = json.loads((tmp_path / "FIX-D_portrait_lines.json").read_text())
    assert lines["critical_directions"] == pytest.approx(
        [0.14269112574914958, 4.4071779844547265], abs=1e-9)


#: non-square grids with unequal ranges, so a swapped nx/ny or an "xy"
#: meshgrid changes the bytes
PORTRAIT_GRIDS = {
    "7x5": ("--grid", "7x5", "--x1-range", "0.3,1.7", "--x2-range", "0.05,3"),
    "2x9": ("--grid", "2x9", "--x1-range", "0.01,40",
            "--x2-range", "0.2,0.25"),
}

PORTRAIT_DIGESTS = {
    ("FIX-A", "7x5"):
        "536ec60a5059250ca2f3e2ba092520621a67e7409fdaad259ed367c0e2fece0f",
    ("FIX-A", "2x9"):
        "0553510f2543b4bda72926260e8d98c697593357fb564a0629955d4382a0cf26",
    ("FIX-D", "7x5"):
        "b8752d7a898c05c79f8c0c29ac0d008b6ca0844bb36d6a1dfbd272548c2d63dd",
    ("FIX-D", "2x9"):
        "14bb0ff0642c0d55ce28f36789faa9f9002d174fa0edb4b253a2e2ae86a80c50",
}


@pytest.mark.parametrize("name,grid", sorted(PORTRAIT_DIGESTS))
def test_portrait_non_square_grid_bytes(tmp_path, name, grid):
    assert run_cli("portrait", "--space", name, *PORTRAIT_GRIDS[grid],
                   "--out", str(tmp_path)) == 0
    digest = hashlib.sha256()
    for suffix in ("_portrait.csv", "_portrait_lines.json"):
        digest.update((tmp_path / f"{name}{suffix}").read_bytes())
    assert digest.hexdigest() == PORTRAIT_DIGESTS[name, grid]


def test_portrait_refuses_an_overflowing_grid(tmp_path, capsys):
    # y = x1/x2 reaches 1e608 here, where the field is not finite
    out = tmp_path / "out"
    assert run_cli("portrait", "--space", "FIX-D", "--grid", "3x2",
                   "--x1-range", "1e300,1e308", "--x2-range", "1e-300,1e-290",
                   "--out", str(out)) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def _expected_portrait_rows(c, xs1: list, xs2: list) -> list[str]:
    """The portrait CSV built cell by cell in plain Python: row i*ny + j is
    the point (xs1[i], xs2[j]), its field, the sign of R at it and the band
    of x1/x2 between the region edges."""
    if c.planar.maximal:
        cd = h.critical_directions(c)
        edges, labels = [cd.y_tilde_1, cd.y_tilde_2], ["X1", "X2", "X3"]
    else:
        edges, labels = [c.planar.b0 / c.planar.b1], ["below_DB", "above_DB"]
    field = make_rhs(c)
    rows = []
    for x1 in xs1:
        for x2 in xs2:
            R = h.scalar_curvature(h.MetricState(0.0, x1, x2), c)
            cells = [format(v, ".17g") for v in (x1, x2, *field(x1, x2))]
            cells.append("0" if R == 0.0 else "+" if R > 0 else "-")
            cells.append(labels[bisect.bisect_right(edges, x1 / x2)])
            rows.append(",".join(cells))
    return rows


def test_portrait_rows_cell_by_cell(tmp_path):
    # seeded grids over every fixture, with ranges drawn as the benchmark
    # draws them; each row must equal the plain-Python oracle byte for byte
    rng = np.random.default_rng(18)
    for k in range(120):
        name = SWEEP_FIXTURES[k % len(SWEEP_FIXTURES)]
        nx, ny = (int(n) for n in rng.integers(2, 13, 2))
        lo = np.exp(rng.uniform(np.log(0.02), np.log(0.5), 2))
        lo, hi = lo.tolist(), (lo + rng.uniform(1.0, 4.0, 2)).tolist()
        out = tmp_path / str(k)
        assert run_cli("portrait", "--space", name, "--grid", f"{nx}x{ny}",
                       "--x1-range", f"{lo[0]!r},{hi[0]!r}",
                       "--x2-range", f"{lo[1]!r},{hi[1]!r}",
                       "--out", str(out)) == 0
        header, *rows = (out / f"{name}_portrait.csv").read_text().split("\n")
        assert header == "x1,x2,dx1,dx2,R_sign,region"
        assert rows.pop() == "" and len(rows) == nx * ny
        c = h.derive_coeffs(h.get_space(name))
        assert rows == _expected_portrait_rows(
            c, np.linspace(lo[0], hi[0], nx).tolist(),
            np.linspace(lo[1], hi[1], ny).tolist()), (name, nx, ny)


def test_portrait_bad_grid(tmp_path):
    assert run_cli("portrait", "--space", "SU42", "--grid", "1x1",
                   "--out", str(tmp_path)) == 2
    assert run_cli("portrait", "--space", "SU42", "--x1-range=-1,2",
                   "--out", str(tmp_path)) == 2
    assert run_cli("portrait", "--space", "SU42", "--x2-range", "2,0.1",
                   "--out", str(tmp_path)) == 2


SWEEP_FIXTURES = ("SU42", "FIX-A", "FIX-B", "FIX-C0", "FIX-D", "FIX-E",
                  "FIX-E2", "FIX-F")


def test_sweep_matches_predictions(tmp_path):
    mismatched = []
    for name in SWEEP_FIXTURES:
        code = run_cli("sweep", "--space", name, "--mode", "random",
                       "--seed", "5", "--count", "60",
                       "--y0-range", "0.05,20", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / f"{name}_sweep.csv").read_text().splitlines()
        assert rows[0].startswith("index,y0,regime,outcome,")
        assert len(rows) == 61
        mismatched += [(name, row) for row in rows[1:]
                       if row.split(",")[-1] != "True"]
    assert not mismatched



def _sweep_starts(mode: str, lo: float, hi: float, count: int,
                  seed: int) -> list[float]:
    """The starts of a sweep, drawn as cmd_sweep draws them."""
    if mode == "grid":
        return np.geomspace(lo, hi, count).tolist() if count > 1 else [lo]
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), count)).tolist()


def test_sweep_rows_start_by_start(tmp_path):
    # every row of grid and random sweeps equals the one the oracle builds
    # start by start, byte for byte; the grids from the lowest to the top
    # Einstein direction give fixed rows, and one sweep spans chunks
    fixed = 0
    for k, name in enumerate(SWEEP_FIXTURES):
        c = h.derive_coeffs(h.get_space(name))
        engine = YFlow(c, h.einstein_roots(c))
        roots = engine.es.values
        runs = [("random", 0.05, 20.0, 40, k), ("grid", 0.05, 20.0, 31, 0),
                ("grid", 0.3, 0.3, 1, 0)]
        if roots:
            runs += [("grid", roots[0], 2.0 * roots[-1], 9, 0),
                     ("grid", 0.5 * roots[0], roots[-1], 7, 0)]
        if k == 0:
            runs.append(("random", 0.01, 100.0, cli.SWEEP_CHUNK + 40, 3))
        for mode, lo, hi, count, seed in runs:
            out = tmp_path / f"{name}-{mode}-{count}-{lo!r}"
            y0_range = f"{lo!r},{hi!r}" if lo < hi else f"{lo!r},{2 * lo!r}"
            assert run_cli("sweep", "--space", name, "--mode", mode,
                           "--count", str(count), "--seed", str(seed),
                           "--y0-range", y0_range, "--out", str(out)) == 0
            header, *rows = (out / f"{name}_sweep.csv").read_text().split(
                "\n")
            assert rows.pop() == ""
            want = per_start_sweep_rows(
                engine, _sweep_starts(mode, lo, hi, count, seed),
                cli.SWEEP_CHUNK)
            assert rows == want, (name, mode, lo, hi, count)
            fixed += sum(",fixed," in row for row in rows)
    assert fixed >= 20


@pytest.mark.parametrize("y0_range", ["abc", "1", "1,2,3", "2,1", "0.1,inf"])
def test_sweep_malformed_range_is_invalid_input(tmp_path, y0_range):
    assert run_cli("sweep", "--space", "FIX-A", "--y0-range", y0_range,
                   "--out", str(tmp_path)) == 2
    assert not list(tmp_path.iterdir())


def test_sweep_deterministic(tmp_path):
    args = ("sweep", "--space", "SU42", "--y0-range", "0.5,2", "--count", "4",
            "--mode", "random", "--seed", "42")
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/SU42_sweep.csv").read_bytes() == \
        (tmp_path / "b/SU42_sweep.csv").read_bytes()


def test_sweep_single_row_matches_flow(tmp_path):
    code = run_cli("sweep", "--space", "FIX-A", "--y0-range", "0.75,2",
                   "--count", "1", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "FIX-A_sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert float(cells[1]) == 0.75
    assert cells[2] == "a2" and cells[3] == "ShrinkToPoint"


def test_sweep_fixed_direction_rows_are_full(tmp_path):
    # both grid points of FIX-A are Einstein directions
    code = run_cli("sweep", "--space", "FIX-A", "--y0-range", "0.5,1",
                   "--count", "2", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "FIX-A_sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    n_fields = len(rows[0].split(","))
    for row in rows[1:]:
        assert row.split(",")[2] == "fixed"
        assert len(row.split(",")) == n_fields


def test_flow_undetermined_exit_code(tmp_path, capsys):
    # a budget that lets the forward run finish but starves the backward
    # run cuts the backward CSV short, and one line on stderr names it;
    # the exit and the report stay those of the default budget
    argv = ("flow", "--space", "FIX-A", "--y0", "0.75", "--backward",
            "--horizon", "1e9")
    starved = _payload(tmp_path, *argv, "--max-steps", "250")
    (note,) = capsys.readouterr().err.splitlines()
    assert note.split()[:2] == [
        "note:", str(tmp_path / "0" / "FIX-A_y0_0.75_backward.csv")]
    assert starved == _payload(tmp_path, *argv)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    # forward run stopped by the horizon before it collapsed
    ("flow", "--space", "FIX-A", "--y0", "0.7", "--horizon", "0.01"),
    # blowup's flow from the same start collapses after the horizon too
    ("blowup", "--space", "FIX-A", "--y0", "0.7", "--horizon", "0.01"),
    # the first step guess is below the stepper's stagnation floor; the
    # flow collapses at T = 1.19e6, after the default horizon
    ("flow", "--space", "FIX-A", "--y0", "1e13"),
])
def test_undetermined_runs_exit_3(tmp_path, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 3


def _json_out(tmp_path, *argv) -> tuple[int, bytes | None]:
    """Exit code and the report or blow-up JSON bytes (None when none was
    written) of one command run in a fresh output directory."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    code = run_cli(*argv, "--out", str(out))
    found = [p.read_bytes() for p in out.glob("*.json")
             if p.name.endswith(("_report.json", "_blowup.json"))]
    assert len(found) <= 1
    return code, found[0] if found else None


def _payload(tmp_path, *argv) -> dict:
    """Exit code 0 and the report or blow-up JSON of one command run in a
    fresh output directory."""
    code, payload = _json_out(tmp_path, *argv)
    assert code == 0 and payload is not None
    return json.loads(payload)


@pytest.mark.parametrize("command", [("flow", "--backward"), ("blowup",)])
@pytest.mark.parametrize("start,lam", [
    (("--x1", "7000", "--x2", "10000"), 1e4),
    (("--x1", "7e-10", "--x2", "1e-9"), 1e-9),
])
def test_runs_are_scale_free(tmp_path, command, start, lam):
    # x -> lam*x takes t -> lam*t; the thresholds are in units of x2(0)
    base = _payload(tmp_path, *command, "--space", "FIX-A", "--y0", "0.7")
    got = _payload(tmp_path, *command, "--space", "FIX-A", *start)
    assert got.pop("T_estimate") / lam == pytest.approx(
        base.pop("T_estimate"), rel=1e-12)
    assert got == base


def test_backward_runaway_exits_0(tmp_path, t285):
    # the backward flow of this case-f table reaches infinity in finite time
    path = tmp_path / "t285.json"
    h.dump_space(t285, str(path))
    report = _payload(tmp_path, "flow", "--space", str(path), "--backward",
                      "--y0", "0.23869060412924192")
    assert report["ancient_exists"] is False


def test_triple_einstein_root_is_undetermined(tmp_path):
    # H = -(y - 1)^3/y: the engine has no partial fractions for a zero of
    # order three, which leaves the valid table undetermined, not invalid
    third = Fraction(2, 3)
    space = h.make_space("TRIPLE", d=(1, 1), b=(Fraction(11, 3),) * 2,
                         triple_entries={(1, 1, 2): third, (1, 2, 2): third})
    path = str(tmp_path / "triple.json")
    h.dump_space(space, path)
    common = ("--space", path, "--out", str(tmp_path))
    assert run_cli("einstein", *common) == 0
    assert h.einstein_roots(h.derive_coeffs(space)).roots == ((1.0, 3),)
    for command in (("sweep",), ("flow", "--y0", "0.5", "--backward"),
                    ("blowup", "--y0", "0.5")):
        assert run_cli(*command, *common) == 3


def test_sweep_near_a_tiny_einstein_root(tmp_path):
    # lower Einstein root 5e-13: the starts lie far above it relative to
    # its size, in regime a2, not on it
    space = h.make_space("TINY", d=(1, 2), b=(1 + Fraction(1, 10**12), 2),
                         triple_entries={(1, 2, 2): 1})
    path = str(tmp_path / "tiny.json")
    h.dump_space(space, path)
    assert run_cli("sweep", "--space", path, "--y0-range", "1e-10,5e-10",
                   "--count", "3", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "TINY_sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["a2"] * 3
    assert all(r.endswith(",True") for r in rows)


def test_sweep_sets_up_one_engine(monkeypatch, tmp_path):
    built = []

    def count(*args):
        built.append(args)
        return YFlow(*args)

    monkeypatch.setattr(cli, "YFlow", count)
    assert run_cli("sweep", "--space", "FIX-D", "--count",
                   str(3 * cli.SWEEP_CHUNK), "--out", str(tmp_path)) == 0
    assert len(built) == 1



@pytest.mark.parametrize("argv,engines", [
    (("einstein", "--space", "FIX-D"), 0),
    (("einstein", "--space", "FIX-A"), 0),
    (("portrait", "--space", "FIX-D", "--grid", "3x3"), 0),
    (("portrait", "--space", "FIX-B", "--grid", "3x3"), 0),
    (("flow", "--space", "FIX-D", "--y0", "0.75", "--backward"), 1),
    (("flow", "--space", "FIX-A", "--y0", "0.75"), 1),
    (("sweep", "--space", "FIX-D", "--count", "5"), 1),
    (("blowup", "--space", "FIX-F", "--y0", "0.75"), 1),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_each_command_isolates_the_roots_once(monkeypatch, tmp_path, argv,
                                              engines):
    # one einstein_roots per call, wherever it is looked up, and at most
    # one engine
    calls = []
    real_roots, real_init = einstein.einstein_roots, YFlow.__init__

    def roots(*args):
        calls.append("roots")
        return real_roots(*args)

    def init(self, *args):
        calls.append("engine")
        real_init(self, *args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] == "hrflow" and \
                getattr(module, "einstein_roots", None) is real_roots:
            monkeypatch.setattr(module, "einstein_roots", roots)
    monkeypatch.setattr(YFlow, "__init__", init)
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert (calls.count("roots"), calls.count("engine")) == (1, engines)

def test_blowup_limit_near_repelling_root(tmp_path, capsys):
    # regime d3: y leaves the repelling root 1 and approaches 2 only like
    # (T - t)^0.37, yet the limit is exactly q(2)
    code = run_cli("blowup", "--space", "FIX-D", "--y0", "1.1",
                   "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "EinsteinPoint"
    assert payload["ratio"] == pytest.approx(2.0, rel=1e-12)
    assert payload["pair"] == pytest.approx([7.5, 3.75], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("einstein", "--space", "FIX-A", "--horizon", "5"),
    ("validate", "--space", "FIX-A", "--seed", "3"),
    ("flow", "--space", "FIX-A", "--y0", "1", "--format", "csv"),
    ("portrait", "--space", "FIX-A", "--max-steps", "10"),
    ("sweep", "--space", "FIX-A", "--format", "csv"),
    ("sweep", "--space", "FIX-A", "--horizon", "5"),
    ("blowup", "--space", "FIX-A", "--y0", "1", "--seed", "3"),
    # tolerances are library options, not flags
    ("flow", "--space", "FIX-A", "--y0", "1", "--rel-tol", "1e-9"),
    ("blowup", "--space", "FIX-A", "--y0", "1", "--collapse-eps", "1e-6"),
    # prefixes of flags the subcommand does take
    ("sweep", "--space", "FIX-A", "--y0", "0.5,2", "--count", "2"),
    ("portrait", "--space", "FIX-A", "--x1", "0.1,2"),
    # blowup steps no trajectory, so it has no step budget
    ("blowup", "--space", "FIX-A", "--y0", "1", "--max-steps", "10"),
    # --y0 is the start (y0, 1); --x1 and --x2 give any scale
    ("flow", "--space", "FIX-A", "--y0", "1", "--scale", "2"),
    ("blowup", "--space", "FIX-A", "--y0", "1", "--scale", "2"),
])
def test_unread_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    sweep = ("sweep", "--space", "FIX-A", "--count", "3")
    assert run_cli(*sweep, "--out", str(tmp_path / "a")) == 0
    assert run_cli("flow", "--space", "FIX-A", "--y0", "0.75",
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "FIX-A_y0_0.75_report.json").read_text())
    assert report["forward_outcome"] == "ShrinkToPoint"
    with pytest.raises(SystemExit) as exc:
        run_cli(*sweep, "--horizon", "5", "--out", str(tmp_path / "b"))
    assert exc.value.code == 2
    assert run_cli(*sweep, "--out", str(tmp_path / "c")) == 0
    first = (tmp_path / "a" / "FIX-A_sweep.csv").read_text()
    assert first.count("\n") == 4
    assert (tmp_path / "c" / "FIX-A_sweep.csv").read_text() == first


def _blowup_and_report_T(tmp_path, space: str, y0: str) -> tuple:
    blow = _payload(tmp_path, "blowup", "--space", space, "--y0", y0)
    rep = _payload(tmp_path, "flow", "--space", space, "--y0", y0,
                   "--backward")
    return blow["T_estimate"], rep["T_estimate"]


def test_blowup_T_is_the_flow_report_T(tmp_path):
    # both come from the closed form along y, float for float
    for name, y0 in GOLDEN_Y0.items():
        T, want = _blowup_and_report_T(tmp_path, name, y0)
        assert T == want, name
    rng = np.random.default_rng(9)
    for i in range(50):
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        path = tmp_path / f"table_{i}.json"
        h.dump_space(draw(rng, f"R{i}"), str(path))
        y0 = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        T, want = _blowup_and_report_T(tmp_path, str(path), repr(y0))
        assert T == want, (i, y0)


def test_sweep_row_is_the_flow_report(tmp_path):
    # a one-start grid sweep and flow --backward from that start share the
    # closed form: same y0, T to the bit, outcome and ancient_exists
    rng = np.random.default_rng(9)
    starts = list(GOLDEN_Y0.items())
    for i in range(50):
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        path = tmp_path / f"table_{i}.json"
        h.dump_space(draw(rng, f"R{i}"), str(path))
        y0 = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        starts.append((str(path), repr(y0)))
    for k, (space, y0) in enumerate(starts):
        out = tmp_path / f"sweep_{k}"
        assert run_cli("sweep", "--space", space, "--mode", "grid",
                       "--count", "1", "--y0-range", f"{y0},{2 * float(y0)!r}",
                       "--out", str(out)) == 0
        (csv,) = out.glob("*_sweep.csv")
        _, row = csv.read_text().splitlines()
        cells = row.split(",")
        rep = _payload(tmp_path, "flow", "--space", space, "--y0", y0,
                       "--backward")
        assert float(cells[1]) == float(y0), (space, y0)
        assert cells[3] == rep["forward_outcome"], (space, y0)
        assert float(cells[4]) == rep["T_estimate"], (space, y0)
        assert cells[5] == str(rep["ancient_exists"]), (space, y0)


def test_blowup_steps_no_trajectory(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("blowup called the stepper")

    monkeypatch.setattr(stepper, "run_adaptive", refuse)
    for name, y0 in GOLDEN_Y0.items():
        assert run_cli("blowup", "--space", name, "--y0", y0,
                       "--out", str(tmp_path)) == 0, name


def _horizon_against_the_singular_time(tmp_path, command):
    T, _ = _blowup_and_report_T(tmp_path, "FIX-A", "0.7")
    for horizon, code in ((math.nextafter(T, 0.0), 3), (T, 0),
                          (math.nextafter(T, math.inf), 0)):
        assert run_cli(command, "--space", "FIX-A", "--y0", "0.7",
                       "--horizon", repr(horizon),
                       "--out", str(tmp_path)) == code, horizon


def test_blowup_horizon_against_the_singular_time(tmp_path):
    _horizon_against_the_singular_time(tmp_path, "blowup")


def test_flow_horizon_against_the_singular_time(tmp_path):
    # the stepper's collapse event comes before T, so flow must test the
    # engine's T against the horizon, as blowup does
    _horizon_against_the_singular_time(tmp_path, "flow")


@pytest.mark.parametrize("argv,code", [
    # at or below the old collapse threshold of the forward run
    (("--y0", "1e-9"), 0),
    (("--y0", "1e-300"), 0),
    # ratios that are no positive finite number
    (("--x1", "1e-300", "--x2", "1e300"), 2),
    (("--x1", "inf", "--x2", "1"), 2),
    # a singular time far beyond the horizon
    (("--y0", "1e13"), 3),
])
def test_blowup_extreme_starts(tmp_path, argv, code):
    assert run_cli("blowup", "--space", "FIX-A", *argv,
                   "--out", str(tmp_path)) == code


def test_flow_and_blowup_part_at_the_collapse_threshold(tmp_path):
    # they do not part there: flow draws the start row alone, and both
    # commands read T from the closed form
    codes = [run_cli(command, "--space", "FIX-A", "--y0", "1e-9",
                     "--out", str(tmp_path / command))
             for command in ("flow", "blowup")]
    assert codes == [0, 0]


@pytest.mark.parametrize("space", ["FIX-A", "FIX-D"])
@pytest.mark.parametrize("y0", ["1e-9", "1e-300"])
def test_flow_draws_a_collapsed_start_as_its_row(tmp_path, space, y0):
    # at or below the collapse threshold the flow has collapsed already:
    # each CSV is the start row, and T is blowup's, float for float
    rep = _payload(tmp_path, "flow", "--space", space, "--y0", y0,
                   "--backward")
    blow = _payload(tmp_path, "blowup", "--space", space, "--y0", y0)
    assert rep["T_estimate"] == blow["T_estimate"]
    csvs = sorted((tmp_path / "0").glob("*.csv"))
    assert [p.name.split("_")[-1] for p in csvs] == ["backward.csv",
                                                     "forward.csv"]
    for csv in csvs:
        _, row = csv.read_text().splitlines()
        assert [float(v) for v in row.split(",")[:4]] == \
            [0.0, float(y0), 1.0, float(y0)]


#: random tables with their starts, for the budget test below
_RANDOM_TABLES = list(random_tables(31, 40))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(start=st.one_of(
           st.sampled_from([(name, y0) for name, golden in GOLDEN_Y0.items()
                            for y0 in (golden, "1e-9", "1e-300")]),
           st.integers(0, len(_RANDOM_TABLES) - 1)),
       backward=st.booleans(),
       max_steps=st.one_of(st.integers(1, 100), st.integers(
           1, h.IntegrationOptions().max_steps)),
       stretch=st.one_of(st.just(1.0), st.floats(1.0, 1e3)))
@example(start=("FIX-A", "1e-9"), backward=True, max_steps=1, stretch=1.0)
@example(start=("FIX-A", "1e-300"), backward=True, max_steps=1, stretch=1.0)
def test_flow_exit_and_report_ignore_the_stepper(tmp_path_factory, start,
                                                 backward, max_steps,
                                                 stretch):
    # the stepper only draws: flow's exit and report bytes do not depend
    # on the step budget or on a horizon at or above T, and flow exits as
    # blowup does, with the same T_estimate, float for float
    out = tmp_path_factory.mktemp("engine")
    if isinstance(start, int):
        space, y0 = _RANDOM_TABLES[start]
        ref, y0 = str(out / "table.json"), repr(y0)
        h.dump_space(space, ref)
    else:
        ref, y0 = start
        space = h.get_space(ref)
    c = h.derive_coeffs(space)
    T = float(YFlow(c, h.einstein_roots(c)).run([float(y0)]).T[0])
    horizon = ("--horizon", repr(T * stretch))
    flow = ("flow", "--space", ref, "--y0", y0, *["--backward"] * backward)
    blowup = ("blowup", "--space", ref, "--y0", y0)

    code, report = _json_out(out, *flow)
    assert _json_out(out, *flow, "--max-steps", str(max_steps)) == \
        (code, report)
    code_h, report_h = _json_out(out, *flow, *horizon)
    assert code_h == 0 and (code != 0 or report_h == report)
    for (want, rep), argv in (((code, report), blowup),
                              ((code_h, report_h), (*blowup, *horizon))):
        got, payload = _json_out(out, *argv)
        assert got == want
        assert want != 0 or \
            json.loads(payload)["T_estimate"] == json.loads(rep)["T_estimate"]


@pytest.mark.parametrize("command", ["flow", "blowup"])
@pytest.mark.parametrize("argv", [
    ("--x1", "1e-300", "--x2", "1e300"),
    ("--x1", "inf", "--x2", "1"),
    # a ratio that overflows to inf
    ("--x1", "1e308", "--x2", "1e-10"),
])
def test_starts_off_the_cone_exit_2(tmp_path, capsys, command, argv):
    assert run_cli(command, "--space", "FIX-A", *argv,
                   "--out", str(tmp_path)) == 2
    assert "positive finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,flag", [
    (command, f"--horizon={v}") for command in ("flow", "blowup")
    for v in ("inf", "-1", "0", "nan")
] + [("flow", "--max-steps=0"), ("flow", "--max-steps=-3")])
def test_invalid_horizon_or_budget_exits_2(tmp_path, command, flag):
    # refused before any file is written, in both commands alike
    assert run_cli(command, "--space", "FIX-A", "--y0", "0.75", flag,
                   "--out", str(tmp_path)) == 2
    assert not any(tmp_path.iterdir())


def test_starts_that_agree_to_6_digits_have_distinct_files(tmp_path):
    reports = []
    for y0 in ("0.7", "0.70000001"):
        assert run_cli("flow", "--space", "FIX-A", "--y0", y0,
                       "--out", str(tmp_path)) == 0
        reports.append(tmp_path / f"FIX-A_y0_{y0}_report.json")
    t = [json.loads(p.read_text())["T_estimate"] for p in reports]
    assert t[0] != t[1]


def test_blowup_command(tmp_path, capsys):
    code = run_cli("blowup", "--space", "SU42", "--x1", "1", "--x2", "1",
                   "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "RigidProduct" and payload["flat_dim"] == 5


def test_space_json_ingestion(tmp_path):
    path = tmp_path / "custom.json"
    h.dump_space(h.get_space("FIX-A"), str(path))
    code = run_cli("flow", "--space", str(path), "--y0", "0.75",
                   "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "FIX-A_y0_0.75_report.json").exists()


def test_report_json_schema_frozen(tmp_path):
    run_cli("flow", "--space", "FIX-A", "--y0", "0.75", "--backward",
            "--out", str(tmp_path))
    report = json.loads((tmp_path / "FIX-A_y0_0.75_report.json").read_text())
    assert set(report) == {"regime", "forward_outcome", "singular_type",
                           "forward_y_limit", "ancient_exists", "ancient_type",
                           "backward_y_limit", "T_estimate"}
    assert set(report["regime"]) == {"family", "subcase", "single_below_double"}


def _readme_command_lines() -> list[list[str]]:
    """The arguments of each line of README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True)
             for line in block.strip().splitlines()]
    assert all(argv[0] == "hrflow" for argv in lines)
    return [argv[1:] for argv in lines]


@pytest.mark.parametrize("argv", _readme_command_lines(),
                         ids=lambda argv: argv[0])
def test_readme_command_lines_run(argv, tmp_path, monkeypatch):
    # the documented examples run as written; outputs land in tmp_path
    monkeypatch.chdir(tmp_path)
    if "--out" in argv:
        argv = [*argv]
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
    assert run_cli(*argv) == 0


def test_benchmark_tracer_patch_points_exist(monkeypatch, tmp_path):
    # perfbench/tracing.py wraps hrflow names where the command line looks
    # them up; a refactor that drops or binds one early breaks its trace
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    original = cli.build_parser
    tracer.install()
    try:
        assert tracer.span("cli", main, [
            "flow", "--space", "FIX-A", "--y0", "0.75", "--backward",
            "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert cli.build_parser is original
    names = {span[0] for span in tracer.spans}
    assert {"cli", "cli.parser", "cli.csv", "spaces", "flow", "stepper",
            "einstein", "classify"} <= names
    assert tracer.counts["flow.rhs_evals"] > 0


def test_no_module_imports_a_name_it_never_reads(monkeypatch):
    # an import nothing reads is dead code; the only exemptions are the
    # names perfbench/tracing.py patches in a module, which the tracer
    # needs there even when the module itself does not call them.  The
    # package __init__ imports to re-export, so it is not checked.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracing

    src = Path(cli.__file__).parent
    dead = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"hrflow.{path.stem}"
        exempt = {attr for mod, attr, _ in tracing.SPANS if mod == module}
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        dead += [f"{module}.{name}"
                 for name in sorted(imported - read - exempt)]
    assert not dead


def test_every_error_class_is_raised_or_needed():
    # an error class nothing raises is dead code, unless a raised class
    # derives from it or the benchmark imports it (its names are read from
    # perfbench/ itself, as the dead-import check reads tracing.SPANS)
    src = Path(cli.__file__).parent
    bench = Path(__file__).parents[1] / "perfbench"

    def trees(paths):
        return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]

    raised = set()
    for node in (n for t in trees(src.glob("*.py")) for n in ast.walk(t)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    imported = {a.name for t in trees(bench.glob("*.py"))
                for n in ast.walk(t)
                if isinstance(n, ast.ImportFrom)
                and n.module == "hrflow.errors" for a in n.names}
    classes = [obj for obj in vars(h.errors).values()
               if isinstance(obj, type) and obj.__module__ == "hrflow.errors"]
    bases = {base.__name__ for cls in classes if cls.__name__ in raised
             for base in cls.__mro__[1:]}
    assert len(classes) > 1
    assert [cls.__name__ for cls in classes
            if cls.__name__ not in raised | bases | imported] == []


def test_no_function_takes_a_parameter_it_never_reads():
    # a parameter nothing reads is dead code in every caller's signature;
    # regime_of keeps coeffs and critical only because
    # perfbench/workloads.py passes them by position
    exempt = {"hrflow.classify.regime_of.coeffs",
              "hrflow.classify.regime_of.critical"}
    unread = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"hrflow.{path.stem}.{fn.name}.{name}"
                       for name in sorted(params - read - {"self", "cls"})]
    assert sorted(set(unread) - exempt) == []


def test_no_function_assigns_a_local_it_never_reads():
    # a local nothing reads is dead code; names read by a nested function
    # count as read, and names that start with "_" are placeholders
    unread = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for stmt in fn.body for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)]
            stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            unread += [f"hrflow.{path.stem}.{fn.name}.{name}"
                       for name in sorted(stored - read)
                       if not name.startswith("_")]
    assert unread == []
