import ast
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import hrflow as h
from hrflow import cli, stepper
from hrflow.cli import main

from randspaces import random_maximal_space, random_nonmaximal_space
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
    code = run_cli("flow", "--space", "FIX-A", "--y0", "1", "--scale", "2",
                   "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "FIX-A_y0_1_report.json").read_text())
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


def test_flow_undetermined_exit_code(tmp_path):
    # budget lets the forward run finish but starves the backward probe
    code = run_cli("flow", "--space", "FIX-A", "--y0", "0.75", "--backward",
                   "--max-steps", "250", "--horizon", "1e9",
                   "--out", str(tmp_path))
    assert code == 3


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


def _payload(tmp_path, *argv) -> dict:
    """Exit code 0 and the report or blow-up JSON of one command run in a
    fresh output directory."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    assert run_cli(*argv, "--out", str(out)) == 0
    (path,) = [p for p in out.iterdir()
               if p.name.endswith(("_report.json", "_blowup.json"))]
    return json.loads(path.read_text())


@pytest.mark.parametrize("command", [("flow", "--backward"), ("blowup",)])
@pytest.mark.parametrize("start,lam", [
    (("--x1", "7000", "--x2", "10000"), 1e4),
    (("--y0", "0.7", "--scale", "1e-9"), 1e-9),
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


def test_blowup_steps_no_trajectory(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("blowup called the stepper")

    monkeypatch.setattr(stepper, "run_adaptive", refuse)
    for name, y0 in GOLDEN_Y0.items():
        assert run_cli("blowup", "--space", name, "--y0", y0,
                       "--out", str(tmp_path)) == 0, name


def test_blowup_horizon_against_the_singular_time(tmp_path):
    T, _ = _blowup_and_report_T(tmp_path, "FIX-A", "0.7")
    for horizon, code in ((math.nextafter(T, 0.0), 3), (T, 0),
                          (math.nextafter(T, math.inf), 0)):
        assert run_cli("blowup", "--space", "FIX-A", "--y0", "0.7",
                       "--horizon", repr(horizon),
                       "--out", str(tmp_path)) == code, horizon


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
