"""The closed form along y = x1/x2 against independent routes: scipy's
DOP853 on the planar system for the singular time, and the case table of
``predicted_report`` for every verdict, on seeded random valid tables."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hrflow as h
from hrflow import classify, cli, flow, stepper
from hrflow.classify import classify_starts
from hrflow.flow import MetricState
from hrflow.yflow import YFlow

from oracles import dop853_singular_time, log_distance_singular_time
from randspaces import (
    random_maximal_space,
    random_nonmaximal_space,
    random_starts,
)


def test_singular_time_against_dop853():
    errs = []
    for c, es, y0 in random_starts(11, 200):
        T = YFlow(c, es).run([y0]).T[0]
        ref = dop853_singular_time(c, y0)
        errs.append(abs(T - ref) / ref)
    assert max(errs) <= 1e-10, max(errs)


def test_log_distance_oracle_against_dop853():
    # the far-start oracle agrees with the plain one where both run
    for c, es, y0 in random_starts(12, 40):
        ref = dop853_singular_time(c, y0)
        assert log_distance_singular_time(c, es, y0) == pytest.approx(
            ref, rel=1e-10)


FIXTURES = ("SU42", "FIX-A", "FIX-B", "FIX-C0", "FIX-D", "FIX-E", "FIX-E2",
            "FIX-F")


@pytest.mark.parametrize("name", FIXTURES)
def test_singular_time_of_far_starts(name):
    # log1p((y - y0)/(y0 - z)) near -1 lost the digits of y - z: 0.34
    # relative error on FIX-F at 1e8, inf on SU42
    c = h.derive_coeffs(h.get_space(name))
    es = h.einstein_roots(c)
    y0s = [1e4, 1e6, 1e8]
    T = YFlow(c, es).run(y0s).T
    ref = [log_distance_singular_time(c, es, y0) for y0 in y0s]
    assert list(T) == pytest.approx(ref, rel=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", FIXTURES)
def test_sweep_writes_only_finite_singular_times(tmp_path, name):
    # far enough out T overflows; such a sweep is undetermined, not a
    # file of nan cells that match the case table
    code = cli.main(["sweep", "--space", name, "--y0-range", "1e4,1e300",
                     "--count", "12", "--out", str(tmp_path)])
    rows = (tmp_path / f"{name}_sweep.csv").read_text().splitlines()[1:]
    assert code in (0, 3)
    assert code == 3 or len(rows) == 12
    assert all(np.isfinite(float(r.split(",")[4])) for r in rows)


def test_sweep_of_far_starts_is_finite(tmp_path):
    assert cli.main(["sweep", "--space", "FIX-D", "--y0-range", "1e19,1e21",
                     "--count", "2", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "FIX-D_sweep.csv").read_text().splitlines()[1:]
    assert [np.isfinite(float(r.split(",")[4])) for r in rows] == [True] * 2


def test_reports_agree_with_case_table():
    bad = []
    for c, es, y0 in random_starts(2, 400):
        regime = h.regime_of(c, es, None, y0)
        (rep,) = classify_starts(c, es, [y0])
        pred = h.predicted_report(regime, es, c)
        fields = {
            "outcome": rep.forward_outcome is pred.outcome,
            "singular type": rep.singular_type is h.SingularType.TYPE_I,
            "forward limit": rep.forward_y_limit == pytest.approx(
                pred.forward_y_limit, rel=1e-12, abs=1e-12),
            "ancient": rep.ancient_exists is pred.ancient_exists,
            "ancient type": rep.ancient_type is pred.ancient_type,
            "backward limit": rep.backward_y_limit == pred.backward_y_limit,
        }
        if not all(fields.values()):
            bad.append((str(regime), y0, [k for k, v in fields.items()
                                          if not v]))
    assert not bad


def test_engine_consults_no_case_table(monkeypatch, fix_d):
    def refuse(*args):
        raise AssertionError("the engine read the case table")

    monkeypatch.setattr(classify, "regime_of", refuse)
    monkeypatch.setattr(classify, "predicted_report", refuse)
    es = h.einstein_roots(fix_d)
    reps = classify_starts(fix_d, es, [0.25, 0.75, 1.5, 3.0])
    assert [r.forward_y_limit for r in reps] == pytest.approx(
        [0.5, 0.5, 2.0, 2.0])
    assert [r.ancient_exists for r in reps] == [False, True, True, False]


def test_sweep_runs_no_stepper(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep stepped a trajectory")

    monkeypatch.setattr(stepper, "run_adaptive", refuse)
    monkeypatch.setattr(flow, "integrate", refuse)
    monkeypatch.setattr(cli, "integrate", refuse)
    assert cli.main(["sweep", "--space", "FIX-E", "--mode", "random",
                     "--count", "30", "--y0-range", "0.05,20",
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "FIX-E_sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 30 and all(r.endswith(",True") for r in rows)


def test_report_scales_with_the_metric(fix_a):
    # the flow is scale-equivariant: x -> lam*x takes t -> lam*t
    reports = {}
    for lam in (1e-4, 1e-2, 1.0, 1e2):
        init = MetricState(0.0, 0.7 * lam, lam)
        fwd = h.integrate(fix_a, init)
        bwd = h.integrate(fix_a, init, h.IntegrationOptions(
            direction=h.Direction.BACKWARD))
        reports[lam] = h.classify_trajectory(fwd, bwd, fix_a).to_dict()
        assert type(reports[lam]["T_estimate"]) is float
    base = reports[1.0]
    for lam, rep in reports.items():
        assert rep["T_estimate"] / lam == pytest.approx(base["T_estimate"],
                                                        rel=1e-12)
        assert rep | {"T_estimate": None} == base | {"T_estimate": None}


def _report(c, es, init):
    fwd = h.integrate(c, init)
    bwd = h.integrate(c, init, h.IntegrationOptions(
        direction=h.Direction.BACKWARD))
    return h.classify_trajectory(fwd, bwd, c, es)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), maximal=st.booleans(),
       ln_y0=st.floats(np.log(0.05), np.log(20.0)),
       ln_lam=st.floats(np.log(1e-6), np.log(1e6)))
def test_random_reports_are_scale_free(seed, maximal, ln_y0, ln_lam):
    draw = random_maximal_space if maximal else random_nonmaximal_space
    c = h.derive_coeffs(draw(np.random.default_rng(seed)))
    es = h.einstein_roots(c)
    y0, lam = float(np.exp(ln_y0)), float(np.exp(ln_lam))
    assume(es.on_root(y0) is None)
    base = _report(c, es, MetricState(0.0, y0, 1.0))
    rep = _report(c, es, MetricState(0.0, y0 * lam, lam))
    assert rep.T_estimate / lam == pytest.approx(base.T_estimate, rel=1e-12)
    assert rep.to_dict() | {"T_estimate": None} == \
        base.to_dict() | {"T_estimate": None}
    pred = h.predicted_report(rep.regime, es, c)
    assert rep.forward_outcome is pred.outcome
    assert rep.forward_y_limit == pytest.approx(pred.forward_y_limit,
                                                rel=1e-2, abs=1e-2)
    assert rep.ancient_exists is pred.ancient_exists
    assert rep.ancient_type is pred.ancient_type
    if pred.backward_y_limit is None:
        assert rep.backward_y_limit is None
    else:
        assert rep.backward_y_limit == pytest.approx(
            pred.backward_y_limit, rel=1e-2, abs=1e-2)


def test_fixed_direction_is_a_homothety(fix_a):
    # from (r, 1) on the root r, x2 decays at k2 = -f2(r) = D - B*r
    ends = YFlow(fix_a, h.einstein_roots(fix_a)).run([0.5, 1.0])
    assert list(ends.T) == pytest.approx([1 / 2.5, 1 / 2.0])
    assert list(ends.y_forward) == list(ends.y_backward) == [0.5, 1.0]
    assert ends.shrinks.all() and ends.ancient.all()
