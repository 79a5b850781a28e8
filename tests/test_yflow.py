"""The closed form along y = x1/x2 against independent routes: scipy's
DOP853 on the planar system for the singular time, and the case table of
``predicted_report`` for every verdict, on seeded random valid tables."""

import pytest

import hrflow as h
from hrflow import classify, cli, flow, stepper
from hrflow.classify import classify_starts
from hrflow.flow import MetricState
from hrflow.yflow import YFlow

from oracles import dop853_singular_time
from randspaces import random_starts


def test_singular_time_against_dop853():
    errs = []
    for c, es, y0 in random_starts(11, 200):
        T = YFlow(c, es).run([y0]).T[0]
        ref = dop853_singular_time(c, y0)
        errs.append(abs(T - ref) / ref)
    assert max(errs) <= 1e-10, max(errs)


def test_reports_agree_with_case_table():
    bad = []
    for c, es, y0 in random_starts(2, 400):
        regime = h.regime_of(c, es, None, y0)
        (rep,) = classify_starts(c, es, [y0], [regime])
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
    reps = classify_starts(fix_d, es, [0.25, 0.75, 1.5, 3.0], [None] * 4)
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


def test_fixed_direction_is_a_homothety(fix_a):
    # from (r, 1) on the root r, x2 decays at k2 = -f2(r) = D - B*r
    ends = YFlow(fix_a, h.einstein_roots(fix_a)).run([0.5, 1.0])
    assert list(ends.T) == pytest.approx([1 / 2.5, 1 / 2.0])
    assert list(ends.y_forward) == list(ends.y_backward) == [0.5, 1.0]
    assert ends.shrinks.all() and ends.ancient.all()
