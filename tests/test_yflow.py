"""The closed form along y = x1/x2 against independent routes: scipy's
DOP853 on the planar system for the singular time, and the case table of
``predicted_report`` for every verdict, on seeded random valid tables."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hrflow as h
from hrflow import classify, cli, flow, stepper, yflow
from hrflow.blowup import limit_at
from hrflow.classify import classify_starts
from hrflow.flow import MetricState
from hrflow.yflow import Ends, YFlow, slot_row

from oracles import (
    dop853_singular_time,
    log_distance_singular_time,
    per_start_verdicts,
)
from randspaces import (
    c0_boundary_starts,
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


def _fixtures_and_draws():
    for name in FIXTURES:
        c = h.derive_coeffs(h.get_space(name))
        yield c, h.einstein_roots(c)
    for c, es, _ in random_starts(13, 200):
        yield c, es
    for c, es, _ in c0_boundary_starts(13, 60):
        yield c, es


def _starts_everywhere(es) -> list[float]:
    """Starts in every interval between y = 0, the Einstein directions and
    twice the top one plus one, far out on both sides, on every direction,
    just off it within the root exclusion and just outside it."""
    edges = [0.0, *es.values, 2.0 * max(es.values, default=0.5) + 1.0]
    y0s = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    y0s += [1e-6, 1e8]
    for r in es.values:
        y0s += [r, r * (1.0 + 5e-10), r * (1.0 - 5e-10), r * (1.0 + 2e-8),
                r * (1.0 - 2e-8)]
    return y0s


def test_verdicts_against_per_start_oracle():
    # every verdict field of the slot table at locate's slots and of run
    # equals the per-start formulas, dtype included, on starts in every
    # interval and on every Einstein direction of the fixtures and the
    # seeded draws.  T is not compared here;
    # test_homothety_time_on_tiny_einstein_directions checks it on the
    # directions
    fixtures = [h.derive_coeffs(h.get_space(name)) for name in FIXTURES]
    cases = [(c, h.einstein_roots(c), []) for c in fixtures]
    cases += [(c, es, [y0]) for c, es, y0 in random_starts(19, 120)]
    cases += list(c0_boundary_starts(19, 40))
    fixed = moving = 0
    for c, es, y0s in cases:
        engine = YFlow(c, es)
        y0s = [*y0s, *_starts_everywhere(es)]
        want = per_start_verdicts(engine, y0s)
        ends = engine.run(y0s)
        table = [engine.table[k] for k in engine.locate(y0s)[1].tolist()]
        got = {"fwd": np.array([s.fwd for s in table]),
               "move": np.array([s.move for s in table]),
               "shrinks": np.array([s.ends.shrinks for s in table])}
        got |= {f.name: getattr(ends, f.name)
                for f in dataclasses.fields(ends) if f.name != "T"}
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key].dtype == value.dtype, (key, es)
            assert np.array_equal(got[key], value), (key, es, y0s)
        fixed += int((want["move"] == 0).sum())
        moving += int((want["move"] != 0).sum())
    assert fixed > 300 and moving > 1000


#: one slot per type of end: fixture, regime, the forward end and its
#: order, the direction, the backward end and its order; an end is 0 for
#: y = 0, k for the k-th Einstein direction or -1 for infinity
END_TYPES = [
    ("FIX-A", "a1", 0, 0, -1, 1, 1),     # forward at y = 0, H finite
    ("FIX-A", "a2", 2, 1, 1, 1, 1),      # forward and backward at roots
    ("FIX-A", "a3", 2, 1, -1, -1, 0),    # backward at infinity
    ("FIX-B", "b1", 0, 0, -1, 1, 2),     # backward at a double root
    ("FIX-B", "b2", 1, 2, -1, -1, 0),    # forward at a double root
    ("FIX-C0", "C0/below", 1, 1, 1, 0, 1),   # backward at the zero y = 0
    ("FIX-D", "d1", 1, 1, 1, 0, -1),     # backward at the maximal pole
    ("FIX-E2", "e4", 1, 2, 1, 0, -1),    # forward at a double root
]


@pytest.mark.parametrize("name, regime, fwd, hf, move, bwd, hb", END_TYPES)
def test_slot_row_at_every_end_type(name, regime, fwd, hf, move, bwd, hb):
    # the pure function of a slot's ends gives the case table's row, and
    # the engine's table holds exactly that row for the slot
    c = h.derive_coeffs(h.get_space(name))
    es, p = h.einstein_roots(c), c.planar
    ends = [0.0, *es.values, math.inf]
    row = slot_row(ends[fwd], hf, move, ends[bwd], hb, p.b0, p.b1, p.bm2)
    pred = classify.predicted_report(
        next(r for r in classify.slot_regimes(es) if str(r) == regime), es, c)
    shrink = classify._shrink_outcome(c)
    assert (shrink if row.shrinks else classify.Outcome.FIBER_COLLAPSE) \
        is pred.outcome
    assert row.type_one and row.y_forward == pred.forward_y_limit
    assert row.ancient == pred.ancient_exists
    t1, t2 = classify.SingularType.TYPE_I, classify.SingularType.TYPE_II
    if row.ancient:
        assert (t1 if row.ancient_type_one else t2) is pred.ancient_type
        assert row.y_backward == pred.backward_y_limit
    assert math.isnan(row.T)
    k = [str(r) for r in classify.slot_regimes(es)].index(regime)
    assert repr(YFlow(c, es).table[k].ends) == repr(row)


def test_slot_row_of_a_homothety_and_of_unreachable_ends(fix_a):
    # a start on a root has both ends there: the space shrinks, the flow
    # is ancient of Type I and T = -1/f2(r).  y = 0 ends a flow of Type I
    # only where H is finite there, and no flow ends at y = 0 where it is
    # not: at the pole of the maximal kind or the zero of family C0
    p = fix_a.planar
    r = h.einstein_roots(fix_a).values[0]
    row = slot_row(r, 1, 0, r, 1, p.b0, p.b1, p.bm2)
    assert row == Ends(r, True, True, True, True, r,
                       1 / (p.b0 - p.b1 * r + p.bm2 / r / r))
    for hf in (-1, 1):
        assert not slot_row(0.0, hf, -1, r, 1, 1.0, 1.0, 0.0).type_one
    for name in ("FIX-C0", "FIX-D", "FIX-E", "FIX-E2", "FIX-F"):
        c = h.derive_coeffs(h.get_space(name))
        assert all(s.fwd for s in YFlow(c, h.einstein_roots(c)).table)


def test_field_is_negative_at_every_einstein_direction():
    # the lemma every verdict rests on: f1(r) = r*f2(r) < 0 at each
    # Einstein direction r, and no record from a table has A1*A2 < B1*B2
    # (a0*b0 < am1*b1), the condition under which MaxCoeffs refuses one
    roots = 0
    for c, es in _fixtures_and_draws():
        p = c.planar
        assert p.a0 * p.b0 >= p.am1 * p.b1, c
        for r in es.values:
            f1 = -p.a0 + p.am1 / r - p.a2 * r * r
            f2 = -p.b0 + p.b1 * r - p.bm2 / r / r
            assert f1 < 0.0 and f2 < 0.0, (c, r, f1, f2)
            roots += 1
    assert roots > 300


def test_homothety_time_on_tiny_einstein_directions():
    # a start (r, 1) on an Einstein direction is a homothety with
    # T = -1/f2(r) = 1/(D - B*r) in the non-maximal kind; no r*r is formed,
    # so roots below 1.5e-154 get their time too, with warnings as errors
    tiny = 0
    for c, es, _ in c0_boundary_starts(19, 40):
        roots = np.array(es.values)
        T = YFlow(c, es).run(roots).T
        want = 1.0 / (float(c.D) - float(c.B) * roots)
        assert np.all(np.abs(T - want) <= 1e-15 * want), (c, roots, T)
        tiny += int((roots < 1.5e-154).sum())
    assert tiny >= 10


@pytest.mark.parametrize("y0", [0.0, -1.0])
def test_run_refuses_a_start_that_is_not_positive(fix_a, y0):
    with pytest.raises(ValueError, match="positive"):
        YFlow(fix_a, h.einstein_roots(fix_a)).run([0.5, y0])


def test_engine_takes_zeros_of_h_from_einstein_set():
    # the points of the engine are y = 0 and the roots of es with their
    # multiplicities; H has a pole at 0 in the maximal kind and a simple
    # zero there in family C0 alone
    labels = set()
    for c, es in _fixtures_and_draws():
        yf = YFlow(c, es)
        assert yf.es is es
        assert tuple(yf.z[1:]) == es.values
        assert tuple(yf.h[1:]) == tuple(m for _, m in es.roots)
        want = -1 if c.planar.maximal else int(es.case_label == "C0")
        assert yf.h[0] == want
        assert (yf.pair is not None) == (es.case_label in ("c", "f"))
        labels.add(es.case_label)
    assert labels == {"a", "b", "c", "C0", "d", "e", "f"}


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
        (rep,) = classify_starts(YFlow(c, es), [y0])
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


def test_c0_boundary_verdicts_follow_case_table():
    # a constant term below 1e-300 is family C0 for einstein_roots; the
    # engine once counted only an exact 0.0 and refused such tables
    bad, sides = [], set()
    for c, es, y0s in c0_boundary_starts(21, 200):
        sides.add((es.case_label, c.C == 0.0))
        for y0, rep in zip(y0s, classify_starts(YFlow(c, es), y0s)):
            pred = h.predicted_report(rep.regime, es, c)
            got = (rep.forward_outcome, rep.forward_y_limit,
                   rep.ancient_exists, rep.ancient_type,
                   rep.backward_y_limit)
            want = (pred.outcome, pytest.approx(pred.forward_y_limit),
                    pred.ancient_exists, pred.ancient_type,
                    None if pred.backward_y_limit is None
                    else pytest.approx(pred.backward_y_limit))
            if got != want or not 0.0 < rep.T_estimate < np.inf:
                bad.append((c.C, str(rep.regime), y0))
    assert sides == {("a", False), ("C0", False), ("C0", True)}
    assert not bad


def test_c0_boundary_singular_time_against_dop853():
    errs = []
    for c, es, y0s in c0_boundary_starts(22, 30):
        T = YFlow(c, es).run(y0s[:1]).T[0]
        ref = dop853_singular_time(c, y0s[0])
        errs.append(abs(T - ref) / ref)
    assert max(errs) <= 1e-10, max(errs)


def test_engine_consults_no_case_table(monkeypatch, fix_d):
    def refuse(*args):
        raise AssertionError("the engine read the case table")

    monkeypatch.setattr(classify, "regime_of", refuse)
    monkeypatch.setattr(classify, "predicted_report", refuse)
    reps = classify_starts(YFlow(fix_d, h.einstein_roots(fix_d)),
                           [0.25, 0.75, 1.5, 3.0])
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
        reports[lam] = h.classify_trajectory(fwd, bwd).to_dict()
        assert type(reports[lam]["T_estimate"]) is float
    base = reports[1.0]
    for lam, rep in reports.items():
        assert rep["T_estimate"] / lam == pytest.approx(base["T_estimate"],
                                                        rel=1e-12)
        assert rep | {"T_estimate": None} == base | {"T_estimate": None}


def _report(c, init):
    fwd = h.integrate(c, init)
    bwd = h.integrate(c, init, h.IntegrationOptions(
        direction=h.Direction.BACKWARD))
    return h.classify_trajectory(fwd, bwd)


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
    base = _report(c, MetricState(0.0, y0, 1.0))
    rep = _report(c, MetricState(0.0, y0 * lam, lam))
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


def test_integrate_refuses_a_foreign_engine(fix_a, fix_d):
    # the first-integral column of FIX-D's engine along FIX-A's flow
    # spread by 93 relative; its classification named FIX-D's verdicts
    foreign = YFlow(fix_d, h.einstein_roots(fix_d))
    with pytest.raises(ValueError):
        h.integrate(fix_a, MetricState(0.0, 0.75, 1.0), engine=foreign)


def test_trajectory_carries_its_engine(spaces):
    for name, y0 in (("FIX-A", 0.75), ("SU42", 1.0), ("FIX-D", 0.75),
                     ("FIX-C0", 0.75)):
        c = h.derive_coeffs(spaces[name])
        engine = YFlow(c, h.einstein_roots(c))
        assert engine.c is c
        init = MetricState(0.0, 2.0 * y0, 2.0)
        fwd = h.integrate(c, init, engine=engine)
        bwd = h.integrate(c, init, h.IntegrationOptions(
            direction=h.Direction.BACKWARD), engine=engine)
        assert fwd.engine is engine and bwd.engine is engine
        (want,) = classify_starts(engine, [y0])
        rep = h.classify_trajectory(fwd, bwd)
        assert rep.T_estimate == pytest.approx(2.0 * want.T_estimate,
                                               rel=1e-15)
        assert rep.to_dict() | {"T_estimate": None} == \
            want.to_dict() | {"T_estimate": None}, name
        assert h.soliton_limit(fwd) == limit_at(
            c, want.forward_y_limit,
            want.forward_outcome is not h.Outcome.FIBER_COLLAPSE), name


def test_tiny_einstein_root_is_not_widened():
    # the lower root is 5e-13; a distance of 1e-9*(1 + root) to it once
    # put all three starts on it
    c = h.NonMaxCoeffs(A=0.5, B=0.5, C=1e-12, D=2.0, d1=1, d2=2)
    es = h.einstein_roots(c)
    assert es.case_label == "a" and es.values[0] < 1e-12
    y0s = [2.5e-13, 1e-10, 5e-10]
    reps = classify_starts(YFlow(c, es), y0s)
    assert [str(r.regime) for r in reps] == ["a1", "a2", "a2"]
    for rep in reps:
        pred = h.predicted_report(rep.regime, es, c)
        assert (rep.forward_outcome, rep.ancient_exists, rep.ancient_type) \
            == (pred.outcome, pred.ancient_exists, pred.ancient_type)
        assert rep.forward_y_limit == pytest.approx(pred.forward_y_limit)
        assert rep.backward_y_limit == pytest.approx(pred.backward_y_limit)
    ref = dop853_singular_time(c, y0s[1])
    assert abs(reps[1].T_estimate - ref) <= 1e-10 * ref


def test_fixed_direction_is_a_homothety(fix_a):
    # from (r, 1) on the root r, x2 decays at k2 = -f2(r) = D - B*r
    ends = YFlow(fix_a, h.einstein_roots(fix_a)).run([0.5, 1.0])
    assert list(ends.T) == pytest.approx([1 / 2.5, 1 / 2.0])
    assert list(ends.y_forward) == list(ends.y_backward) == [0.5, 1.0]
    assert ends.shrinks.all() and ends.ancient.all()


def test_ends_do_not_depend_on_the_batch():
    # the batch relation, bit for bit: every field of a start's Ends is the
    # same in a batch of 20, in that batch reversed and alone
    fixtures = [h.derive_coeffs(h.get_space(name)) for name in FIXTURES]
    tables = [(c, h.einstein_roots(c)) for c in fixtures]
    tables += [(c, es) for c, es, _ in random_starts(3, 100)]
    tables += [(c, es) for c, es, _ in c0_boundary_starts(3, 20)]
    rng = np.random.default_rng(3)
    for c, es in tables:
        engine = YFlow(c, es)
        y0s = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 20))
        runs = [engine.run(y0s), engine.run(y0s[::-1])]
        runs.append(Ends(*(np.concatenate(v) for v in zip(
            *(vars(engine.run([y0])).values() for y0 in y0s)))))
        for f in dataclasses.fields(Ends):
            want, back, alone = (getattr(ends, f.name) for ends in runs)
            assert want.tobytes() == back[::-1].tobytes() == \
                alone.tobytes(), (f.name, es)


def test_singular_time_does_not_depend_on_the_joint_level(monkeypatch):
    # grouping levels into passes leaves T as it is, bit for bit: each
    # level is summed over its own nodes whichever pass evaluated them
    fixtures = [h.derive_coeffs(h.get_space(name)) for name in FIXTURES]
    cases = [(c, h.einstein_roots(c), []) for c in fixtures]
    cases += [(c, es, [y0]) for c, es, y0 in random_starts(29, 120)]
    cases += list(c0_boundary_starts(29, 20))
    runs = [(YFlow(c, es), [*y0s, *_starts_everywhere(es)])
            for c, es, y0s in cases]
    want = [engine.run(y0s).T.tobytes() for engine, y0s in runs]
    try:
        for joint in (3, 4, 6, 7):
            monkeypatch.setattr(yflow, "JOINT_LEVEL", joint)
            yflow._joint_nodes.cache_clear()
            got = [engine.run(y0s).T.tobytes() for engine, y0s in runs]
            assert got == want, joint
    finally:
        monkeypatch.undo()
        yflow._joint_nodes.cache_clear()


#: SHA-256 over every field of ``YFlow.run`` on the inputs of
#: ``_ends_runs``.  Like the goldens of test_golden.py it pins this
#: platform's floating-point results: a rewrite of the engine that promises
#: the same answers must leave it as it is, and a deliberate numerical
#: change re-records it with
#:
#:     PYTHONPATH=src python tests/test_yflow.py
ENDS_DIGEST = (
    '5286fb74bc24bebe10d61d8b4d3d0c51f1de135edb02e69e6494cdbbfe47ee15')


def _ends_runs():
    """One run per table and batch size: the 8 fixtures and seeded random
    tables of both kinds and of the a <-> C0 boundary, batches of 1, 20,
    32 and 100 starts (the last spans several chunks) drawn log-uniform
    in [1e-6, 1e8]."""
    fixtures = [h.derive_coeffs(h.get_space(name)) for name in FIXTURES]
    tables = [(c, h.einstein_roots(c)) for c in fixtures]
    tables += [(c, es) for c, es, _ in random_starts(17, 40)]
    tables += [(c, es) for c, es, _ in c0_boundary_starts(17, 20)]
    rng = np.random.default_rng(17)
    for c, es in tables:
        engine = YFlow(c, es)
        for n in (1, 20, 32, 100):
            y0s = np.exp(rng.uniform(np.log(1e-6), np.log(1e8), n))
            yield engine.run(y0s)


def ends_digest() -> str:
    return _digest(_ends_runs())


def test_ends_digest():
    assert ends_digest() == ENDS_DIGEST


#: SHA-256 like ``ENDS_DIGEST`` over the inputs of ``_near_far_runs``,
#: recorded and re-recorded the same way
NEAR_FAR_DIGEST = (
    'c12dde62dda1507c29391e7671ca38d5a4bbb8d8adccac51754e0a40dbaac654')


def _near_far_runs():
    """One run per table and batch size, for the starts ``_ends_runs``
    seldom draws: r*(1 +- 1e-8) and r*(1 +- 1e-3) on both sides of each
    Einstein direction r (so one batch mixes slots that move up and down,
    end at each root and pass the others on either side) and far starts
    log-uniform in [1e8, 1e12].  The 8 fixtures and seeded random tables
    of both kinds and of the a <-> C0 boundary; batches of 1, 7, 20 and 33
    starts (the last spans two chunks) drawn from those starts."""
    fixtures = [h.derive_coeffs(h.get_space(name)) for name in FIXTURES]
    tables = [(c, h.einstein_roots(c)) for c in fixtures]
    tables += [(c, es) for c, es, _ in random_starts(23, 40)]
    tables += [(c, es) for c, es, _ in c0_boundary_starts(23, 20)]
    rng = np.random.default_rng(23)
    for c, es in tables:
        engine = YFlow(c, es)
        near = [r * (1.0 + e) for r in es.values
                for e in (-1e-3, -1e-8, 1e-8, 1e-3)]
        far = np.exp(rng.uniform(np.log(1e8), np.log(1e12), 8)).tolist()
        pool = np.array(near + far)
        for n in (1, 7, 20, 33):
            yield engine.run(rng.choice(pool, n))


def _digest(runs) -> str:
    digest = hashlib.sha256()
    for ends in runs:
        for f in dataclasses.fields(ends):
            arr = np.ascontiguousarray(getattr(ends, f.name))
            digest.update(f"{f.name} {arr.dtype.str} {arr.shape}\n".encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def test_near_and_far_ends_digest():
    assert _digest(_near_far_runs()) == NEAR_FAR_DIGEST


if __name__ == "__main__":
    print(f"ENDS_DIGEST = {ends_digest()!r}")
    print(f"NEAR_FAR_DIGEST = {_digest(_near_far_runs())!r}")
