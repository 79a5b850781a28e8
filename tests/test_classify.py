import numpy as np
import pytest

import hrflow as h
from hrflow.classify import classify_starts
from hrflow.errors import InsufficientHorizon, NotCollapsed, OnEinsteinRoot
from hrflow.flow import IntegrationOptions, MetricState

from randspaces import random_maximal_space, random_nonmaximal_space

BWD = IntegrationOptions(direction=h.Direction.BACKWARD)


def run_pair(coeffs, y0, scale=1.0, horizon=1e3):
    init = MetricState(0.0, y0 * scale, scale)
    fwd = h.integrate(coeffs, init)
    bwd = h.integrate(coeffs, init,
                      IntegrationOptions(direction=h.Direction.BACKWARD,
                                         max_time=horizon))
    return fwd, bwd


# --- regime_of ---------------------------------------------------------------


def test_regime_nonmaximal(su42, fix_a, fix_b, fix_c0):
    es_a = h.einstein_roots(fix_a)
    assert str(h.regime_of(fix_a, es_a, None, 0.25)) == "a1"
    assert str(h.regime_of(fix_a, es_a, None, 0.75)) == "a2"
    assert str(h.regime_of(fix_a, es_a, None, 1.5)) == "a3"
    es_b = h.einstein_roots(fix_b)
    assert str(h.regime_of(fix_b, es_b, None, 0.2)) == "b1"
    assert str(h.regime_of(fix_b, es_b, None, 0.7)) == "b2"
    es_c = h.einstein_roots(su42)
    for y0 in (0.05, 1.0, 20.0):
        assert str(h.regime_of(su42, es_c, None, y0)) == "c"
    es_0 = h.einstein_roots(fix_c0)
    assert str(h.regime_of(fix_c0, es_0, None, 1.0)) == "C0/below"
    assert str(h.regime_of(fix_c0, es_0, None, 2.0)) == "C0/above"


def test_regime_maximal(fix_d, fix_e, fix_e2, fix_f):
    es = h.einstein_roots(fix_d)
    cd = h.critical_directions(fix_d)
    labels = [(0.25, "d1"), (0.75, "d2"), (1.5, "d3"), (3.0, "d4")]
    for y0, want in labels:
        assert str(h.regime_of(fix_d, es, cd, y0)) == want
    es_e = h.einstein_roots(fix_e)
    assert str(h.regime_of(fix_e, es_e, None, 0.15)) == "e1"
    assert str(h.regime_of(fix_e, es_e, None, 0.8)) == "e2"
    assert str(h.regime_of(fix_e, es_e, None, 2.5)) == "e3"
    assert h.regime_of(fix_e, es_e, None, 0.8).single_below_double is True
    es_e2 = h.einstein_roots(fix_e2)
    assert str(h.regime_of(fix_e2, es_e2, None, 0.3)) == "e4"
    assert str(h.regime_of(fix_e2, es_e2, None, 1.2)) == "e5"
    assert str(h.regime_of(fix_e2, es_e2, None, 3.0)) == "e6"
    es_f = h.einstein_roots(fix_f)
    assert str(h.regime_of(fix_f, es_f, None, 0.5)) == "f"
    assert str(h.regime_of(fix_f, es_f, None, 4.0)) == "f"


def test_regime_rejects_fixed_directions(fix_a):
    es = h.einstein_roots(fix_a)
    with pytest.raises(OnEinsteinRoot):
        h.regime_of(fix_a, es, None, 1.0 + 1e-12)
    with pytest.raises(ValueError):
        h.regime_of(fix_a, es, None, -1.0)


def test_start_labels_match_regime_of():
    # classify_starts labels its starts itself: regime_of's label off the
    # roots, fixed and the 1-based index of the root on them
    rng = np.random.default_rng(6)
    cases = set()
    for i in range(60):
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        c = h.derive_coeffs(draw(rng))
        es = h.einstein_roots(c)
        cases.add(es.case_label)
        y0s = list(np.exp(rng.uniform(np.log(0.05), np.log(20.0), 6)))
        for r in es.values:
            y0s += [r, r * (1.0 + 5e-10), r * (1.0 - 2e-8)]
        reps = classify_starts(c, es, y0s)
        for y0, rep in zip(y0s, reps):
            k = es.locate(y0)[1]
            if k >= 0:
                assert rep.regime == h.RegimeLabel("fixed", int(k) + 1)
                with pytest.raises(OnEinsteinRoot):
                    h.regime_of(c, es, None, y0)
            else:
                assert rep.regime == h.regime_of(c, es, None, y0)
    assert {"a", "c", "d", "f"} <= cases


# --- classify_trajectory -----------------------------------------------------


def test_classify_su42(su42):
    fwd, bwd = run_pair(su42, 1.0)
    rep = h.classify_trajectory(fwd, bwd, su42)
    assert str(rep.regime) == "c"
    assert rep.forward_outcome is h.Outcome.FIBER_COLLAPSE
    assert rep.singular_type is h.SingularType.TYPE_I
    assert abs(rep.forward_y_limit) < 1e-6
    assert rep.ancient_exists is False
    assert rep.ancient_type is None and rep.backward_y_limit is None


def test_classify_fix_a_connecting_orbit(fix_a):
    fwd, bwd = run_pair(fix_a, 0.75)
    rep = h.classify_trajectory(fwd, bwd, fix_a)
    assert str(rep.regime) == "a2"
    assert rep.forward_outcome is h.Outcome.SHRINK_TO_POINT
    assert rep.singular_type is h.SingularType.TYPE_I
    assert rep.forward_y_limit == pytest.approx(1.0, abs=1e-3)
    assert rep.ancient_exists is True
    assert rep.ancient_type is h.SingularType.TYPE_I
    assert rep.backward_y_limit == pytest.approx(0.5, abs=1e-3)


def test_classify_c0_type_two(fix_c0):
    fwd, bwd = run_pair(fix_c0, 0.75)
    rep = h.classify_trajectory(fwd, bwd, fix_c0)
    assert str(rep.regime) == "C0/below"
    assert rep.forward_outcome is h.Outcome.SHRINK_TO_POINT
    assert rep.singular_type is h.SingularType.TYPE_I
    assert rep.ancient_exists is True
    assert rep.ancient_type is h.SingularType.TYPE_II
    assert abs(rep.backward_y_limit) < 1e-3


def test_classify_report_serialises(fix_a):
    fwd, bwd = run_pair(fix_a, 0.75)
    rep = h.classify_trajectory(fwd, bwd, fix_a)
    d = rep.to_dict()
    assert set(d) == {"regime", "forward_outcome", "singular_type",
                      "forward_y_limit", "ancient_exists", "ancient_type",
                      "backward_y_limit", "T_estimate"}
    assert d["regime"]["family"] == "a"
    assert d["ancient_type"] == "TypeI"


def test_insufficient_horizon_raises(fix_a):
    init = MetricState(0.0, 0.75, 1.0)
    fwd = h.integrate(fix_a, init)
    starved = IntegrationOptions(direction=h.Direction.BACKWARD,
                                 max_time=1e3, max_steps=40)
    bwd = h.integrate(fix_a, init, starved)
    assert bwd.termination is h.Termination.STEP_LIMIT
    with pytest.raises(InsufficientHorizon):
        h.classify_trajectory(fwd, bwd, fix_a)


def test_blowup_limit_requires_collapse(fix_a):
    cut = h.integrate(fix_a, MetricState(0.0, 0.7, 1.0),
                      IntegrationOptions(max_time=0.01))
    assert cut.termination is h.Termination.HORIZON_REACHED
    with pytest.raises(NotCollapsed):
        h.soliton_limit(cut, h.einstein_roots(fix_a))


# --- singular-time estimate -------------------------------------------------


def test_estimate_bounded_by_linear_decay(su42):
    traj = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    assert traj.T_estimate <= 1.0 / float(su42.C) + 1e-9


def test_estimate_exact_on_fixed_direction(fix_a):
    traj = h.integrate(fix_a, MetricState(0.0, 2.0, 2.0))
    assert traj.T_estimate == pytest.approx(1.0, abs=1e-9)


def test_estimate_step_halving(fix_d):
    a = h.integrate(fix_d, MetricState(0.0, 0.75, 1.0))
    opts = IntegrationOptions(rel_tol=5e-11, abs_tol=5e-15)
    b = h.integrate(fix_d, MetricState(0.0, 0.75, 1.0), opts)
    assert a.T_estimate == pytest.approx(b.T_estimate, rel=1e-6)


def test_estimate_rejects_horizon_runs(fix_a):
    traj = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0), BWD)
    assert traj.T_estimate is None


# --- scalar curvature sign and type I rate ------------------------------------


def test_negative_scalar_curvature_turns_positive(su42):
    ybar = h.scalar_zero_directions(su42).positive_roots[0]
    traj = h.integrate(su42, MetricState(0.0, (ybar + 1.0), 1.0))
    assert traj.R[0] < 0
    flips = np.nonzero(traj.R > 0)[0]
    assert len(flips) and flips[0] < traj.n_samples - 1
    assert np.all(traj.R[flips[0]:] > 0)


def test_type_one_shrink_rate(fix_a):
    # the shrink limit forces (T - t) * R -> (d1 + d2) / 2
    n_half = (fix_a.d1 + fix_a.d2) / 2
    for y0 in (0.5, 1.0, 0.75):
        traj = h.integrate(fix_a, MetricState(0.0, 2 * y0, 2.0))
        gap = traj.T_estimate - traj.t
        win = (gap > 0) & (gap <= gap[-1] * 10)
        q = gap[win] * traj.R[win]
        assert np.all(np.abs(q / n_half - 1) < 0.01)


# --- prediction table ----------------------------------------------------------


FULL_MATRIX = [
    # space, y0, regime, outcome kind, forward root, ancient?, backward root
    ("FIX-A", 0.25, "a1", "fiber", 0.0, True, 0.5),
    ("FIX-A", 0.75, "a2", "shrink", 1.0, True, 0.5),
    ("FIX-A", 1.50, "a3", "shrink", 1.0, False, None),
    ("FIX-B", 0.25, "b1", "fiber", 0.0, True, 0.5),
    ("FIX-B", 1.00, "b2", "shrink", 0.5, False, None),
    ("SU42", 1.00, "c", "fiber", 0.0, False, None),
    ("FIX-C0", 0.75, "C0/below", "shrink", 1.5, True, 0.0),
    ("FIX-C0", 2.50, "C0/above", "shrink", 1.5, False, None),
    ("FIX-E2", 0.30, "e4", "shrink", 0.72570811482256823, False, None),
    ("FIX-E2", 1.20, "e5", "shrink", 2.0485837703548637, True,
     0.72570811482256823),
    ("FIX-E2", 3.00, "e6", "shrink", 2.0485837703548637, False, None),
]


@pytest.mark.parametrize("name,y0,regime,kind,root_f,anc,root_b", FULL_MATRIX)
def test_case_analysis_matrix(spaces, name, y0, regime, kind, root_f, anc,
                              root_b):
    coeffs = h.derive_coeffs(spaces[name])
    es = h.einstein_roots(coeffs)
    fwd, bwd = run_pair(coeffs, y0)
    rep = h.classify_trajectory(fwd, bwd, coeffs, es)
    assert str(rep.regime) == regime
    assert rep.singular_type is h.SingularType.TYPE_I
    if kind == "fiber":
        assert rep.forward_outcome is h.Outcome.FIBER_COLLAPSE
        assert abs(rep.forward_y_limit) < 1e-6
    else:
        want = (h.Outcome.SIMULTANEOUS_COLLAPSE
                if isinstance(coeffs, h.MaxCoeffs) else h.Outcome.SHRINK_TO_POINT)
        assert rep.forward_outcome is want
        candidates = es.values
        nearest = min(candidates, key=lambda r: abs(r - rep.forward_y_limit))
        assert nearest == pytest.approx(root_f, abs=1e-9)
    assert rep.ancient_exists is anc
    if anc:
        expect = (h.SingularType.TYPE_II if regime == "C0/below"
                  else h.SingularType.TYPE_I)
        assert rep.ancient_type is expect
        candidates = es.values + (0.0,)
        nearest = min(candidates, key=lambda r: abs(r - rep.backward_y_limit))
        assert nearest == pytest.approx(root_b, abs=1e-9)
    else:
        assert rep.ancient_type is None and rep.backward_y_limit is None
    # theorem table agrees with what the prediction helper claims
    pred = h.predicted_report(rep.regime, es, coeffs)
    assert pred.ancient_exists == anc
    assert rep.forward_outcome is pred.outcome


def test_predicted_report_matrix_rows(fix_d, fix_e, fix_c0):
    es = h.einstein_roots(fix_d)
    pred = h.predicted_report(h.RegimeLabel("d", 2), es, fix_d)
    assert pred.outcome is h.Outcome.SIMULTANEOUS_COLLAPSE
    assert pred.ancient_exists and pred.backward_y_limit == pytest.approx(1.0)
    pred4 = h.predicted_report(h.RegimeLabel("d", 4), es, fix_d)
    assert not pred4.ancient_exists
    assert pred4.forward_y_limit == pytest.approx(2.0)
    es_e = h.einstein_roots(fix_e)
    pe = h.predicted_report(h.RegimeLabel("e", 2, True), es_e, fix_e)
    assert pe.ancient_exists
    assert pe.forward_y_limit == pytest.approx(0.28474956297846959, abs=1e-9)
    es_0 = h.einstein_roots(fix_c0)
    p0 = h.predicted_report(h.RegimeLabel("C0", "below"), es_0, fix_c0)
    assert p0.ancient_type is h.SingularType.TYPE_II
