import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hrflow as h
from hrflow import stepper
from hrflow.errors import DomainError, NonpositiveC, OnEinsteinRoot
from hrflow.flow import IntegrationOptions, MetricState, make_rhs

from oracles import per_cell_csv, scipy_trajectory
from randspaces import (
    random_maximal_space,
    random_nonmaximal_space,
    random_starts,
)

FWD = IntegrationOptions()
BWD = IntegrationOptions(direction=h.Direction.BACKWARD)


def test_rhs_general_one_summand():
    sp = h.make_space("flat1", d=(3,), b=(1,))
    assert h.rhs_general((0.4,), sp) == (-1.0,)
    assert h.rhs_general((7.0,), sp) == (-1.0,)


def test_rhs_general_su42_unit_point(spaces):
    out = h.rhs_general((1.0, 1.0), spaces["SU42"])
    assert out == pytest.approx((-0.8, -0.65), abs=1e-15)


def test_rhs_general_matches_rhs_two(spaces):
    for name in ("SU42", "FIX-A", "FIX-D", "FIX-E", "FIX-C0"):
        sp = spaces[name]
        c = h.derive_coeffs(sp)
        for x1 in (0.3, 1.0, 2.7):
            for x2 in (0.5, 1.0, 4.0):
                g = h.rhs_general((x1, x2), sp)
                t = h.rhs_two(MetricState(0.0, x1, x2), c)
                assert g == pytest.approx(t, rel=1e-14, abs=1e-14)


def test_rhs_two_values(su42, fix_a, fix_d):
    assert h.rhs_two(MetricState(0.0, 1.0, 1.0), su42) == \
        pytest.approx((-0.8, -0.65), abs=1e-15)
    # on a homothety direction both slopes equal the negative decay rates
    assert h.rhs_two(MetricState(0.0, 1.0, 1.0), fix_a) == \
        pytest.approx((-2.0, -2.0), abs=1e-15)
    cd = h.critical_directions(fix_d)
    dx1, _ = h.rhs_two(MetricState(0.0, cd.y_tilde_1, 1.0), fix_d)
    assert dx1 == pytest.approx(0.0, abs=1e-12)


def test_rhs_domain_errors(su42, fix_a, fix_d):
    bad = ((su42, 1.0, -1.0), (su42, -1.0, 1.0), (su42, 0.0, 1.0),
           (fix_d, -1.0, 1.0), (fix_a, 0.0, -0.5))
    for c, x1, x2 in bad:
        for fn in (h.rhs_two, h.first_integral, h.curvature_proxy):
            with pytest.raises(DomainError):
                fn(MetricState(0.0, x1, x2), c)
    with pytest.raises(DomainError):
        h.rhs_general((1.0, 0.0), h.get_space("SU42"))


_COEFFICIENT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 1e308,
                     math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x1=_COEFFICIENT, x2=_COEFFICIENT)
# ratios that underflow to 0 or overflow to inf
@example(x1=1e-300, x2=1e300)
@example(x1=5e-324, x2=2.0)
@example(x1=1e308, x2=1e-10)
def test_a_metric_state_is_on_the_cone_or_refused(x1, x2):
    try:
        state = MetricState(0.0, x1, x2)
    except DomainError:
        assert not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf
                    and 0.0 < x1 / x2 < math.inf)
    else:
        assert 0.0 < state.x1 < math.inf and 0.0 < state.x2 < math.inf
        assert 0.0 < state.y < math.inf


def test_scalar_curvature_su42(su42):
    R = h.scalar_curvature(MetricState(0.0, 1.0, 1.0), su42)
    assert R == pytest.approx(177 / 40, abs=1e-14)


def test_scalar_curvature_vanishes_on_zero_ray(su42):
    ybar = h.scalar_zero_directions(su42).positive_roots[0]
    R = h.scalar_curvature(MetricState(0.0, ybar, 1.0), su42)
    assert abs(R) < 1e-12


def test_scalar_curvature_homothety(su42, fix_d):
    for c in (su42, fix_d):
        base = h.scalar_curvature(MetricState(0.0, 0.7, 1.3), c)
        scaled = h.scalar_curvature(MetricState(0.0, 2.1, 3.9), c)
        assert scaled == pytest.approx(base / 3.0, rel=1e-14)


def test_curvature_proxy_behaviour(su42, fix_d):
    # fiber collapse dominates through the 1/x1 term
    eps = 1e-9
    k = h.curvature_proxy(MetricState(0.0, eps, 1.0), su42)
    assert k == pytest.approx(1.0 / eps, rel=1e-6)
    # homothety scaling
    base = h.curvature_proxy(MetricState(0.0, 0.7, 1.3), fix_d)
    assert h.curvature_proxy(MetricState(0.0, 1.4, 2.6), fix_d) == \
        pytest.approx(base / 2.0, rel=1e-14)
    # linear shrink keeps (T - t) * kappa bounded
    for gap in (1e-2, 1e-4, 1e-6):
        st = MetricState(0.0, 2.0 * gap, 2.0 * gap)
        assert gap * h.curvature_proxy(st, su42) == pytest.approx(
            gap * h.curvature_proxy(MetricState(0.0, 2e-2, 2e-2), su42) * 1e-2 / gap,
            rel=1e-9)


def test_first_integral_closed_form(fix_a):
    for x1, x2 in ((0.3, 1.0), (0.7, 0.9), (2.0, 1.1)):
        st = MetricState(0.0, x1, x2)
        y = x1 / x2
        want = abs(y - 0.5) ** (-2.5) * abs(1.0 - y) ** 2 / x2
        assert h.first_integral(st, fix_a) == pytest.approx(want, rel=1e-13)


#: a start off every Einstein root on each catalog fixture
OFF_ROOT = {"SU42": 1.0, "FIX-A": 0.7, "FIX-B": 0.3, "FIX-C0": 0.8,
            "FIX-D": 1.5, "FIX-E": 0.9, "FIX-E2": 1.2, "FIX-F": 1.0}


def test_first_integral_every_kind_and_refusal(spaces, fix_a):
    # one conserved quantity for both kinds and every case, homogeneous of
    # degree -1 like 1/x2
    for name, y0 in OFF_ROOT.items():
        c = h.derive_coeffs(spaces[name])
        val = h.first_integral(MetricState(0.0, y0, 1.0), c)
        assert type(val) is float and 0.0 < val < math.inf, name
        assert h.first_integral(MetricState(0.0, 4.0 * y0, 4.0), c) == \
            pytest.approx(val / 4.0, rel=1e-12)
    with pytest.raises(OnEinsteinRoot):
        h.first_integral(MetricState(0.0, 0.5 + 1e-12, 1.0), fix_a)


def test_integrate_su42_forward(su42):
    traj = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    assert traj.termination is h.Termination.COLLAPSE_X1
    assert traj.T_estimate is not None
    assert traj.T_estimate <= 40 / 27 + 1e-9
    assert traj.x2[-1] > 0.05
    assert traj.y_monotone_within()
    assert np.all(np.diff(traj.t) > 0)
    assert np.all(traj.x1 > 0) and np.all(traj.x2 > 0)


def test_trajectory_columns_are_read_only(fix_a):
    # the report reads the start from fwd.y[0]; a frozen record must not
    # let it be rewritten behind x1[0]/x2[0]
    fwd = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0))
    with pytest.raises(ValueError):
        fwd.y[0] = 0.3
    for name in ("t", "x1", "x2", "y", "R", "kappa", "first_integral"):
        assert not getattr(fwd, name).flags.writeable, name


def test_integrate_step_halving_t_estimate(su42):
    a = h.integrate(su42, MetricState(0.0, 1.0, 1.0), FWD)
    tight = IntegrationOptions(rel_tol=FWD.rel_tol / 2, abs_tol=FWD.abs_tol / 2)
    b = h.integrate(su42, MetricState(0.0, 1.0, 1.0), tight)
    assert a.T_estimate == pytest.approx(b.T_estimate, rel=1e-6)


def test_integrate_matches_scipy(su42):
    traj = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    sol = scipy_trajectory(su42, (1.0, 1.0), (0.0, float(traj.t[-1])),
                           rtol=1e-11, atol=1e-13)
    mid = traj.t[traj.t <= sol.t[-1]]
    ours = np.stack([traj.x1[: len(mid)], traj.x2[: len(mid)]])
    ref = sol.sol(mid)
    assert np.max(np.abs(ours - ref)) < 1e-7


def test_fixed_direction_run(fix_a):
    traj = h.integrate(fix_a, MetricState(0.0, 2.0, 2.0))
    assert traj.termination is h.Termination.COLLAPSE_BOTH
    assert np.max(np.abs(traj.y - 1.0)) < 1e-8
    assert traj.T_estimate == pytest.approx(1.0, abs=1e-9)
    assert traj.final_rhs == pytest.approx((-2.0, -2.0), abs=1e-9)


def test_backward_run_reaches_horizon(fix_a):
    opts = IntegrationOptions(direction=h.Direction.BACKWARD, max_time=100.0)
    traj = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0), opts)
    assert traj.termination is h.Termination.HORIZON_REACHED
    assert traj.t[-1] == pytest.approx(-100.0, abs=1e-6)
    assert traj.x1[-1] > traj.x1[0] and traj.x2[-1] > traj.x2[0]
    assert traj.y_monotone_within()


def test_backward_field_is_reversed_system(su42, fix_a):
    # negating the forward field reproduces the explicit reversed system
    # x1'(tau) = C + A y^2, x2'(tau) = D - B y
    for c in (su42, fix_a):
        A, B, C, D = (float(c.A), float(c.B), float(c.C), float(c.D))
        for x1, x2 in ((0.4, 1.0), (1.3, 0.7), (2.0, 2.5)):
            d1, d2 = h.rhs_two(MetricState(0.0, x1, x2), c)
            y = x1 / x2
            assert -d1 == pytest.approx(C + A * y * y, rel=1e-15)
            assert -d2 == pytest.approx(D - B * y, rel=1e-15)


def test_backward_forward_round_trip(fix_a):
    opts = IntegrationOptions(direction=h.Direction.BACKWARD, max_time=5.0)
    back = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0), opts)
    end = back.final_state
    # the horizon is in units of the starting x2
    fwd = h.integrate(fix_a, MetricState(0.0, end.x1, end.x2),
                      IntegrationOptions(max_time=5.0 / end.x2))
    i = np.searchsorted(fwd.t, 5.0)
    x1 = np.interp(5.0, fwd.t, fwd.x1)
    x2 = np.interp(5.0, fwd.t, fwd.x2)
    assert (x1, x2) == pytest.approx((0.75, 1.0), rel=1e-7)


def test_first_integral_conserved_along_flow(fix_a):
    traj = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0))
    lam = traj.first_integral
    T = traj.T_estimate
    gap = T - traj.t
    win = np.isfinite(lam) & (gap <= 0.1 * T) & (gap >= 1e-4 * T)
    vals = lam[win]
    assert len(vals) > 20
    assert (vals.max() - vals.min()) / np.median(vals) < 1e-6


def _window_spread(traj):
    """Relative spread of the first integral over acceptance criterion
    04's window 1e-4*T <= T - t <= 1e-1*T, and the largest |y*f2/H| there:
    the factor by which a relative error of y becomes one of the integral,
    since d ln x2/dy = f2/H.  The spread is None on an empty window."""
    lam, T = traj.first_integral, traj.T_estimate
    gap = T - traj.t
    win = np.isfinite(lam) & (gap >= 1e-4 * T) & (gap <= 1e-1 * T)
    if not win.any():
        return None, 0.0
    vals, y = lam[win], traj.y[win]
    f1, f2 = make_rhs(traj.engine.c)(y, np.ones_like(y))
    cond = float(np.max(np.abs(y * f2 / (f1 - y * f2))))
    return float((vals.max() - vals.min()) / np.median(vals)), cond


def test_first_integral_conserved_on_every_case():
    # case b with B = 2, where a formula conserved only for B = 1 drifts
    sp = h.make_space("B2", d=(1, 4), b=(Fraction(19, 2), 6),
                      triple_entries={(1, 2, 2): 8})
    c = h.derive_coeffs(sp)
    assert h.einstein_roots(c).roots == ((0.5, 2),) and c.planar.b1 == 2.0
    for y0 in (0.125, 1.0):
        spread, _ = _window_spread(h.integrate(c, MetricState(0.0, y0, 1.0)))
        assert spread < 1e-6
    for c, es, y0 in random_starts(3, 200):
        init = MetricState(0.0, y0, 1.0)
        lam = h.integrate(c, init, BWD).first_integral
        lam = lam[np.isfinite(lam)]
        assert len(lam) >= 2 and (lam.max() - lam.min()) / lam[0] < 1e-6
        # forward, y nears a simple root so closely inside the window that
        # the stepper's own error in y (rtol 1e-10) dominates: bound the
        # spread by that error, with a margin of 100, times the conditioning
        spread, cond = _window_spread(h.integrate(c, init))
        assert spread is None or spread <= 1e-6 + 1e-8 * cond, (es, y0)


def test_region_invariance_nonmaximal(su42):
    db = float(su42.D) / float(su42.B)
    traj = h.integrate(su42, MetricState(0.0, 4.0, 1.0))
    inside = traj.y < db
    first = int(np.argmax(inside))
    assert inside[first:].all()
    # boundary field: stationary second coordinate, shrinking first
    dx1, dx2 = h.rhs_two(MetricState(0.0, db, 1.0), su42)
    assert dx2 == pytest.approx(0.0, abs=1e-14)
    assert dx1 < 0


def test_region_invariance_maximal(fix_d):
    cd = h.critical_directions(fix_d)
    for y0 in (0.05, 0.3, 1.0, 3.0, 8.0):
        traj = h.integrate(fix_d, MetricState(0.0, y0, 1.0),
                           IntegrationOptions(rel_tol=1e-9))
        inside = (traj.y > cd.y_tilde_1) & (traj.y < cd.y_tilde_2)
        first = int(np.argmax(inside))
        assert inside[first:].all()
        assert traj.termination is h.Termination.COLLAPSE_BOTH
    # inward field on the wedge boundary
    _, dx2 = h.rhs_two(MetricState(0.0, cd.y_tilde_1, 1.0), fix_d)
    assert dx2 < 0  # x1 stationary, x2 falls: ratio rises into the wedge
    dx1, _ = h.rhs_two(MetricState(0.0, cd.y_tilde_2, 1.0), fix_d)
    assert dx1 < 0  # x2 stationary, x1 falls: ratio falls into the wedge


def test_monotone_direction_ratio_random_spaces():
    rng = np.random.default_rng(23)
    for _ in range(6):
        sp = random_nonmaximal_space(rng)
        c = h.derive_coeffs(sp)
        traj = h.integrate(c, MetricState(0.0, float(rng.uniform(0.2, 3.0)), 1.0),
                           IntegrationOptions(rel_tol=1e-9))
        assert traj.y_monotone_within()
    for _ in range(6):
        sp = random_maximal_space(rng)
        c = h.derive_coeffs(sp)
        traj = h.integrate(c, MetricState(0.0, float(rng.uniform(0.2, 3.0)), 1.0),
                           IntegrationOptions(rel_tol=1e-9))
        assert traj.y_monotone_within()


def test_trajectory_csv_format(tmp_path, su42):
    traj = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,y,R,kappa,first_integral"
    assert len(lines) == traj.n_samples + 1
    cells = lines[1].split(",")
    assert float(cells[1]) == traj.x1[0]
    # su42 (case c) has a first integral too
    assert float(cells[6]) == pytest.approx(
        h.first_integral(traj.state(0), su42), rel=1e-15)


def test_csv_rows_match_the_per_cell_writer(tmp_path, spaces):
    # FIX-C0's forward tails and a start on an Einstein direction leave the
    # first integral empty (NaN) in some or all rows
    back = IntegrationOptions(direction=h.Direction.BACKWARD)
    runs = [(h.derive_coeffs(spaces[name]), y0, opts) for name, y0, opts in (
        ("FIX-C0", 0.7, None), ("FIX-A", 1.0, None), ("SU42", 1.0, None),
        ("SU42", 1.0, back), ("FIX-D", 1.5, back))]
    rng = np.random.default_rng(11)
    for i in range(10):
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        runs.append((h.derive_coeffs(draw(rng)), 0.05 + 5 * rng.random(),
                     back if i % 3 == 0 else None))
    empty = 0
    for n, (c, y0, opts) in enumerate(runs):
        traj = h.integrate(c, MetricState(0.0, y0, 1.0), opts)
        path = tmp_path / f"{n}.csv"
        traj.to_csv(path)
        assert path.read_text() == per_cell_csv(traj), n
        empty += int(np.isnan(traj.first_integral).sum())
    assert empty > 0


def test_csv_formats_every_double_as_format_does(tmp_path, su42):
    # signed zeros, subnormals, infinities and raw bit patterns (NaN among
    # them), with NaN first integrals in every other row
    traj = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    n = traj.n_samples
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf,
               -math.inf, 1e308, 0.1, 1 / 3, 2.0 ** 53 + 1]
    bits = np.random.default_rng(5).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, (6, n),
        dtype=np.int64).view(np.float64)
    bits[5, ::2] = math.nan
    odd = dataclasses.replace(
        traj, t=np.resize(special, n), x1=bits[0], x2=bits[1], y=bits[2],
        R=bits[3], kappa=bits[4], first_integral=bits[5])
    odd.to_csv(tmp_path / "odd.csv")
    assert (tmp_path / "odd.csv").read_text() == per_cell_csv(odd)


def test_integrate_guards(su42, monkeypatch):
    for x1, x2 in ((-1.0, -1.0), (1.0, 0.0)):
        with pytest.raises(DomainError):
            h.integrate(su42, MetricState(0.0, x1, x2))
    # a start at the collapse threshold (in units of x2) has collapsed
    # already: its trajectory is the start row, and nothing is stepped
    monkeypatch.setattr(stepper, "run_adaptive", None)
    for x1, x2 in ((1e-9, 1.0), (1e-6, 1e3)):
        for opts in (FWD, BWD):
            traj = h.integrate(su42, MetricState(0.0, x1, x2), opts)
            assert (traj.x1.tolist(), traj.x2.tolist()) == ([x1], [x2])
            assert traj.termination is h.Termination.COLLAPSE_X1


def test_curvature_cells_overflow_without_warning(fix_a, fix_d):
    # evaluated as written, with no warning: a term that overflows gives
    # +-inf, and the non-maximal kappa has no x2/x1^2 term to make it NaN
    one_step = IntegrationOptions(max_steps=1)

    def start_cells(c, y0):
        traj = h.integrate(c, MetricState(0.0, y0, 1.0), one_step)
        assert not np.isnan(traj.R).any() and not np.isnan(traj.kappa).any()
        return traj.R[0], traj.kappa[0]

    R, kappa = start_cells(fix_a, 1e-300)
    assert R == pytest.approx(1e300) and kappa == pytest.approx(1e300)
    assert start_cells(fix_d, 1e-300) == (-math.inf, math.inf)
    assert start_cells(fix_a, 1e200)[0] == -math.inf


def test_norm_guard_ends_a_runaway_field():
    raw = stepper.run_adaptive(lambda a, b: (a, b), (1.0, 1.0), 100.0,
                               rtol=1e-8, atol=1e-10, eps=1e-8,
                               max_steps=100_000)
    # the last state is the one before the step that crosses the guard
    assert raw.status == "runaway"
    assert 1e10 < max(raw.x1[-1], raw.x2[-1]) <= stepper.NORM_GUARD


def test_backward_runaway_is_an_ending(t285):
    # case f with a_inf < 0: backward, y runs to infinity and x1 with it in
    # finite time
    c = h.derive_coeffs(t285)
    init = MetricState(0.0, 0.23869060412924192, 1.0)
    bwd = h.integrate(c, init, BWD)
    assert bwd.termination is h.Termination.RUNAWAY
    assert bwd.T_estimate is None and bwd.x1[-1] > 1e11
    rep = h.classify_trajectory(h.integrate(c, init), bwd)
    assert rep.ancient_exists is False


def test_every_sample_is_a_valid_state(fix_a, t285):
    # a collapse leaves its last sample at the threshold, a runaway at the
    # norm guard; both are still on the open cone
    runaway = h.derive_coeffs(t285)
    for c, y0, opts in ((fix_a, 0.75, FWD), (fix_a, 0.75, BWD),
                        (runaway, 0.23869060412924192, BWD)):
        traj = h.integrate(c, MetricState(0.0, y0, 1.0), opts)
        for i in range(traj.n_samples):
            state = traj.state(i)
            assert (state.x1, state.x2) == (traj.x1[i], traj.x2[i])
    assert traj.termination is h.Termination.RUNAWAY


def test_steep_backward_collapse_still_terminates():
    # second summand much larger than the first makes the reversed flow
    # inflate x1 steeply while x2 races to zero; the collapse event must
    # still be detected in finite time
    sp = h.make_space("steep", d=(1, 8), b=(4.0, 1.0),
                      triple_entries={(1, 2, 2): 4.0})
    c = h.derive_coeffs(sp)
    traj = h.integrate(c, MetricState(0.0, 3.0, 1.0),
                       IntegrationOptions(direction=h.Direction.BACKWARD,
                                          max_time=1e6))
    assert traj.termination is h.Termination.COLLAPSE_X2
    assert traj.x1[-1] < 1e12


def test_irreducible_flow_unit_case():
    rec = h.irreducible_flow(b=1.0, d=3, t111=0.0, x0=1.0)
    assert rec.C == 1.0 and rec.T == 1.0
    assert rec.value(0.5) == 0.5
    assert rec.value(-2.0) == 3.0
    with pytest.raises(DomainError):
        rec.value(1.0)


def test_irreducible_flow_round_sphere():
    n = 4
    sp = h.sphere(n)
    rec = h.irreducible_flow(b=float(sp.b[0]), d=sp.d[0],
                             t111=float(sp.t(1, 1, 1)), x0=1.0)
    # unit round metric shrinks with factor 1 - 2(n-1)t
    for t in (-1.0, 0.0, 0.1):
        assert rec.value(t) == pytest.approx(1 - 2 * (n - 1) * t, rel=1e-15)
    assert rec.T == pytest.approx(1 / (2 * (n - 1)))
    assert rec.singular_type == "TypeI" and rec.ancient_type == "TypeI"


def test_irreducible_flow_rejects_nonpositive_rate():
    with pytest.raises(NonpositiveC):
        h.irreducible_flow(b=1.0, d=2, t111=4.0, x0=1.0)


def test_simultaneous_collapse_label_maximal(fix_d):
    for y0 in (0.75, 1.5, 3.0):
        traj = h.integrate(fix_d, MetricState(0.0, y0, 1.0))
        assert traj.termination is h.Termination.COLLAPSE_BOTH


def test_options_validation():
    with pytest.raises(ValueError):
        IntegrationOptions(rel_tol=2.0)
    with pytest.raises(ValueError):
        IntegrationOptions(collapse_epsilon=-1.0)
    for bad in (dict(max_time=math.inf), dict(max_time=-1.0),
                dict(max_time=0.0), dict(max_time=math.nan),
                dict(max_steps=0), dict(max_steps=-3)):
        with pytest.raises(ValueError):
            IntegrationOptions(**bad)


def test_linear_vanishing_fit(su42, fix_d):
    # the coefficient that collapses goes to zero linearly: a straight-line
    # fit over the final decade reproduces it to well under one percent
    for c, y0 in ((su42, 1.0), (fix_d, 0.75)):
        traj = h.integrate(c, MetricState(0.0, y0, 1.0))
        xv = traj.x1 if traj.x1[-1] <= traj.x2[-1] else traj.x2
        win = (xv > 0) & (xv <= xv[-1] * 10)
        assert win.sum() >= 8
        k, b = np.polyfit(traj.t[win], xv[win], 1)
        fitted = k * traj.t[win] + b
        rel = np.abs(fitted - xv[win]) / xv[win]
        assert float(rel.max()) < 0.01


def test_backward_time_stamps_decrease(fix_a):
    traj = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0),
                       IntegrationOptions(direction=h.Direction.BACKWARD,
                                          max_time=10.0))
    assert np.all(np.diff(traj.t) < 0)


def test_field_parallel_on_einstein_ray(fix_a, fix_d):
    # on a homothety direction the ratio is stationary: x2*dx1 = x1*dx2
    for c, roots in ((fix_a, (0.5, 1.0)), (fix_d, (0.5, 1.0, 2.0))):
        for r in roots:
            for x2 in (0.5, 1.0, 3.0):
                st = MetricState(0.0, r * x2, x2)
                d1, d2 = h.rhs_two(st, c)
                assert st.x2 * d1 - st.x1 * d2 == pytest.approx(0.0, abs=1e-9)
