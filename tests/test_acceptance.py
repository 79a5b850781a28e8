"""Acceptance gate: every numbered criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines even when
everything passes.  The overall flow scale of an initial-condition family is
free (the flow is scale-equivariant), so dimensional thresholds are checked
at the documented scale of each run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import hrflow as h
from hrflow.flow import IntegrationOptions, MetricState

from oracles import max_cubic, max_cubic_bound, nonmax_quadratic, sweep_roots
from randspaces import random_maximal_space, random_nonmaximal_space


def _line(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _pair(coeffs, y0, scale=1.0, horizon=1e3, **kw):
    init = MetricState(0.0, y0 * scale, scale)
    fwd = h.integrate(coeffs, init, IntegrationOptions(**kw))
    bwd = h.integrate(coeffs, init, IntegrationOptions(
        direction=h.Direction.BACKWARD, max_time=horizon, **kw))
    return fwd, bwd


def test_criterion_01_su42_nonexistence_exact(spaces):
    su = spaces["SU42"]
    h.derive_coeffs(su)  # warm-up outside the timed region
    elapsed = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        c = h.derive_coeffs(su)
        disc = c.D * c.D - 4 * c.C * (c.A + c.B)
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = (
        (c.A, c.B, c.C, c.D) == (Fraction(1, 8), Fraction(7, 20),
                                 Fraction(27, 40), Fraction(1))
        and disc == Fraction(-113, 400)
        and disc < 0
        and h.einstein_roots(c).case_label == "c"
        and elapsed < 1e-3
    )
    _line(1, ok, f"exact rational coefficients and negative discriminant "
                 f"({elapsed * 1e6:.0f} us)")


def test_criterion_02_su42_dynamics(su42):
    scale = 20.0
    t0 = time.perf_counter()
    failures = []
    for y0 in np.geomspace(0.05, 20.0, 20):
        fwd, bwd = _pair(su42, float(y0), scale=scale, horizon=1e5)
        rep = h.classify_trajectory(fwd, bwd)
        checks = {
            "fwd CollapseX1": fwd.termination is h.Termination.COLLAPSE_X1,
            "x2(T) > 0.1": float(fwd.x2[-1]) > 0.1,
            "y decreasing": bool(np.all(np.diff(fwd.y) <= 1e-12)),
            "type I": rep.singular_type is h.SingularType.TYPE_I,
            "bwd CollapseX2": bwd.termination is h.Termination.COLLAPSE_X2,
            "no ancient": rep.ancient_exists is False,
        }
        # (T - t) * kappa flat over the final two decades
        gap = fwd.T_estimate - fwd.t
        win = (gap > 0) & (gap <= gap[-1] * 100)
        q = gap[win] * fwd.kappa[win]
        checks["(T-t)kappa within 10%"] = bool(q.max() / q.min() <= 1.10)
        bad = [k for k, v in checks.items() if not v]
        if bad:
            failures.append((float(y0), bad))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _line(2, ok, f"20 initial ratios in [0.05, 20] at scale {scale:g}: fiber "
                 f"collapse, type I, no ancient ({elapsed:.2f} s) "
                 f"{failures if failures else ''}")


def test_criterion_03_fixed_directions(fix_a):
    ok = True
    notes = []
    for root, k_want in ((0.5, (1.25, 2.5)), (1.0, (2.0, 2.0))):
        traj = h.integrate(fix_a, MetricState(0.0, 2.0 * root, 2.0))
        drift = float(np.max(np.abs(traj.y - root)))
        slopes = (-traj.final_rhs[0], -traj.final_rhs[1])
        # independent check: straight-line fit of the vanishing coefficients
        fit1 = -np.polyfit(traj.t[-40:], traj.x1[-40:], 1)[0]
        fit2 = -np.polyfit(traj.t[-40:], traj.x2[-40:], 1)[0]
        gap = traj.T_estimate - traj.t
        win = (gap > 0) & (gap <= gap[-1] * 10)
        q = gap[win] * traj.R[win]
        n_half = (fix_a.d1 + fix_a.d2) / 2
        ok_here = (
            drift <= 1e-8
            and abs(slopes[0] - k_want[0]) <= 1e-6
            and abs(slopes[1] - k_want[1]) <= 1e-6
            and abs(fit1 - k_want[0]) <= 1e-6
            and abs(fit2 - k_want[1]) <= 1e-6
            and bool(np.all(np.abs(q / n_half - 1.0) < 0.01))
        )
        ok = ok and ok_here
        notes.append(f"y={root}: drift {drift:.1e}, slopes "
                     f"({slopes[0]:.8f}, {slopes[1]:.8f})")
    _line(3, ok, "; ".join(notes))


def test_criterion_04_first_integral_conservation(fix_a, fix_b):
    ok = True
    notes = []
    runs = [(fix_a, 0.75, "two-direction"), (fix_a, 0.25, "two-direction"),
            (fix_b, 1.0, "double-direction"), (fix_b, 0.25, "double-direction")]
    for coeffs, y0, label in runs:
        traj = h.integrate(coeffs, MetricState(0.0, y0, 1.0))
        lam = traj.first_integral
        gap = traj.T_estimate - traj.t
        win = np.isfinite(lam) & (gap >= 1e-4 * traj.T_estimate) \
            & (gap <= 1e-1 * traj.T_estimate)
        vals = lam[win]
        spread = float((vals.max() - vals.min()) / np.median(vals))
        ok = ok and len(vals) >= 20 and spread < 1e-6
        notes.append(f"{label} y0={y0}: rel spread {spread:.1e}")
    _line(4, ok, "; ".join(notes))


def test_criterion_05_connecting_orbit(fix_a):
    fwd, bwd = _pair(fix_a, 0.75, horizon=1e3)
    rep = h.classify_trajectory(fwd, bwd)
    err_f = abs(rep.forward_y_limit - 1.0)
    err_b = abs(rep.backward_y_limit - 0.5)
    ok = (
        err_f <= 1e-3 and err_b <= 1e-3
        and rep.ancient_exists is True
        and rep.ancient_type is h.SingularType.TYPE_I
    )
    _line(5, ok, f"forward limit err {err_f:.1e}, backward limit err "
                 f"{err_b:.1e}, ancient type I")


def test_criterion_06_c0_type_two(fix_c0):
    fwd, bwd = _pair(fix_c0, 0.75, horizon=1e3)
    rep = h.classify_trajectory(fwd, bwd)
    el = bwd.elapsed
    win = el >= el[-1] / 100.0
    q = el[win] * bwd.kappa[win]
    growth = float(q[-1] / q[0])
    # local growth exponent of each coefficient over the same window
    A = float(fix_c0.A)
    expo1 = A * bwd.y[win] ** 2 * el[win] / bwd.x1[win]
    slope2 = float(np.polyfit(np.log(el[win]), np.log(bwd.x2[win]), 1)[0])
    ok = (
        rep.ancient_exists is True
        and rep.ancient_type is h.SingularType.TYPE_II
        and growth > 10.0
        and bool(np.all(np.abs(expo1) <= 0.1))
        and abs(slope2 - 1.0) <= 0.05
    )
    _line(6, ok, f"|t|*kappa grew {growth:.0f}x over two decades; coefficient "
                 f"exponents {float(np.max(np.abs(expo1))):.3f} and "
                 f"{slope2:.3f}")


MATRIX = [
    # space, y0, regime, forward root, ancient?, backward root
    ("FIX-D", 0.25, "d1", 0.5, False, None),
    ("FIX-D", 0.75, "d2", 0.5, True, 1.0),
    ("FIX-D", 1.50, "d3", 2.0, True, 1.0),
    ("FIX-D", 3.00, "d4", 2.0, False, None),
    ("FIX-E", 0.15, "e1", 0.28474956297846959, False, None),
    ("FIX-E", 0.80, "e2", 0.28474956297846959, True, 1.6076252185107651),
    ("FIX-E", 2.50, "e3", 1.6076252185107651, False, None),
    ("FIX-F", 0.50, "f", 2.3836728704309826, False, None),
    ("FIX-F", 4.00, "f", 2.3836728704309826, False, None),
]


def test_criterion_07_maximal_matrix(spaces):
    failures = []
    for name, y0, regime, root_f, anc, root_b in MATRIX:
        c = h.derive_coeffs(spaces[name])
        es = h.einstein_roots(c)
        fwd, bwd = _pair(c, y0)
        rep = h.classify_trajectory(fwd, bwd)
        checks = {
            "regime": str(rep.regime) == regime,
            "outcome": rep.forward_outcome is h.Outcome.SIMULTANEOUS_COLLAPSE,
            "type I": rep.singular_type is h.SingularType.TYPE_I,
            "ancient": rep.ancient_exists is anc,
        }
        nearest_f = min(es.values, key=lambda r: abs(r - rep.forward_y_limit))
        checks["forward root"] = abs(nearest_f - root_f) < 1e-9
        if anc:
            checks["ancient type I"] = rep.ancient_type is h.SingularType.TYPE_I
            nearest_b = min(es.values,
                            key=lambda r: abs(r - rep.backward_y_limit))
            checks["backward root"] = abs(nearest_b - root_b) < 1e-9
        bad = [k for k, v in checks.items() if not v]
        if bad:
            failures.append((name, y0, bad))
    _line(7, not failures,
          f"{len(MATRIX)} subcase runs against the outcome table "
          f"{failures if failures else ''}")


def test_criterion_08_invariant_regions_and_scalar_sign():
    rng = np.random.default_rng(2024)
    fast = dict(rel_tol=1e-8, abs_tol=1e-12)
    failures = []
    for idx in range(100):
        nonmax = idx < 50
        sp = (random_nonmaximal_space(rng, f"NM{idx}") if nonmax
              else random_maximal_space(rng, f"MX{idx}"))
        c = h.derive_coeffs(sp)
        sz = h.scalar_zero_directions(c)
        y0 = 1.5 * max(sz.positive_roots)
        traj = h.integrate(c, MetricState(0.0, y0, 1.0),
                           IntegrationOptions(**fast))
        if nonmax:
            inside = traj.y < float(c.D) / float(c.B)
        else:
            cd = h.critical_directions(c)
            inside = (traj.y > cd.y_tilde_1) & (traj.y < cd.y_tilde_2)
        first = int(np.argmax(inside)) if inside.any() else None
        stays = first is not None and bool(inside[first:].all())
        flips = np.nonzero(traj.R > 0)[0]
        sign_ok = (
            traj.R[0] < 0
            and len(flips) > 0
            and flips[0] < traj.n_samples - 1
            and bool(np.all(traj.R[flips[0]:] > 0))
        )
        if not (stays and sign_ok):
            failures.append((sp.name, stays, sign_ok))
    _line(8, not failures,
          f"100 random spaces: invariant regions kept and negative scalar "
          f"curvature flipped {failures[:3] if failures else ''}")


def test_criterion_09_root_solver_oracle():
    rng = np.random.default_rng(4096)
    bad = 0
    for _ in range(200):
        c = h.derive_coeffs(random_nonmaximal_space(rng))
        es = h.einstein_roots(c)
        hi = (float(c.D) + 1.0) / (float(c.A) + float(c.B)) + 1.0
        got = [r for r in sweep_roots(nonmax_quadratic(c), 0.0, hi)
               if r > 1e-9]  # y = 0 is not a direction
        if len(got) != len(es.values) or any(
                abs(a - b) > 1e-9 for a, b in zip(sorted(es.values), got)):
            bad += 1
    for _ in range(200):
        c = h.derive_coeffs(random_maximal_space(rng))
        es = h.einstein_roots(c)
        got = sweep_roots(max_cubic(c), 0.0, max_cubic_bound(c))
        neg = sweep_roots(max_cubic(c), -max_cubic_bound(c), -1e-12)
        if (len(es.values) < 1 or any(v <= 0 for v in es.values) or neg
                or len(got) != len(es.values) or any(
                    abs(a - b) > 1e-9
                    for a, b in zip(sorted(es.values), got))):
            bad += 1
    _line(9, bad == 0, f"400 random coefficient sets against the bisection "
                       f"sweep ({bad} mismatches)")


def test_criterion_10_blowup_limits(fix_a, su42):
    fwd = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0))
    rep = h.classify_trajectory(fwd, None)
    lim = h.soliton_limit(fwd)
    err = abs(lim.ratio - rep.forward_y_limit)
    fsu = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    lim2 = h.soliton_limit(fsu)
    ok = (
        lim.kind == "EinsteinPoint" and err <= 1e-3
        and lim2.kind == "RigidProduct" and lim2.flat_dim == 5
    )
    _line(10, ok, f"shrink limit ratio err {err:.1e}; fiber collapse gives "
                  f"flat factor of dimension {lim2.flat_dim}")
