"""Independent oracles: dumb, slow routes to the same answers.

These deliberately avoid the package's solvers so that agreement is
evidence, not tautology: roots come from a uniform sign-change sweep with
pure bisection, nonlinear systems from scipy, trajectories from scipy's
general-purpose integrator.  A trajectory's CSV text comes from a writer
that formats one cell at a time.
"""

from __future__ import annotations

import math

import numpy as np


def sweep_roots(f, lo: float, hi: float, n: int = 4000,
                xtol: float = 1e-12) -> list[float]:
    """All simple roots of f on [lo, hi] by grid scan plus pure bisection."""
    xs = np.linspace(lo, hi, n + 1)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(n):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            for _ in range(200):
                m = 0.5 * (a + b)
                if b - a <= xtol * (1.0 + abs(m)):
                    break
                fm = f(m)
                if fm == 0.0:
                    a = b = m
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def nonmax_quadratic(c):
    A, B, C, D = float(c.A), float(c.B), float(c.C), float(c.D)
    return lambda y: C - D * y + (A + B) * y * y


def max_cubic(c):
    B2C1 = float(c.B2) + float(c.C1)
    A2, A1 = float(c.A2), float(c.A1)
    B1C2 = float(c.B1) + float(c.C2)
    return lambda y: -B2C1 * y ** 3 + A2 * y * y - A1 * y + B1C2


def max_cubic_bound(c) -> float:
    return 1.0 + (abs(float(c.A2)) + abs(float(c.A1)) + float(c.B1)
                  + float(c.C2)) / (float(c.B2) + float(c.C1))


def solve_shrink_system(c, y_guess: float) -> tuple[float, float]:
    """Positive (k1, k2) of the shrink-rate system via scipy, from scratch."""
    from scipy.optimize import fsolve

    A, B, C, D = float(c.A), float(c.B), float(c.C), float(c.D)

    def eqs(k):
        k1, k2 = k
        return (C / k1 + A * k1 / (k2 * k2) - 1.0,
                D / k2 - B * k1 / (k2 * k2) - 1.0)

    k0 = (max(y_guess, 0.1), 1.0)
    sol = fsolve(eqs, k0, full_output=False, xtol=1e-13)
    return float(sol[0]), float(sol[1])


def scipy_trajectory(coeffs, x0: tuple[float, float], t_span, rtol, atol):
    """Reference forward path from scipy's adaptive integrator."""
    from scipy.integrate import solve_ivp

    from hrflow.flow import make_rhs

    f = make_rhs(coeffs)
    sol = solve_ivp(lambda t, u: f(u[0], u[1]), t_span, list(x0),
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    return sol


def dop853_singular_time(coeffs, y0: float, eps: float = 1e-12) -> float:
    """Forward singular time from (x1, x2) = (y0, 1) by scipy's DOP853,
    integrated to a collapse threshold far below hrflow's and extrapolated
    linearly to zero.  rtol 1e-13 places some events badly (errors up to
    2e-9 seen); 3e-14, just above scipy's floor, does not."""
    from scipy.integrate import solve_ivp

    from hrflow.flow import make_rhs

    f = make_rhs(coeffs)

    def collapse(t, u):
        return min(u[0], u[1]) - eps
    collapse.terminal = True
    collapse.direction = -1

    sol = solve_ivp(lambda t, u: f(u[0], u[1]), (0.0, 1e6), [y0, 1.0],
                    method="DOP853", rtol=3e-14, atol=1e-22,
                    events=collapse)
    t_ev = float(sol.t_events[0][0])
    u = sol.y_events[0][0]
    k = 0 if u[0] <= u[1] else 1
    return t_ev + u[k] / -f(u[0], u[1])[k]


def log_distance_singular_time(coeffs, es, y0: float) -> float:
    """Forward singular time from (x1, x2) = (y0, 1) by scipy's DOP853 in
    u = -ln|y - y*|, closed with the analytic tail of the last stretch.

    Along y, d ln x2/dy = f2/H and dt/dy = x2/H with H = f1 - y*f2.  The
    end y* is the first Einstein root, or 0, in the direction sign H(y0)
    moves y.  With d = |y - y*| = exp(-u) and s = sign(y0 - y*) the system
    reads d ln x2/du = -s*d*f2/H and dt/du = x2*d/|H|, integrated from
    d = |y0 - y*| down to d = 1e-13 * (1 + y*).  H comes from yH, a cubic,
    re-expanded about y* with the terms below the root's multiplicity set
    to zero, so no distance to y* is ever formed by cancellation.  The
    integrand decays like exp(-lam*u) at the end, with lam its own
    logarithmic slope there, so the tail beyond is g/lam.
    """
    from scipy.integrate import solve_ivp

    from hrflow.flow import make_rhs

    f = make_rhs(coeffs)
    p = coeffs.planar
    yH = np.array([-(p.a2 + p.b1), p.b0, -p.a0, p.am1 + p.bm2])

    def H_of(y):
        f1, f2 = f(y, 1.0)
        return f1 - y * f2

    rising = H_of(y0) > 0.0
    ahead = [(r, m) for r, m in es.roots if (r > y0 if rising else r < y0)]
    y_star, mult = (min(ahead) if rising else max(ahead)) if ahead \
        else (0.0, 0)
    s = 1.0 if y0 > y_star else -1.0
    # Taylor coefficients of yH about y*, lowest degree first
    shifted = [np.polyval(np.polyder(yH, k), y_star) / math.factorial(k)
               for k in range(4)]
    shifted[:mult] = [0.0] * mult

    def H_and_slope(d):
        y = y_star + s * d
        delta = s * d
        yh = sum(c * delta ** k for k, c in enumerate(shifted))
        dyh = sum(k * c * delta ** (k - 1) for k, c in enumerate(shifted)
                  if k)
        return y, yh / y, (dyh - yh / y) / y

    def rhs(u, v):
        d = math.exp(-u)
        y, H, _ = H_and_slope(d)
        f2 = f(y, 1.0)[1]
        return [-s * d * f2 / H, math.exp(v[0]) * d / abs(H)]

    u0 = -math.log(abs(y0 - y_star))
    u1 = -math.log(1e-13 * (1.0 + y_star))
    sol = solve_ivp(rhs, (u0, u1), [0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-15)
    if not sol.success:
        raise RuntimeError(sol.message)
    ln_x2, t = sol.y[:, -1]
    d = math.exp(-u1)
    y, H, dH = H_and_slope(d)
    f2 = f(y, 1.0)[1]
    g = math.exp(ln_x2) * d / abs(H)
    lam = s * d * f2 / H + 1.0 - s * d * dH / H
    return t + g / lam


def per_cell_csv(traj) -> str:
    """The CSV text of a trajectory with every cell formatted on its own
    by format(v, ".17g"), and an empty first-integral cell where it is
    NaN: the row-at-a-time writer that ``Trajectory.to_csv`` replaced."""
    lines = [traj.CSV_HEADER + "\n"]
    for *row, lam in zip(traj.t.tolist(), traj.x1.tolist(),
                         traj.x2.tolist(), traj.y.tolist(),
                         traj.R.tolist(), traj.kappa.tolist(),
                         traj.first_integral.tolist()):
        cells = [format(v, ".17g") for v in row]
        cells.append("" if math.isnan(lam) else format(lam, ".17g"))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def per_start_verdicts(engine, y0s) -> dict:
    """Every verdict of ``YFlow.forward_end`` and ``YFlow.run`` decided
    start by start from the engine's points ``z``, orders ``h`` and
    coefficients ``a``, ``b`` and ``a_inf``: the per-start formulas the
    engine used before it decided each interval once per space."""
    y0 = np.asarray(y0s, dtype=float).ravel()
    z, h, a, b = engine.z, engine.h, engine.a, engine.b
    below, on = engine.es.locate(y0)
    # H < 0 for large y and changes sign at each root of odd order, so it
    # is positive where an odd number of them lie above y0
    odd_above = np.cumsum((h[:0:-1] % 2 == 1))[::-1]
    rising = np.append(odd_above, 0)[below] % 2 == 1
    fixed = on >= 0
    fwd = np.where(fixed, on + 1, below + rising)
    move = np.where(fixed, 0, np.where(rising, 1, -1))
    x2_vanishes = np.where(b[fwd] != 0.0, b[fwd] * move < 0.0, a[fwd] > 0.0)
    shrinks = fixed | ((z[fwd] > 0.0) & x2_vanishes)

    n_pts = len(z)
    bwd = fwd - move
    zf = z[fwd]
    finite_b = bwd < n_pts
    jb = np.minimum(bwd, n_pts - 1)
    diverges = np.where(b[jb] != 0.0, b[jb] * move < 0.0,
                        a[jb] - h[jb] <= -1.0)
    ancient = fixed | np.where(finite_b, diverges, engine.a_inf >= 1.0)
    y_bwd = np.where(finite_b, z[jb], math.inf)
    return {
        "fwd": fwd, "move": move, "shrinks": shrinks, "y_forward": zf,
        "type_one": fixed | (zf > 0.0) | (h[fwd] == 0),
        "ancient": ancient,
        "ancient_type_one": ancient & finite_b & (y_bwd > 0.0),
        "y_backward": y_bwd,
    }


def per_start_sweep_rows(engine, y0s: list[float], chunk: int) -> list[str]:
    """The rows of ``hrflow sweep`` over ``y0s``, index included, each
    built on its own: the verdicts from ``YFlow.run`` on the starts in
    batches of ``chunk`` as the command runs them, the regime from
    ``regime_of`` (a start on an Einstein direction gives a ``fixed`` row),
    the match from ``predicted_report`` and every number from
    format(v, ".17g")."""
    from hrflow.classify import predicted_report, regime_of
    from hrflow.errors import OnEinsteinRoot

    def fmt(v):
        return format(float(v), ".17g")

    def near(got, want):
        if got is None or want is None:
            return got is want
        return abs(got - want) <= 1e-2 * (1 + abs(want))

    shrink = ("SimultaneousCollapse" if engine.c.planar.maximal
              else "ShrinkToPoint")
    rows = []
    for lo in range(0, len(y0s), chunk):
        ends = engine.run(y0s[lo:lo + chunk])
        for i, y0 in enumerate(y0s[lo:lo + chunk]):
            try:
                regime = regime_of(engine.c, engine.es, None, y0)
            except OnEinsteinRoot:
                rows.append(f"{lo + i},{fmt(y0)},fixed" + "," * 7)
                continue
            outcome = shrink if ends.shrinks[i] else "FiberCollapse"
            ancient = bool(ends.ancient[i])
            kind = ("TypeI" if ends.ancient_type_one[i] else "TypeII") \
                if ancient else ""
            y_fwd = float(ends.y_forward[i])
            y_bwd = float(ends.y_backward[i]) if ancient else None
            pred = predicted_report(regime, engine.es, engine.c)
            matches = (outcome == pred.outcome.value
                       and near(y_fwd, pred.forward_y_limit)
                       and ancient == pred.ancient_exists
                       and kind == ("" if pred.ancient_type is None
                                    else pred.ancient_type.value)
                       and near(y_bwd, pred.backward_y_limit))
            rows.append(",".join([
                str(lo + i), fmt(y0), str(regime), outcome, fmt(ends.T[i]),
                str(ancient), kind, fmt(y_fwd),
                "" if y_bwd is None else fmt(y_bwd), str(matches)]))
    return rows
