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
