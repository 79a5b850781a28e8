"""Independent references for the benchmark's value checks.

Both run outside the timed section.  Neither uses ``hrflow.flow``: the
vector field and the scalar curvature are written here from the coefficient
records, ``NonMaxCoeffs`` (A, B, C, D) and ``MaxCoeffs`` (A1..C2).

- ``T_estimate`` is compared with scipy's DOP853 integration to a collapse
  event far below hrflow's threshold, extrapolated linearly to zero.
- Portrait rows are compared with exact ``Fraction`` arithmetic at the very
  floating-point grid point the program evaluated.
"""

from __future__ import annotations

from fractions import Fraction

from hrflow.spaces import NonMaxCoeffs

#: collapse threshold of the reference integration (hrflow defaults to 1e-8)
REF_EPS = 1e-10
#: largest relative deviation of T_estimate accepted as correct
T_TOL = 1e-6
#: largest deviation of dx1, dx2 accepted as correct, relative to the sum of
#: the magnitudes of each component's terms (safe under cancellation)
FIELD_TOL = 1e-12


def _field(c):
    """(x1, x2) -> (x1', x2') written from the coefficient record."""
    if isinstance(c, NonMaxCoeffs):
        A, B, C, D = (float(v) for v in (c.A, c.B, c.C, c.D))

        def f(x1, x2):
            y = x1 / x2
            return -C - A * y * y, -D + B * y
        return f
    A1, B1, C1, A2, B2, C2 = (float(v) for v in
                              (c.A1, c.B1, c.C1, c.A2, c.B2, c.C2))

    def g(x1, x2):
        y = x1 / x2
        return -A1 + B1 / y - C1 * y * y, -A2 + B2 * y - C2 / (y * y)
    return g


def singular_time(c, y0: float) -> float:
    """Forward singular time from (x1, x2) = (y0, 1) by scipy."""
    from scipy.integrate import solve_ivp

    f = _field(c)

    def collapse(t, u):
        return min(u[0], u[1]) - REF_EPS
    collapse.terminal = True
    collapse.direction = -1

    sol = solve_ivp(lambda t, u: f(u[0], u[1]), (0.0, 1e4), [y0, 1.0],
                    method="DOP853", rtol=1e-13, atol=1e-20,
                    events=collapse)
    if not sol.t_events[0].size:
        raise RuntimeError(f"reference run from y0 = {y0} did not collapse")
    t_ev = float(sol.t_events[0][0])
    u = sol.y_events[0][0]
    k = 0 if u[0] <= u[1] else 1
    return t_ev + u[k] / -f(u[0], u[1])[k]


def _exact_terms(c, x1: float, x2: float):
    """Exact (dx1 terms, dx2 terms, R terms) at a floating-point point."""
    X1, X2 = Fraction(x1), Fraction(x2)
    y = X1 / X2
    d1, d2 = c.d1, c.d2
    if isinstance(c, NonMaxCoeffs):
        A, B, C, D = (Fraction(v) for v in (c.A, c.B, c.C, c.D))
        return ((-C, -A * y * y), (-D, B * y),
                (C * d1 / 2 / X1, D * d2 / 2 * y / X1,
                 -A * d1 / 2 * y * y / X1))
    A1, B1, C1, A2, B2, C2 = (Fraction(v) for v in
                              (c.A1, c.B1, c.C1, c.A2, c.B2, c.C2))
    return ((-A1, B1 / y, -C1 * y * y), (-A2, B2 * y, -C2 / (y * y)),
            (A1 * d1 / 2 / X1, A2 * d2 / 2 / X2,
             -B1 * d1 / 4 * X2 / (X1 * X1), -B2 * d2 / 4 * X1 / (X2 * X2)))


def field_deviation(c, x1, x2, dx1, dx2, r_sign: str) -> tuple[float, bool]:
    """Largest scaled deviation of (dx1, dx2) from the exact field, and
    whether the printed sign of R agrees with the exact one.  A sign is only
    judged where |R| exceeds rounding of its terms."""
    t1, t2, tr = _exact_terms(c, x1, x2)
    dev = 0.0
    for got, terms in ((dx1, t1), (dx2, t2)):
        scale = sum(abs(t) for t in terms)
        dev = max(dev, float(abs(Fraction(got) - sum(terms)) / scale))
    R = sum(tr)
    if abs(R) <= 1e-12 * sum(abs(t) for t in tr):
        return dev, True
    return dev, r_sign == ("+" if R > 0 else "-")
