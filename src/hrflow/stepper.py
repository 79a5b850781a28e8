"""Adaptive embedded Runge-Kutta driver for planar positive-cone systems.

A Dormand-Prince 5(4) pair propagates the fifth-order solution with the
embedded fourth-order error estimate.  The state is a pair of floats and the
right-hand side a plain callable returning a pair.  For a planar system the
interpreter's overhead, not the arithmetic, sets the cost of a step, so the
whole step (step ceiling, six stages, positivity checks, error test and
step-size update) is written out in the one loop of ``run_adaptive``: no
helper call, tuple or exception per stage.  Only the field itself is called.

Termination events (a coordinate reaching the collapse threshold) are
localised by bisection on a cubic Hermite interpolant of the accepted step.
Steps that would leave the positive cone are rejected and halved, and the
step length is capped so that a shrinking coordinate loses only a bounded
fraction per step; that guarantees sample coverage of the vanishing tail.
A NaN error estimate (a field that returned NaN inside the cone) raises
``DomainError`` instead of passing for an accepted step; a NaN endpoint
passes the cone check but makes the last stage, and so the estimate, NaN.
A state whose norm would cross ``NORM_GUARD`` ends the run with status
"runaway": a coefficient running off to infinity is an ending of the flow,
not an error.
``RawRun`` counts the branches a run took: steps rejected by the error test,
steps halved for leaving the cone, and whether it ended on a step size
stagnated at the resolution of s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: guard on the state norm; an accepted step that would cross it ends the
#: run before that step
NORM_GUARD = 1e12

#: event time localisation width
EVENT_TIME_TOL = 1e-10

#: fraction of a shrinking coordinate a single step may remove; keeps the
#: sampled tail dense in decades of the distance to the singular time
#: (0.15 yields about fourteen samples per decade)
APPROACH_FACTOR = 0.15

#: the step ceiling grows with elapsed time at this rate, bounding the
#: sample spacing per decade
STEP_GROWTH_CAP = 0.1

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


@dataclass
class RawRun:
    """Integrator output in the internal nonnegative time variable s."""

    s: list[float]
    x1: list[float]
    x2: list[float]
    status: str  # "event" | "horizon" | "step_limit" | "runaway"
    final_rhs: tuple[float, float]   # ds-derivative at the final state
    n_steps: int                     # attempted steps, rejected ones included
    event_coord: int | None = None   # 0-based coordinate that collapsed
    n_rejected: int = 0              # steps that failed the error test
    n_halved: int = 0                # steps halved for leaving the cone
    stagnated: bool = False          # ended on a step at the resolution of s


def _hermite(x0, f0, x1, f1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * x0 + (t3 - 2 * t2 + theta) * h * f0
            + (-2 * t3 + 3 * t2) * x1 + (t3 - t2) * h * f1)


def _locate_event(f, s0, u0, g0, u1, g1, h, eps):
    """Bisect the Hermite interpolant for min(x1, x2) = eps inside a step."""
    a, b = 0.0, 1.0
    while (b - a) * h > EVENT_TIME_TOL:
        mid = 0.5 * (a + b)
        w1 = _hermite(u0[0], g0[0], u1[0], g1[0], h, mid)
        w2 = _hermite(u0[1], g0[1], u1[1], g1[1], h, mid)
        if min(w1, w2) > eps:
            a = mid
        else:
            b = mid
    w1 = _hermite(u0[0], g0[0], u1[0], g1[0], h, b)
    w2 = _hermite(u0[1], g0[1], u1[1], g1[1], h, b)
    s_ev = s0 + b * h
    return s_ev, (w1, w2), f(w1, w2)


def run_adaptive(
    f,
    x0: tuple[float, float],
    horizon: float,
    *,
    rtol: float,
    atol: float,
    eps: float,
    max_steps: int,
) -> RawRun:
    """Integrate u' = f(u) over s in [0, horizon] with collapse detection.

    The run stops at the first s where min(x1, x2) <= eps, at the horizon,
    when the step budget is exhausted, or at the last state before an
    accepted step whose max-norm crosses NORM_GUARD (status "runaway").
    The thresholds eps, atol and NORM_GUARD are absolute in u, so a caller
    that starts from a rescaled state (``flow.integrate`` starts every run
    at x2 = 1) gets them in units of its scale.
    """
    x1, x2 = x0
    s = 0.0
    k11, k12 = f(x1, x2)
    ss, xs1, xs2 = [0.0], [x1], [x2]
    n_steps = n_rejected = n_halved = 0
    event_coord = None
    stagnated = False

    norm_f = max(abs(k11), abs(k12), 1e-30)
    h = 0.01 * max(x1, x2, atol) / norm_f

    while True:
        if n_steps >= max_steps:
            status = "step_limit"
            break
        if horizon - s <= 1e-12 * (1.0 + horizon):
            status = "horizon"
            break
        # Step ceiling: growth with elapsed time, the horizon, and a bounded
        # fraction of each shrinking coordinate.  `if c < h: h = c` is
        # min(h, c) for every float, NaN included.
        c = STEP_GROWTH_CAP * (1.0 + s)
        if c < h:
            h = c
        c = horizon - s
        if c < h:
            h = c
        if k11 < 0.0:
            c = APPROACH_FACTOR * x1 / -k11
            if c < h:
                h = c
        if k12 < 0.0:
            c = APPROACH_FACTOR * x2 / -k12
            if c < h:
                h = c
        if h <= 16 * 2.3e-16 * (1.0 + s):
            # Step size stagnated at the floating-point resolution of s.
            # A coordinate racing to zero faster than linearly compresses
            # its entire terminal cascade below time representability; the
            # collapse time is then converged to machine precision and the
            # run ends here as the collapse event.  Before any accepted
            # step it is not: the first step guess was merely below the
            # floor, and the run ends on its budget at the start.
            stagnated = True
            event_coord = (_imminent_collapse(x1, x2, (k11, k12), s)
                           if s > 0.0 else None)
            if event_coord is None:
                status = "step_limit"
                break
            if ss[-1] != s:
                ss.append(s)
                xs1.append(x1)
                xs2.append(x2)
            status = "event"
            break
        n_steps += 1

        # Dormand-Prince stages; a stage or the step endpoint outside the
        # positive cone halves the step and retries it.
        y1 = x1 + h * (_A21 * k11)
        y2 = x2 + h * (_A21 * k12)
        if y1 <= 0.0 or y2 <= 0.0:
            n_halved += 1
            h *= 0.5
            continue
        k21, k22 = f(y1, y2)

        y1 = x1 + h * (_A31 * k11 + _A32 * k21)
        y2 = x2 + h * (_A31 * k12 + _A32 * k22)
        if y1 <= 0.0 or y2 <= 0.0:
            n_halved += 1
            h *= 0.5
            continue
        k31, k32 = f(y1, y2)

        y1 = x1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
        y2 = x2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
        if y1 <= 0.0 or y2 <= 0.0:
            n_halved += 1
            h *= 0.5
            continue
        k41, k42 = f(y1, y2)

        y1 = x1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
        y2 = x2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
        if y1 <= 0.0 or y2 <= 0.0:
            n_halved += 1
            h *= 0.5
            continue
        k51, k52 = f(y1, y2)

        y1 = x1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
        y2 = x2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
        if y1 <= 0.0 or y2 <= 0.0:
            n_halved += 1
            h *= 0.5
            continue
        k61, k62 = f(y1, y2)

        n1 = x1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
        n2 = x2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
        if n1 <= 0.0 or n2 <= 0.0:
            n_halved += 1
            h *= 0.5
            continue
        k71, k72 = f(n1, n2)

        e1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
        e2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
        # both states lie inside the positive cone, so no abs() is needed
        sc1 = atol + rtol * (x1 if x1 > n1 else n1)
        sc2 = atol + rtol * (x2 if x2 > n2 else n2)
        # keep `** 2`: libm's pow(x, 2) and x * x differ in the last bit
        # for some doubles, and the accepted steps would change with it
        err = math.sqrt(0.5 * ((e1 / sc1) ** 2 + (e2 / sc2) ** 2))
        if not err <= 1.0:
            if err != err:
                raise DomainError(
                    f"NaN error estimate in the step from s = {s:g}, "
                    f"state ({x1!r}, {x2!r})")
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        if n1 > NORM_GUARD or n2 > NORM_GUARD:
            status = "runaway"
            break
        if n1 <= eps or n2 <= eps:
            s_ev, u_ev, f_ev = _locate_event(
                f, s, (x1, x2), (k11, k12), (n1, n2), (k71, k72), h, eps)
            ss.append(s_ev)
            xs1.append(u_ev[0])
            xs2.append(u_ev[1])
            return RawRun(ss, xs1, xs2, "event", f_ev, n_steps,
                          0 if u_ev[0] <= u_ev[1] else 1,
                          n_rejected, n_halved)

        s += h
        x1, x2, k11, k12 = n1, n2, k71, k72
        ss.append(s)
        xs1.append(x1)
        xs2.append(x2)
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0

    return RawRun(ss, xs1, xs2, status, (k11, k12), n_steps, event_coord,
                  n_rejected, n_halved, stagnated)


def _imminent_collapse(x1: float, x2: float, g: tuple[float, float],
                       s: float) -> int | None:
    """Coordinate whose extrapolated vanishing time is within the float
    resolution of s, or None when the stagnation has another cause."""
    window = 1e6 * 2.3e-16 * (1.0 + s)
    best, best_eta = None, window
    for coord, (u, du) in enumerate(((x1, g[0]), (x2, g[1]))):
        if du < 0.0:
            eta = u / -du
            if eta <= best_eta:
                best, best_eta = coord, eta
    return best
