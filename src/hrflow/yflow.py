"""The planar flow in closed form along the monotone ratio y = x1/x2.

With H(y) = f1(y) - y*f2(y) the planar system gives

    y' = H(y)/x2,     d ln x2/dy = f2(y)/H(y),     dt/dy = x2/H(y),

so y runs monotonically from its start y0 to the nearest zero of H in the
direction of sign H(y0), or to y = 0 when there is none; the zeros of H
are the Einstein directions (plus y = 0 when the constant term vanishes),
which the engine reads from the ``EinsteinSet`` and never decides itself.
f2/H is rational, and its partial fractions over the real zeros, the pole
at y = 0 of the maximal kind and the complex pair of cases c and f give
ln x2(y) in closed form.  Each verdict follows from the type of an end,
by one lemma: f1(r) = r*f2(r) < 0 at every Einstein direction r.  In the
non-maximal kind f1 = -C - A*y^2; in the maximal kind f1(r), f2(r) >= 0
would need A2/B2 < r < B1/A1, so A1*A2 < B1*B2, which no table meets
(every table has A1 >= 2*B1, A2 >= 2*B2) and ``MaxCoeffs`` refuses.  So:

- the whole space collapses exactly when the forward end is an Einstein
  direction, where x2' = f2 stays below zero and x2 vanishes in finite
  time; a flow that ends at y = 0 collapses the fiber x1 alone;
- an ancient solution exists exactly when the backward end is a zero of
  H, where the backward time, the integral of x2/|H| with x2 growing,
  diverges.  It is finite at y = 0 (H finite, or at the maximal pole
  x2/|H| ~ y^(1 + a) with a = -C2/(B1 + C2) > -1) and at infinity
  (x2/|H| ~ y^(a_inf - 2) with a_inf = -B2/(B2 + C1) or -B/(A + B) < 0);
- the singularity is always of Type I, x2 ~ -f2*(T - t) at an Einstein
  direction and x1 ~ C*(T - t) at y = 0: y falls to 0 only where H(0) is
  finite, as H ~ (B1 + C2)/y (maximal) and H ~ D*y (family C0) are positive
  above 0, so the lowest slot rises (the parity of the roots of odd order
  agrees: ``real_roots`` gives a cubic an odd number of them);
- the singular time T is the convergent integral of x2/|H| from y0 to y*,
  computed by tanh-sinh quadrature (Takahasi and Mori, 1974) with the
  distance to y* kept exact, the level doubled until two levels agree,
  each level summed per start: T is the same alone and in any batch.

Every verdict but T depends on a start's slot alone: the interval between
Einstein directions it moves in, or the direction it sits on.  So each
slot's ``Ends`` (``slot_row``) and plan of T are made once per space.

Only numpy and scalar arithmetic are used: the complex pair comes from
deflating the known real zeros, never from an eigenvalue solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .einstein import EinsteinSet
from .errors import SpaceModelError, Undetermined
from .roots import _derivative, eval_poly
from .spaces import Coefficients

#: tanh-sinh nodes t = k*h cover |t| <= T_MAX, past which the weights are
#: below 1e-21 of the integral
T_MAX = 3.5
#: the step is halved from h = 2**-FIRST_LEVEL until two successive
#: estimates agree to QUAD_RTOL, at most down to h = 2**-LAST_LEVEL
FIRST_LEVEL = 3
LAST_LEVEL = 12
QUAD_RTOL = 1e-14
#: levels FIRST_LEVEL to JOINT_LEVEL are evaluated in one pass: no start
#: agrees before level 4, and a pass of its own for level 5, which many
#: starts never need, costs more than it saves
JOINT_LEVEL = 5
#: starts evaluated together, which bounds the node arrays of one pass and
#: changes no result
CHUNK = 32


@dataclass(frozen=True)
class Ends:
    """Both ends of the flows from (x1, x2) = (y0, 1), per start or slot.

    ``y_forward`` is the ratio at the singular time, ``shrinks`` whether
    x2 (and so the whole space) vanishes there rather than x1 alone, and
    ``type_one`` whether the vanishing coefficient decays linearly in
    T - t.  ``ancient`` tells whether the flow extends to all negative
    times, towards ``y_backward`` (a zero of H, 0 or inf), and
    ``ancient_type_one`` whether both coefficients then grow linearly in
    |t|.  ``T`` is the singular time.
    """

    y_forward: np.ndarray
    shrinks: np.ndarray
    type_one: np.ndarray
    ancient: np.ndarray
    ancient_type_one: np.ndarray
    y_backward: np.ndarray
    T: np.ndarray


def slot_row(zf: float, hf: int, move: int, zb: float, hb: int,
             b0: float, b1: float, bm2: float) -> Ends:
    """The ``Ends`` of a slot, in plain values, from its ends alone, by the
    rules of the module docstring: the forward end zf and the order hf of
    H's zero there (-1 at the maximal pole), the direction ``move`` (0 on
    an Einstein direction), the backward end zb (inf past the last root)
    and its order hb, and f2's b0, b1, bm2 for a homothety's T = -1/f2(zf),
    formed with no zf*zf; a moving slot's T is NaN, computed per start."""
    ancient = hb >= 1
    T = math.nan if move else 1 / (b0 - b1 * zf + bm2 / zf / zf)
    return Ends(zf, zf > 0.0, zf > 0.0 or hf == 0, ancient,
                ancient and zb > 0.0, zb, T)


class _Plan(NamedTuple):
    """The constants of T for the starts of a moving slot that ends at zs:
    gamma, the exponent k_ld of d/L in the integrand, b and ln gamma there;
    the rows ``take`` of ``_singular_time``'s per-start columns it reads;
    per other point z of H, a - h, b, whether z lies beyond the forward end
    (else behind the start) and zs - z; and zs - Re(pair), if any."""

    gamma: float
    k_ld: float
    b: float
    ln_gamma: float
    take: np.ndarray
    points: tuple
    pair_zz: float | None


class Slot(NamedTuple):
    """One entry of ``YFlow.table``: the forward end's index into z, the
    direction (+1, -1, 0), the ``slot_row`` and a moving slot's ``_Plan``."""

    fwd: int
    move: int
    ends: Ends
    plan: _Plan | None


def _deflate(coeffs: list, r: float) -> list:
    """Quotient of the polynomial by (y - r), highest degree first."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + r * out[-1])
    return out


class YFlow:
    """The closed form of one space's flow, set up once per space as
    ``YFlow(c, einstein_roots(c))``: the one handle of the space.

    Points of the y axis that can end a flow are y = 0 and the Einstein
    directions; for each the engine keeps the order ``h`` of H's zero
    there (at y = 0: -1 for the pole of the maximal kind, 1 in family C0,
    else 0), and the coefficients ``a`` of 1/(y - z) and ``b`` of
    1/(y - z)^2 in f2/H.  It keeps the coefficients ``c`` and the Einstein
    set ``es`` it was built from, and a ``Slot`` per slot in ``table``; a
    root of order above two is undetermined.
    """

    def __init__(self, c: Coefficients, es: EinsteinSet):
        p = c.planar
        if any(m > 2 for _, m in es.roots):
            raise Undetermined(f"zeros of H of order above two in {es}")
        hom = p.homothety
        # f2 = y2f2/y^2 in both kinds (bm2 = 0 in the non-maximal one)
        y2f2 = (p.b1, -p.b0, 0.0, -p.bm2)
        # H = poly * y^h0 is homothety/y in the maximal kind and -homothety
        # in the non-maximal one, whose constant term family C0 drops as
        # einstein_roots decided; f2/H = num / (poly * y^k0)
        if len(hom) == 4:
            h0, poly, num, k0 = -1, hom, y2f2, 1
        else:
            h0 = int(es.case_label == "C0")
            poly, num, k0 = [-v for v in hom[:3 - h0]], y2f2[:2], h0
        # deflating the roots of es leaves a constant or the quadratic
        # factor of the complex pair of cases c and f
        rest = poly
        for r, m in es.roots:
            for _ in range(m):
                rest = _deflate(rest, r)
        pair = None
        if len(rest) == 3:
            c2, c1, c0 = rest
            disc = 4.0 * c2 * c0 - c1 * c1
            if not disc > 0.0:
                raise SpaceModelError(f"real zeros of H outside {es}")
            pair = complex(-c1 / (2.0 * c2), math.sqrt(disc) / (2.0 * abs(c2)))

        # f2/H = num / (lead * y^k0 * prod (y - r)^m * |y - pair|^2)
        lead = poly[0]
        poles = [(complex(r), m) for r, m in es.roots]
        if k0 > 0:
            poles.insert(0, (0j, k0))
        if pair is not None:
            poles += [(pair, 1), (pair.conjugate(), 1)]
        dnum = _derivative(num)
        coef = []   # (coefficient of 1/(y - z), of 1/(y - z)^2) per pole
        for i, (z, m) in enumerate(poles):
            others = [(w, mw) for j, (w, mw) in enumerate(poles) if j != i]
            den = lead
            for w, mw in others:
                den *= (z - w) ** mw
            g = eval_poly(num, z) / den
            if m == 1:
                coef.append((g, 0.0))
            else:
                dlog = sum(mw / (z - w) for w, mw in others)
                dg = (eval_poly(dnum, z) - eval_poly(num, z) * dlog) / den
                coef.append((dg, g))

        z = [0.0] + [r for r, _ in es.roots]
        h = [h0] + [m for _, m in es.roots]
        n = len(z)
        a, b = [0.0] * n, [0.0] * n
        # the real poles are the last points of z, in order (y = 0 only
        # when f2/H has a pole there)
        real = coef[:len(coef) - 2] if pair is not None else coef
        for j, (ac, bc) in enumerate(real, n - len(real)):
            a[j], b[j] = ac.real, bc.real
        self.z, self.h, self.a, self.b = map(np.array, (z, h, a, b))
        self.pair = pair
        self.pair_a = coef[-2][0] if pair is not None else 0j
        self.lead = lead
        self.c = c
        self.es = es
        #: the zeros and the pole of H, the points of every term of T, each
        #: as its index, z, h, a - h and b: h = 0 only at y = 0 where f2/H
        #: has no pole either, so a = b = 0 there
        self._points = [(j, z[j], h[j], a[j] - h[j], b[j])
                        for j in range(n) if h[j]]

        # H < 0 for large y and changes sign at each root of odd order, so
        # it is positive where an odd number of them lie above y0; y moves
        # up to the next point while H > 0, else down to z[below].  A start
        # on an Einstein direction stays there: a homothety
        rising = [sum(m % 2 for m in h[k + 1:]) % 2 for k in range(n)]
        ends = [(k + up, 2 * up - 1) for k, up in enumerate(rising)]
        ends += [(k, 0) for k in range(1, n)]
        #: one ``Slot`` per slot of ``locate``, in plain Python values:
        #: every verdict depends on the slot of a start alone
        self.table = []
        # a pair's two rows are the last of _singular_time's columns
        pair_rows = [] if pair is None else [-2, -1]
        for fwd, move in ends:
            bwd = fwd - move
            back = (z[bwd], h[bwd]) if bwd < n else (math.inf, 0)
            row = slot_row(z[fwd], h[fwd], move, *back, p.b0, p.b1, p.bm2)
            plan = None
            if move:
                zs, af = z[fwd], a[fwd]
                # x2 ~ d^a at a simple zero of H where a < 1: the quadrature
                # maps d = L*w**(1/gamma); a simple pole has b = 0.0, and
                # a > 0 at a forward end, where x2 vanishes
                gamma = min(af, 1.0) if h[fwd] == 1 else 1.0
                # the rows of _singular_time's per-start columns the slot
                # reads; every point but the forward end lies past it or
                # behind the start
                take, points = [0, 1], []
                for i, (j, zj, _, ahj, bj) in enumerate(self._points, 2):
                    if j != fwd:
                        take.append(i)
                        points.append((ahj, bj, (j - fwd) * move > 0,
                                       zs - zj))
                plan = _Plan(gamma, (af - gamma) + (1.0 - h[fwd]), b[fwd],
                             float(np.log(gamma)),
                             np.array(take + pair_rows)[:, None],
                             tuple(points),
                             None if pair is None else zs - pair.real)
            self.table.append(Slot(fwd, move, row, plan))
        #: the table's rows and moves as arrays, which ``ends_at`` gathers
        #: per start
        self.slot_ends = Ends(*map(np.array, zip(
            *(vars(s.ends).values() for s in self.table))))
        self._move = np.array([s.move for s in self.table])

    def log_x2(self, y):
        """Phi(y), the integral of f2/H up to a constant, so that
        exp(Phi(y))/x2 is conserved: the sum over z of a*ln|y - z| - b/(y - z)
        plus, for a pair p, 2*Re[pa*ln(y - p)] less its constant pi*Im(pa),
        which centres its arctan.  y must avoid the points of ``z``."""
        y = np.asarray(y, dtype=float)
        g = y[..., None] - self.z
        out = (self.a * np.log(np.abs(g)) - self.b / g).sum(axis=-1)
        if self.pair is not None:
            pa, p = self.pair_a, self.pair
            out = out + (pa.real * np.log(self._quad(y)) - 2.0 * pa.imag
                         * np.arctan((y - p.real) / p.imag))
        return out

    # -- per start ---------------------------------------------------------

    def locate(self, y0s):
        """The starts as a flat array and the slot of each, which fixes
        every verdict but T: from one ``EinsteinSet.locate``, the number k
        of Einstein directions at or below it, or len(z) + k on the k-th."""
        y0 = np.asarray(y0s, dtype=float).ravel()
        if not np.all(y0 > 0.0):
            raise ValueError("starting ratios must be positive")
        below, on = self.es.locate(y0)
        return y0, np.where(on >= 0, len(self.z) + on, below)

    def run(self, y0s) -> Ends:
        """Both ends and the singular time of the flows from (y0, 1)."""
        return self.ends_at(*self.locate(y0s))

    def ends_at(self, y0: np.ndarray, slot: np.ndarray) -> Ends:
        """``run`` of what ``locate`` returned: each start's row of
        ``slot_ends``, the table's rows gathered per start, and T computed
        for the starts of a moving slot (a fixed start's T is its row's)."""
        ends = Ends(*(v[slot] for v in vars(self.slot_ends).values()))
        moving = np.nonzero(self._move[slot])[0]
        for lo in range(0, len(moving), CHUNK):
            rows = moving[lo:lo + CHUNK]
            ends.T[rows] = self._singular_time(y0[rows], slot[rows])
        return ends

    def _singular_time(self, y0: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """T = integral of x2/|H| over y from y0 to the forward end.

        With d the distance from the end z*, L = |y0 - z*| and the
        exponent a* of x2 ~ d^a* at a simple zero of H, the integrand grows
        like d^(a* - 1) near z*; when a* < 1, d = L*w**(1/a*) makes it
        bounded on w in (0, 1), otherwise d = L*w.  No distance is formed
        by cancellation.  A start whose levels have not agreed by
        LAST_LEVEL keeps its finest estimate.

        The integrand is evaluated one slot at a time, from the ``_Plan``
        that ``table`` holds for the slot and the columns of its starts.
        Each level's sum is taken row by row (``np.vecdot``), in an order
        fixed by the nodes alone, so a start's T is the same alone, in any
        batch and in any order.  One pass evaluates the nodes of levels
        FIRST_LEVEL to JOINT_LEVEL together; each later level is a pass of
        its own over the starts whose levels have not yet agreed.  Each
        level's sum is taken over its own nodes either way, so T does not
        depend on how the levels are grouped into passes.
        """
        # one row each per start: ln|H(y0)|, y0, then y0 - z per point of
        # H and, for a pair, y0 - Re(pair) and |y0 - pair|^2.  ln|H(y0)|
        # adds the pair's term, then h*ln|y0 - z| per point, in that order
        g0 = [y0 - z for _, z, *_ in self._points]
        lnH0 = math.log(-self.lead)
        if self.pair is not None:
            lnH0 = lnH0 + np.log(self._quad(y0))
            gp, beta = y0 - self.pair.real, self.pair.imag
            g0 += [gp, gp * gp + beta * beta]
        for (_, _, h, *_), g in zip(self._points, g0):
            lnH0 = lnH0 + h * np.log(np.abs(g))
        per_start = np.array([lnH0, y0, *g0])
        # per slot: its starts and the columns _log_integrand reads, made
        # from rows 0 and 1: ln(L/gamma) - ln|H(y0)| and s*L
        groups = []
        for k in sorted(set(slot.tolist())):
            rows = np.flatnonzero(slot == k)
            _, move, end, plan = self.table[k]
            cols = per_start[plan.take, rows]
            L = np.abs(cols[1] - end.y_forward)
            cols[0] = np.log(L) - plan.ln_gamma - cols[0]
            cols[1] = -move * L
            groups.append((rows, plan, cols))

        T = np.full(len(y0), math.nan)
        live = np.arange(len(y0))       # the starts not yet agreed
        total, est = np.zeros(len(y0)), T[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            *joint_nodes, starts = _joint_nodes()
            joint = np.empty((len(y0), starts[-1]))
            for rows, plan, cols in groups:
                joint[rows] = np.exp(self._log_integrand(joint_nodes, plan,
                                                         cols))
            for level in range(FIRST_LEVEL, LAST_LEVEL + 1):
                *nodes, wt = _nodes(level)
                if level <= JOINT_LEVEL:
                    lo = starts[level - FIRST_LEVEL]
                    E = joint[live, lo:lo + len(wt)]
                else:
                    # a start's T is NaN until its levels agree (an estimate
                    # that agrees is finite), so each slot keeps its starts
                    # whose T is NaN
                    E = np.empty((len(live), len(wt)))
                    groups = [(rows[m], plan, cols[:, m])
                              for rows, plan, cols in groups
                              for m in [np.isnan(T[rows])] if m.any()]
                    for rows, plan, cols in groups:
                        E[np.searchsorted(live, rows)] = np.exp(
                            self._log_integrand(nodes, plan, cols))
                total += np.vecdot(E, wt)
                prev, est = est, total * 2.0 ** -level
                # the first level compares with NaN, so no start is done
                done = np.abs(est - prev) <= QUAD_RTOL * np.abs(est)
                if done.any():
                    T[live[done]] = est[done]
                    keep = ~done
                    live, total, est = live[keep], total[keep], est[keep]
                    if not len(live):
                        break
        T[live] = est
        return T

    def _quad(self, y):
        """|y - pair|^2, the factor of H the complex pair contributes."""
        return (y - self.pair.real) ** 2 + self.pair.imag ** 2

    def _log_integrand(self, nodes, plan: _Plan, cols):
        """Log of the integrand at the nodes ln w, w, 1 - w (columns) for
        the starts of one slot (rows), from its ``plan`` and the columns
        ``_singular_time`` made for them: ln(L/gamma) - ln|H(y0)|, s*L, y0 - z
        per point of ``plan.points`` and, for a pair, y0 - Re(pair) and
        |y0 - pair|^2."""
        const, sL, *g0s = cols[:, :, None]
        ld, d_L, one_u = nodes          # ln(d / L), d / L, 1 - d / L
        if plan.gamma != 1.0:           # else d = L*w, exactly the nodes'
            ld = ld / plan.gamma
            d_L, one_u = np.exp(ld), -np.expm1(ld)
        sd = sL * d_L                                # y - zs
        delta = -sL * one_u                          # y - y0
        out = const + plan.k_ld * ld
        if plan.b != 0.0:
            out -= plan.b * one_u / sd
        # y - z is formed as a sum of two terms of one sign: (zs - z) + sd
        # for a point z beyond the end, g0 + delta for one behind the
        # start.  For a far start, g0 = y0 - z beyond the end is far larger
        # than y - z, and g0 + delta would lose the digits of y - z.
        for (coef, bj, beyond, zz), g0 in zip(plan.points, g0s):
            if beyond:
                w = zz + sd
                term = coef * np.log(w / g0)
            else:
                term = coef * np.log1p(delta / g0)
            if bj != 0.0:
                w = w if beyond else g0 + delta
                term += bj * delta / (w * g0)
            out += term
        if self.pair is not None:
            pa, beta = self.pair_a, self.pair.imag
            # w = y - Re(pair), whose rounding |y - pair| >= Im(pair) bounds
            g0, q0 = g0s[-2:]
            w = plan.pair_zz + sd
            out += (pa.real - 1.0) * np.log((w * w + beta * beta) / q0)
            # the angle of (y - pair) / (y0 - pair)
            out -= 2.0 * pa.imag * np.arctan2(
                beta * delta, w * g0 + beta * beta)
        return out


@functools.cache
def _nodes(level: int):
    """ln w, w, 1 - w (as -expm1(ln w)) and the trapezoid weights (without
    the step) of the nodes a tanh-sinh rule of step 2**-level adds to the
    coarser levels, for the map w = 1/(1 + exp(pi*sinh(t))) of the real
    line onto (0, 1)."""
    h = 2.0 ** -level
    k = np.arange(-round(T_MAX / h), round(T_MAX / h) + 1)
    if level > FIRST_LEVEL:
        k = k[k % 2 == 1]
    t = k * h
    e = np.pi * np.sinh(t)
    lw = -np.logaddexp(0.0, e)                      # ln w, exact at both ends
    return (lw, np.exp(lw), -np.expm1(lw),
            np.pi * np.cosh(t) * np.exp(lw) / (1.0 + np.exp(-e)))


@functools.cache
def _joint_nodes():
    """ln w, w and 1 - w of the nodes of levels FIRST_LEVEL to JOINT_LEVEL
    side by side, and the column at which each level's nodes start."""
    levels = [_nodes(level) for level in range(FIRST_LEVEL, JOINT_LEVEL + 1)]
    return (*(np.concatenate(v) for v in list(zip(*levels))[:3]),
            np.cumsum([0] + [len(v[0]) for v in levels]))
