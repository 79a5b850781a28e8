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
- the singular time T is the convergent integral of x2/|H| from y0 to y*,
  computed by tanh-sinh quadrature (Takahasi and Mori, 1974) with the
  distance to y* kept exact, the level doubled until two levels agree.

Every verdict but T depends on a start's slot alone: the interval between
Einstein directions it moves in, or the direction it sits on.  Each slot's
verdicts are decided once per space, when the engine is built; a call
locates its starts once, looks their verdicts up and computes T per start.

Only numpy and scalar arithmetic are used: the complex pair comes from
deflating the known real zeros, never from an eigenvalue solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
#: levels FIRST_LEVEL to JOINT_LEVEL are evaluated in one pass, since
#: nearly every start needs them all
JOINT_LEVEL = 5
#: starts evaluated together, which bounds the node arrays of one pass
CHUNK = 32


@dataclass(frozen=True)
class Ends:
    """Both ends of the flows from (x1, x2) = (y0, 1), one entry per start.

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
    set ``es`` (which places the starts) it was built from; a root of
    order above two is undetermined.
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

        self.z = np.array([0.0] + [r for r, _ in es.roots])
        self.h = np.array([h0] + [m for _, m in es.roots])
        self.a = np.zeros(len(self.z))
        self.b = np.zeros(len(self.z))
        # the real poles are the last points of z, in order (y = 0 only
        # when f2/H has a pole there)
        real = coef[:len(coef) - 2] if pair is not None else coef
        for j, (ac, bc) in enumerate(real, len(self.z) - len(real)):
            self.a[j], self.b[j] = ac.real, bc.real
        self.pair = pair
        self.pair_a = coef[-2][0] if pair is not None else 0j
        self.lead = lead
        self.c = c
        self.es = es

        # every verdict depends on the slot of a start alone (see
        # ``locate``), so each slot's row is decided here, in plain floats
        z, h, a, b = (v.tolist() for v in (self.z, self.h, self.a, self.b))
        n = len(z)

        def slot_row(fwd, move):
            zf, hf, af, bf = z[fwd], h[fwd], a[fwd], b[fwd]
            bwd = fwd - move
            # by the lemma, the type of each end decides: the space
            # shrinks at an Einstein direction, and the flow is ancient
            # from a zero of H (a start on a root has both ends there)
            ancient = bwd < n and h[bwd] >= 1
            y_bwd = z[bwd] if bwd < n else math.inf
            # x2 ~ d^a at a simple zero of H where a < 1: the quadrature
            # of T maps d = L*w**(1/gamma)
            gamma = af if hf == 1 and bf == 0.0 and af < 1.0 else 1.0
            # fwd and move, the fields of Ends but T (y_forward, shrinks,
            # type_one, ancient, ancient_type_one, y_backward), then the
            # constants of T at the forward end; a start on a root never
            # reads them, and its gamma may be negative
            return (fwd, move, zf, zf > 0.0, zf > 0.0 or hf == 0, ancient,
                    ancient and y_bwd > 0.0, y_bwd,
                    gamma, (af - gamma) + (1.0 - hf), bf,
                    float(np.log(gamma)) if gamma > 0.0 else math.nan)

        # H < 0 for large y and changes sign at each root of odd order, so
        # it is positive where an odd number of them lie above y0; y moves
        # up to the next point while H > 0, else down to z[below].  A start
        # on an Einstein direction stays there: a homothety
        rising = [sum(m % 2 for m in h[k + 1:]) % 2 for k in range(n)]
        cols = list(zip(*[slot_row(k + up, 2 * up - 1)
                          for k, up in enumerate(rising)],
                        *[slot_row(k + 1, 0) for k in range(n - 1)]))
        self._fwd, self._move = np.array(cols[0]), np.array(cols[1])
        # the fields of Ends but T, in order
        self._verdicts = {name: np.array(col) for name, col in
                          zip(Ends.__dataclass_fields__, cols[2:8])}
        # per slot: gamma, (a - gamma) + (1 - h), b and ln gamma at the
        # forward end, the constants of T that depend on it alone
        self._forward_consts = np.array(cols[8:]).T

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

    def forward_end(self, y0s):
        """The forward end of the flows from (y0, 1), with no quadrature.

        Per start: the index into ``z`` of the ratio y* at the singular
        time, the direction y moves (+1 up, -1 down, 0 for a start on an
        Einstein direction, which stays there) and whether the whole space
        shrinks at y* rather than the fiber alone.
        """
        _, slot = self.locate(y0s)
        return (self._fwd[slot], self._move[slot],
                self._verdicts["shrinks"][slot])

    def run(self, y0s) -> Ends:
        """Both ends and the singular time of the flows from (y0, 1)."""
        return self.ends_at(*self.locate(y0s))

    def ends_at(self, y0: np.ndarray, slot: np.ndarray) -> Ends:
        """``run`` of what ``locate`` returned: T per start, all else by slot."""
        ends = {name: v[slot] for name, v in self._verdicts.items()}
        move = self._move[slot]
        T = np.empty(len(y0))
        fixed = move == 0
        if np.any(fixed):
            # -1/f2(r) for the start (r, 1), with no r*r to underflow
            zr, p = ends["y_forward"][fixed], self.c.planar
            T[fixed] = 1.0 / (p.b0 - p.b1 * zr + p.bm2 / zr / zr)
        moving = np.nonzero(move)[0]
        for lo in range(0, len(moving), CHUNK):
            rows = moving[lo:lo + CHUNK]
            T[rows] = self._singular_time(y0[rows], slot[rows])
        return Ends(**ends, T=T)

    def _singular_time(self, y0: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """T = integral of x2/|H| over y from y0 to the forward end.

        With d the distance from the end z*, L = |y0 - z*| and the
        exponent a* of x2 ~ d^a* at a simple zero of H, the integrand grows
        like d^(a* - 1) near z*; when a* < 1, d = L*w**(1/a*) makes it
        bounded on w in (0, 1), otherwise d = L*w.  No distance is formed
        by cancellation.  A start whose levels have not agreed by
        LAST_LEVEL keeps its finest estimate.

        What does not depend on the node is computed once for the starts
        given (once per slot for their forward ends).  One pass evaluates
        the nodes of levels FIRST_LEVEL to JOINT_LEVEL together, since
        nearly every start needs them all; each later level is a pass of
        its own over the starts whose levels have not yet agreed.  Each
        level's sum is taken over its own nodes and the same starts either
        way, so T does not depend on how the levels are grouped into
        passes.
        """
        fwd = self._fwd[slot]
        gamma, k_ld, bs, ln_gamma = self._forward_consts[slot].T
        zs = self.z[fwd]
        L = np.abs(y0 - zs)
        lnH0 = math.log(-self.lead) + np.log(self._quad(y0))
        z, h, a, b = self.z, self.h, self.a, self.b
        for j in np.nonzero(h)[0]:
            lnH0 = lnH0 + h[j] * np.log(np.abs(y0 - z[j]))
        s = -self._move[slot]
        # one row per constant and one column per start, in the order
        # _log_integrand reads them
        cols = [gamma, k_ld, bs, np.log(L) - ln_gamma - lnH0, s * L]
        masks, points = [], []
        for j in np.nonzero((a != 0.0) | (b != 0.0) | (h != 0))[0]:
            skip = fwd == j
            if skip.all():
                continue
            # past the forward end, or behind the start; which it is for
            # every start that does not end there decides the branch
            beyond = (j - fwd) * s < 0
            others = beyond[~skip]
            side = 1 if others.all() else 0 if others.any() else -1
            points.append((a[j] - h[j], b[j], side, skip.any()))
            cols += [y0 - z[j], zs - z[j]]
            masks += [beyond, skip]
        if self.pair is not None:
            g0, beta = y0 - self.pair.real, self.pair.imag
            cols += [g0, zs - self.pair.real, g0 * g0 + beta * beta]
        cols = np.array(cols)
        masks = np.array(masks, dtype=bool).reshape(len(masks), len(y0))

        T = np.empty(len(y0))
        total = np.zeros(len(y0))
        active = np.arange(len(y0))
        with np.errstate(divide="ignore", invalid="ignore"):
            *joint_nodes, starts = _joint_nodes()
            joint = np.exp(self._log_integrand(joint_nodes, points, cols,
                                               masks))
            for level in range(FIRST_LEVEL, LAST_LEVEL + 1):
                *nodes, wt = _nodes(level)
                if level <= JOINT_LEVEL:
                    lo = starts[level - FIRST_LEVEL]
                    E = joint[active, lo:lo + len(wt)]
                else:
                    E = np.exp(self._log_integrand(
                        nodes, points, cols[:, active], masks[:, active]))
                total[active] += E @ wt
                est = total[active] * 2.0 ** -level
                done = (np.abs(est - T[active]) <= QUAD_RTOL * np.abs(est)
                        if level > FIRST_LEVEL
                        else np.zeros(len(est), bool))
                T[active] = est
                active = active[~done]
                if not len(active):
                    break
        return T

    def _quad(self, y):
        """|y - pair|^2, the factor of H the complex pair contributes."""
        if self.pair is None:
            return np.ones_like(y)
        return (y - self.pair.real) ** 2 + self.pair.imag ** 2

    def _log_integrand(self, nodes, points, cols, masks):
        """Log of the integrand at the nodes ln w, w, 1 - w (columns) for
        each start (rows), from the constants ``_singular_time`` computed:
        the rows of ``cols`` and ``masks``, read in the order they were
        written, and per point of ``points`` its coefficients, the side of
        the starts it lies on and whether it ends some of them."""
        gamma, k_ld, bs, const, sL = cols[:5, :, None]
        col, mask = iter(cols[5:, :, None]), iter(masks[:, :, None])
        ld, d_L, one_u = nodes          # ln(d / L), d / L, 1 - d / L
        if not np.all(gamma == 1.0):    # else d = L*w, exactly the nodes'
            ld = ld / gamma
            d_L, one_u = np.exp(ld), -np.expm1(ld)
        sd = sL * d_L                                # y - zs
        delta = -sL * one_u                          # y - y0
        out = const + k_ld * ld
        if np.any(bs != 0.0):
            out = out - np.where(bs != 0.0, bs * one_u / sd, 0.0)
        # y - z is formed as a sum of two terms of one sign: (zs - z) + sd
        # for a point z beyond the end, g0 + delta for one behind the
        # start.  For a far start, g0 = y0 - z beyond the end is far larger
        # than y - z, and g0 + delta would lose the digits of y - z.
        for coef, bj, side, ends_some in points:
            g0, zz, beyond, skip = next(col), next(col), next(mask), next(mask)
            if side > 0:
                w = zz + sd
                term = coef * np.log(w / g0)
            elif side < 0:
                w = g0 + delta
                term = coef * np.log1p(delta / g0)
            else:
                w = np.where(beyond, zz + sd, g0 + delta)
                term = coef * np.where(beyond, np.log(w / g0),
                                       np.log1p(delta / g0))
            if bj != 0.0:
                term = term + bj * delta / (w * g0)
            out = out + (np.where(skip, 0.0, term) if ends_some else term)
        if self.pair is not None:
            pa, beta = self.pair_a, self.pair.imag
            # w = y - Re(pair), whose rounding |y - pair| >= Im(pair) bounds
            g0, zz, q0 = next(col), next(col), next(col)
            w = zz + sd
            out = out + (pa.real - 1.0) * np.log((w * w + beta * beta) / q0)
            # the angle of (y - pair) / (y0 - pair)
            out = out - 2.0 * pa.imag * np.arctan2(
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
