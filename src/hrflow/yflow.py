"""The planar flow in closed form along the monotone ratio y = x1/x2.

With H(y) = f1(y) - y*f2(y) the planar system gives

    y' = H(y)/x2,     d ln x2/dy = f2(y)/H(y),     dt/dy = x2/H(y),

so y runs monotonically from its start y0 to the nearest zero of H in the
direction of sign H(y0), or to y = 0 when there is none; the zeros of H
are the Einstein directions (plus y = 0 when the constant term vanishes).
f2/H is rational, and its partial fractions over the real zeros, the pole
at y = 0 of the maximal kind and the complex pair of cases c and f give
ln x2(y) in closed form.  Each end of the flow is then decided by its
exponents, with no threshold on x or t:

- the whole space collapses at the forward end y* when ln x2 tends to
  -inf there, which the residue of f2/H at y* decides; otherwise only
  x1 collapses (a fiber collapse towards y = 0);
- an ancient solution exists when the backward time, the integral of
  x2/|H| towards the backward end, diverges, which the exponent of the
  integrand there decides;
- the singular time T is the convergent integral of x2/|H| from y0 to y*,
  computed by tanh-sinh quadrature (Takahasi and Mori, 1974) with the
  distance to y* kept exact, the level doubled until two levels agree.

Only numpy and scalar arithmetic are used: the complex pair comes from
deflating the known real zeros, never from an eigenvalue solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .einstein import EinsteinSet
from .errors import SpaceModelError
from .roots import _derivative, eval_poly
from .spaces import Coefficients, PlanarField

#: tanh-sinh nodes t = k*h cover |t| <= T_MAX, past which the weights are
#: below 1e-21 of the integral
T_MAX = 3.5
#: the step is halved from h = 2**-FIRST_LEVEL until two successive
#: estimates agree to QUAD_RTOL, at most down to h = 2**-LAST_LEVEL
FIRST_LEVEL = 3
LAST_LEVEL = 12
QUAD_RTOL = 1e-14
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


def _trailing_zeros(coeffs) -> int:
    n = 0
    while n < len(coeffs) and coeffs[len(coeffs) - 1 - n] == 0.0:
        n += 1
    return n


class YFlow:
    """The closed form of one space's flow, set up once per space.

    Points of the y axis that can end a flow are y = 0 and the Einstein
    directions; for each the engine keeps the order of H's zero there
    (-1 for the pole of H at y = 0 in the maximal kind), and the
    coefficients ``a`` of 1/(y - z) and ``b`` of 1/(y - z)^2 in f2/H.
    ``es`` is the Einstein set it was built from, which places the starts.
    """

    def __init__(self, c: Coefficients | PlanarField, es: EinsteinSet):
        p = c.planar
        lead = -(p.a2 + p.b1)
        if not lead < 0.0:
            raise SpaceModelError(
                f"y^2 coefficient of H must be negative: {p}")
        # y*H and y^2*f2 as cubics; the non-maximal kind has a factor y in
        # the first (y^2 when its constant term C vanishes) and y^2 in the
        # second
        yH = [lead, p.b0, -p.a0, p.am1 + p.bm2]
        y2f2 = [p.b1, -p.b0, 0.0, -p.bm2]
        mu0 = _trailing_zeros(yH)
        nu0 = _trailing_zeros(y2f2)
        rest = yH[:4 - mu0]
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
        elif len(rest) != 1:
            raise SpaceModelError(f"a zero of H lies outside {es}")

        # f2/H = num / (lead * y^k0 * prod (y - r)^m * |y - pair|^2)
        num = y2f2[:4 - nu0]
        k0 = mu0 + 1 - nu0
        poles = [(complex(r), m) for r, m in es.roots]
        if k0 > 0:
            poles.insert(0, (0j, k0))
        if pair is not None:
            poles += [(pair, 1), (pair.conjugate(), 1)]
        if any(m > 2 for _, m in poles):
            raise SpaceModelError(f"zeros of H of order above two in {es}")
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
        self.h = np.array([mu0 - 1] + [m for _, m in es.roots])
        self.a = np.zeros(len(self.z))
        self.b = np.zeros(len(self.z))
        # the real poles are the last points of z, in order (y = 0 only
        # when f2/H has a pole there)
        real = coef[:len(coef) - 2] if pair is not None else coef
        for j, (ac, bc) in enumerate(real, len(self.z) - len(real)):
            self.a[j], self.b[j] = ac.real, bc.real
        self.pair = pair
        self.pair_a = coef[-2][0] if pair is not None else 0j
        # log coefficient of x2 as y -> inf: x2 ~ y^a_inf, |H| ~ y^2
        self.a_inf = float(self.a.sum() + 2.0 * self.pair_a.real)
        self.lead = lead
        self.y2f2 = y2f2
        self.es = es

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

    def forward_end(self, y0s):
        """The forward end of the flows from (y0, 1), with no quadrature.

        Per start: the index into ``z`` of the ratio y* at the singular
        time, the direction y moves (+1 up, -1 down, 0 for a start on an
        Einstein direction, which stays there) and whether the whole space
        shrinks at y* rather than the fiber alone.
        """
        y0 = np.asarray(y0s, dtype=float).ravel()
        if not np.all(y0 > 0.0):
            raise ValueError("starting ratios must be positive")
        z, a, b = self.z, self.a, self.b
        below, on = self.es.locate(y0)
        # H < 0 for large y and changes sign at each root of odd order, so
        # it is positive where an odd number of them lie above y0
        odd_above = np.cumsum((self.h[:0:-1] % 2 == 1))[::-1]
        rising = np.append(odd_above, 0)[below] % 2 == 1
        fixed = on >= 0
        # z[below] is the highest point at or below y0; a start on an
        # Einstein direction stays there: a homothety
        fwd = np.where(fixed, on + 1, below + rising)
        move = np.where(fixed, 0, np.where(rising, 1, -1))

        x2_vanishes = np.where(b[fwd] != 0.0, b[fwd] * move < 0.0,
                               a[fwd] > 0.0)
        return fwd, move, fixed | ((z[fwd] > 0.0) & x2_vanishes)

    def run(self, y0s) -> Ends:
        """Both ends and the singular time of the flows from (y0, 1)."""
        y0 = np.asarray(y0s, dtype=float).ravel()
        fwd, move, shrinks = self.forward_end(y0)
        z, h, a, b = self.z, self.h, self.a, self.b
        n_pts = len(z)
        fixed = move == 0
        bwd = fwd - move
        zf = z[fwd]
        type_one = fixed | (zf > 0.0) | (h[fwd] == 0)

        finite_b = bwd < n_pts
        jb = np.minimum(bwd, n_pts - 1)
        diverges = np.where(b[jb] != 0.0, b[jb] * move < 0.0,
                            a[jb] - h[jb] <= -1.0)
        ancient = fixed | np.where(finite_b, diverges, self.a_inf >= 1.0)
        y_bwd = np.where(finite_b, z[jb], math.inf)
        ancient_type_one = ancient & finite_b & (y_bwd > 0.0)

        T = np.empty(len(y0))
        if np.any(fixed):
            zr = zf[fixed]
            T[fixed] = -zr * zr / eval_poly(self.y2f2, zr)
        moving = np.nonzero(~fixed)[0]
        for lo in range(0, len(moving), CHUNK):
            rows = moving[lo:lo + CHUNK]
            T[rows] = self._singular_time(y0[rows], fwd[rows], move[rows])
        return Ends(y_forward=zf, shrinks=shrinks, type_one=type_one,
                    ancient=ancient, ancient_type_one=ancient_type_one,
                    y_backward=y_bwd, T=T)

    def _singular_time(self, y0: np.ndarray, fwd: np.ndarray,
                       move: np.ndarray) -> np.ndarray:
        """T = integral of x2/|H| over y from y0 to the forward end.

        With d the distance from the end z*, L = |y0 - z*| and the
        exponent a* of x2 ~ d^a* at a simple zero of H, the integrand grows
        like d^(a* - 1) near z*; when a* < 1, d = L*w**(1/a*) makes it
        bounded on w in (0, 1), otherwise d = L*w.  No distance is formed
        by cancellation.  A start whose levels have not agreed by
        LAST_LEVEL keeps its finest estimate.
        """
        z, h, a, b = self.z, self.h, self.a, self.b
        zs, hs, as_, bs = z[fwd], h[fwd], a[fwd], b[fwd]
        L = np.abs(y0 - zs)
        gamma = np.where((hs == 1) & (bs == 0.0) & (as_ < 1.0), as_, 1.0)
        if not np.all(gamma > 0.0):
            raise SpaceModelError(
                "x2 does not vanish at a simple forward end")
        lnH0 = math.log(-self.lead) + np.log(self._quad(y0))
        for j in np.nonzero(h)[0]:
            lnH0 = lnH0 + h[j] * np.log(np.abs(y0 - z[j]))
        per = np.array([y0, zs, fwd, -move, L, gamma,
                        (as_ - gamma) + (1.0 - hs), bs,
                        np.log(L) - np.log(gamma) - lnH0])

        T = np.empty(len(y0))
        total = np.zeros(len(y0))
        active = np.arange(len(y0))
        for level in range(FIRST_LEVEL, LAST_LEVEL + 1):
            lw, wt = _nodes(level)
            total[active] += np.exp(
                self._log_integrand(per[:, active], lw)) @ wt
            est = total[active] * 2.0 ** -level
            done = (np.abs(est - T[active]) <= QUAD_RTOL * np.abs(est)
                    if level > FIRST_LEVEL else np.zeros(len(est), bool))
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

    def _log_integrand(self, per, lw):
        """Log of the integrand at the nodes ln w (columns) for each start
        (rows), from its per-start constants ``per``."""
        y0, zs, fwd, s, L, gamma, k_ld, bs, const = (v[:, None] for v in per)
        ld = lw / gamma                              # ln(d / L)
        one_u = -np.expm1(ld)                        # 1 - d / L
        sd = s * L * np.exp(ld)                      # y - zs
        delta = -s * L * one_u                       # y - y0
        out = const + k_ld * ld
        if np.any(bs != 0.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                end = bs * one_u / sd
            out = out - np.where(bs != 0.0, end, 0.0)
        # y - z is formed as a sum of two terms of one sign: (zs - z) + sd
        # for a point z beyond the end, g0 + delta for one behind the
        # start.  For a far start, g0 = y0 - z beyond the end is far larger
        # than y - z, and g0 + delta would lose the digits of y - z.
        for j in range(len(self.z)):
            aj, bj, hj = self.a[j], self.b[j], self.h[j]
            if aj == 0.0 and bj == 0.0 and hj == 0:
                continue
            g0 = y0 - self.z[j]
            beyond = (j - fwd) * s < 0
            w = np.where(beyond, (zs - self.z[j]) + sd, g0 + delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                term = (aj - hj) * np.where(beyond, np.log(w / g0),
                                            np.log1p(delta / g0))
                if bj != 0.0:
                    term = term + bj * delta / (w * g0)
            out = out + np.where(fwd == j, 0.0, term)
        if self.pair is not None:
            pa, beta = self.pair_a, self.pair.imag
            g0 = y0 - self.pair.real
            # y - Re(pair), whose rounding |y - pair| >= Im(pair) bounds
            w = (zs - self.pair.real) + sd
            q0 = g0 * g0 + beta * beta
            out = out + (pa.real - 1.0) * np.log((w * w + beta * beta) / q0)
            # the angle of (y - pair) / (y0 - pair)
            out = out - 2.0 * pa.imag * np.arctan2(
                beta * delta, w * g0 + beta * beta)
        return out


@functools.cache
def _nodes(level: int):
    """ln w and the trapezoid weights (without the step) of the nodes a
    tanh-sinh rule of step 2**-level adds to the coarser levels, for the
    map w = 1/(1 + exp(pi*sinh(t))) of the real line onto (0, 1)."""
    h = 2.0 ** -level
    k = np.arange(-round(T_MAX / h), round(T_MAX / h) + 1)
    if level > FIRST_LEVEL:
        k = k[k % 2 == 1]
    t = k * h
    e = np.pi * np.sinh(t)
    lw = -np.logaddexp(0.0, e)                      # ln w, exact at both ends
    return lw, np.pi * np.cosh(t) * np.exp(lw) / (1.0 + np.exp(-e))
