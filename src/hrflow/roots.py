"""Bracketed real-root isolation for the low-degree polynomials of the flow.

Roots are located on sign changes of the exactly evaluated polynomial and
polished with a bisection/Newton hybrid; no eigenvalue companion machinery.
``real_roots`` isolates every real root of a quadratic or a cubic, both
isotropy kinds' polynomials alike, and is the one place where nearly
coincident roots are merged into a multiple root, so that downstream case
splits get a discrete answer.
"""

from __future__ import annotations

import math

#: roots closer than MERGE_TOL * (1 + |root|) count as one multiple root
MERGE_TOL = 1e-7

#: bisection stops once the bracket is below BISECT_XTOL * (1 + |midpoint|)
BISECT_XTOL = 1e-13

#: residual bound: |p(r)| <= RESIDUAL_RTOL * max magnitude of the monomials
RESIDUAL_RTOL = 1e-10


def eval_poly(coeffs: tuple[float, ...], y: float) -> float:
    """Horner evaluation; coeffs ordered highest degree first.  Cubics and
    quadratics are written out: the loop's first step ``0.0*y + c`` is
    ``c`` for finite y, so the arithmetic is the loop's."""
    if len(coeffs) == 4:
        c3, c2, c1, c0 = coeffs
        return ((c3 * y + c2) * y + c1) * y + c0
    if len(coeffs) == 3:
        c2, c1, c0 = coeffs
        return (c2 * y + c1) * y + c0
    acc = 0.0
    for c in coeffs:
        acc = acc * y + c
    return acc


def poly_scale(coeffs: tuple[float, ...], y: float) -> float:
    """Largest monomial magnitude of the polynomial at y."""
    n = len(coeffs) - 1
    return max(abs(c) * abs(y) ** (n - i) for i, c in enumerate(coeffs))


def residual_ok(coeffs: tuple[float, ...], y: float,
                rtol: float = RESIDUAL_RTOL) -> bool:
    return abs(eval_poly(coeffs, y)) <= rtol * max(poly_scale(coeffs, y), 1e-300)


def _newton_polish(coeffs: tuple[float, ...], y: float, lo: float, hi: float) -> float:
    dcoeffs = _derivative(coeffs)
    for _ in range(3):
        p = eval_poly(coeffs, y)
        dp = eval_poly(dcoeffs, y)
        if dp == 0.0:
            break
        step = p / dp
        cand = y - step
        if not (lo <= cand <= hi):
            break
        y = cand
        if abs(step) <= 1e-17 * (1.0 + abs(y)):
            break
    return y


def _derivative(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    n = len(coeffs) - 1
    return tuple(c * (n - i) for i, c in enumerate(coeffs[:-1]))


def hybrid_root(coeffs: tuple[float, ...], lo: float, hi: float) -> float:
    """A cubic's root in [lo, hi]: bisection of its sign change, with
    ``eval_poly``'s arithmetic written out, then a short Newton polish."""
    c3, c2, c1, c0 = coeffs
    a, b = lo, hi
    fa = ((c3 * a + c2) * a + c1) * a + c0
    fb = ((c3 * b + c2) * b + c1) * b + c0
    if fa == 0.0 or fb == 0.0:
        y = a if fa == 0.0 else b
    elif (fa > 0) == (fb > 0):
        raise ValueError(f"not a bracket: f({lo})={fa}, f({hi})={fb}")
    else:
        for _ in range(200):
            y = 0.5 * (a + b)
            if b - a <= BISECT_XTOL * (1.0 + abs(y)):
                break
            fy = ((c3 * y + c2) * y + c1) * y + c0
            if fy == 0.0:
                break
            if (fy > 0) == (fa > 0):
                a, fa = y, fy
            else:
                b = y
        else:
            y = 0.5 * (a + b)
    return _newton_polish(coeffs, y, lo, hi)


def quadratic_real_roots(a: float, b: float, c: float) -> list[float]:
    """Sorted real roots of a*y^2 + b*y + c (a != 0), numerically stable."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else 0.5 * s
    if q == 0.0:
        return sorted((0.0, -b / a))
    return sorted((q / a, c / q))


def root_bound(coeffs: tuple[float, ...]) -> float:
    """Cauchy bound: every real root has magnitude below this."""
    lead = abs(coeffs[0])
    return 1.0 + max(abs(c) for c in coeffs[1:]) / lead


def real_roots(coeffs: tuple[float, ...]) -> list[tuple[float, int]]:
    """All real roots of a quadratic or a cubic (highest degree first) with
    their multiplicities, sorted ascending.

    The one place that decides when two roots are one.  A quadratic's pair,
    real or complex, is one double root at its centre when its exact
    separation sqrt|disc|/|a| is at most MERGE_TOL * (1 + |centre|).  A
    cubic's critical point is a multiple root when the cubic's value there
    is below what a pair of roots MERGE_TOL apart would give; every other
    root is bisected on a sign change between the critical points.
    """
    if coeffs[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    if len(coeffs) == 3:
        a, b, c = coeffs
        disc = b * b - 4.0 * a * c
        center = -b / (2.0 * a)
        if math.sqrt(abs(disc)) / abs(a) <= MERGE_TOL * (1.0 + abs(center)):
            return [(center, 2)]
        return [(r, 1) for r in quadratic_real_roots(a, b, c)]
    c3, c2, c1, c0 = coeffs
    bound = root_bound(coeffs)
    crits = quadratic_real_roots(3.0 * c3, 2.0 * c2, c1)

    def crit_is_root(y: float) -> bool:
        half_gap = 0.5 * MERGE_TOL * (1.0 + abs(y))
        curv = abs(6.0 * c3 * y + 2.0 * c2)
        return abs(eval_poly(coeffs, y)) <= 0.5 * curv * half_gap ** 2 + 1e-300

    if not crits or abs(crits[1] - crits[0]) <= 1e-14 * (1.0 + abs(crits[0])):
        # monotone (or saddle): single real root, possibly triple
        if crits and crit_is_root(crits[0]):
            return [(crits[0], 3)]
        return [(hybrid_root(coeffs, -bound, bound), 1)]
    on_root = [y for y in crits if crit_is_root(y)]
    if len(on_root) == 2:
        return [(0.5 * (crits[0] + crits[1]), 3)]
    if on_root:
        double = on_root[0]
        simple = -c0 / (c3 * double * double)  # product of roots
        simple = _newton_polish(coeffs, simple, -bound, bound)
        return sorted(((double, 2), (simple, 1)))
    points = [-bound, *crits, bound]
    roots: list[tuple[float, int]] = []
    for a, b in zip(points[:-1], points[1:]):
        fa, fb = eval_poly(coeffs, a), eval_poly(coeffs, b)
        if fa == 0.0:
            continue  # endpoint roots only at crits, handled above
        if fb == 0.0 or (fa > 0) != (fb > 0):
            roots.append((hybrid_root(coeffs, a, b), 1))
    return roots
