"""Bracketed real-root isolation for the low-degree polynomials of the flow.

Roots are located on sign changes of the exactly evaluated polynomial and
polished with a bisection/Newton hybrid; no eigenvalue companion machinery.
Nearly coincident roots are merged into multiple roots so that downstream
case splits get a discrete answer.
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
    """Horner evaluation; coeffs ordered highest degree first."""
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


def bisect_root(f, lo: float, hi: float) -> float:
    """Plain bisection on a bracket with f(lo) and f(hi) of opposite sign."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"not a bracket: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECT_XTOL * (1.0 + abs(mid)):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    """Bisection to a tight bracket, then a short Newton polish."""
    y = bisect_root(lambda t: eval_poly(coeffs, t), lo, hi)
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


def cubic_real_roots(
        coeffs: tuple[float, float, float, float]) -> list[tuple[float, int]]:
    """All real roots of a cubic with multiplicities, sorted ascending.

    The critical points of the cubic split the real line into monotone
    pieces; every strict sign change is bisected and a near-zero critical
    value is reported as a double (or triple) root.
    """
    c3, c2, c1, c0 = coeffs
    if c3 == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    bound = root_bound(coeffs)
    crits = quadratic_real_roots(3.0 * c3, 2.0 * c2, c1)

    def val(y: float) -> float:
        return eval_poly(coeffs, y)

    def crit_is_root(y: float) -> bool:
        # |p| below the size a pair of roots MERGE_TOL apart would produce
        half_gap = 0.5 * MERGE_TOL * (1.0 + abs(y))
        curv = abs(6.0 * c3 * y + 2.0 * c2)
        thr = 0.5 * curv * half_gap ** 2 + 1e-300
        return abs(val(y)) <= thr

    if len(crits) < 2 or abs(crits[1] - crits[0]) <= 1e-14 * (1.0 + abs(crits[0])):
        # monotone (or saddle): single real root, possibly triple
        if crits and crit_is_root(crits[0]):
            return [(crits[0], 3)]
        root = hybrid_root(coeffs, -bound, bound)
        return [(root, 1)]

    lo_c, hi_c = crits
    v_lo, v_hi = val(lo_c), val(hi_c)
    if crit_is_root(lo_c) and crit_is_root(hi_c):
        return [(0.5 * (lo_c + hi_c), 3)]
    if crit_is_root(lo_c):
        simple = -c0 / (c3 * lo_c * lo_c)  # product of roots
        simple = _newton_polish(coeffs, simple, -bound, bound)
        return sorted(((lo_c, 2), (simple, 1)))
    if crit_is_root(hi_c):
        simple = -c0 / (c3 * hi_c * hi_c)
        simple = _newton_polish(coeffs, simple, -bound, bound)
        return sorted(((hi_c, 2), (simple, 1)))

    points = [-bound, lo_c, hi_c, bound]
    roots: list[tuple[float, int]] = []
    for a, b in zip(points[:-1], points[1:]):
        fa, fb = val(a), val(b)
        if fa == 0.0:
            continue  # endpoint roots only at crits, handled above
        if fb == 0.0 or (fa > 0) != (fb > 0):
            roots.append((hybrid_root(coeffs, a, b), 1))
    return merge_close_roots(roots)


def merge_close_roots(
        roots: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Collapse clusters closer than MERGE_TOL * (1 + |root|)."""
    if not roots:
        return []
    out: list[tuple[float, int]] = []
    for r, m in sorted(roots):
        if out and abs(r - out[-1][0]) <= MERGE_TOL * (1.0 + abs(r)):
            prev, pm = out[-1]
            out[-1] = ((prev * pm + r * m) / (pm + m), pm + m)
        else:
            out.append((r, m))
    return out
