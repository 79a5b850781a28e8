"""Invariant Einstein directions, critical directions and scalar-zero rays.

An Einstein direction is a ratio y = x1/x2 along which the flow is a pure
homothety.  In the non-maximal kind these are the positive roots of the
quadratic C - D*y + (A+B)*y^2; in the maximal kind the roots of the cubic
-(B2+C1)*y^3 + A2*y^2 - A1*y + (B1+C2), which are always strictly positive
and at least one of which exists.  Both kinds, and the scalar-zero rays,
take their roots from ``roots.real_roots``; only the C0 family (C = 0) is
read off directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import roots as rt
from .errors import NotAnEinsteinRoot, SpaceModelError
from .spaces import Coefficients, MaxCoeffs

#: refuse root-sensitive evaluations within this distance of a root
ROOT_EXCLUSION = 1e-9
#: a non-maximal constant term C below this is zero (family C0): the lower
#: Einstein root would underflow.  The one place C0 is decided.
C0_BELOW = 1e-300


@dataclass(frozen=True)
class EinsteinSet:
    """Sorted positive homothety directions with multiplicities.

    case_label is "a", "b", "c" for the non-maximal quadratic with two, one
    double, or no positive roots, "C0" for the vanishing-constant-term
    family (single simple root D/(A+B)), and "d", "e", "f" for the maximal
    cubic with three, two, or one distinct roots.
    """

    roots: tuple[tuple[float, int], ...]
    case_label: str

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.roots)

    @property
    def count_distinct(self) -> int:
        return len(self.roots)

    def locate(self, ys):
        """Per ratio of ``ys``: the number of roots at or below it, and the
        index of the root it lies within ROOT_EXCLUSION * min(1 + root,
        2 * root) of (relative below 1, so a tiny root stays narrow), or
        -1.  The one place a ratio is compared with the roots."""
        y = np.asarray(ys, dtype=float)
        r = np.array(self.values)
        near = (np.abs(y[..., None] - r)
                <= ROOT_EXCLUSION * np.minimum(1.0 + r, 2.0 * r))
        # real_roots merges roots closer than MERGE_TOL, so a ratio is near
        # one at most
        return (np.searchsorted(r, y, side="right"),
                near @ np.arange(1, r.size + 1) - 1)

    def on_root(self, y: float) -> float | None:
        """The root y sits on, or None."""
        k = int(self.locate(y)[1])
        return None if k < 0 else self.values[k]


@dataclass(frozen=True)
class CriticalDirections:
    """Unique positive zeros of g1 = -C1 y^3 - A1 y + B1 and
    g2 = B2 y^3 - A2 y^2 - C2, bounding the invariant wedge."""

    y_tilde_1: float
    y_tilde_2: float


@dataclass(frozen=True)
class ScalarZeroDirections:
    """Rays y = const through the origin on which the scalar curvature
    vanishes; they separate the definite-sign regions."""

    positive_roots: tuple[float, ...]
    negative_roots: tuple[float, ...]
    has_zero_root: bool = False


def einstein_roots(c: Coefficients) -> EinsteinSet:
    """Einstein directions: the positive zeros of the homothety polynomial
    f1 - y*f2, labelled by its degree and its count of distinct roots."""
    poly = c.planar.homothety
    quadratic = len(poly) == 3
    c0 = quadratic and poly[2] < C0_BELOW
    if c0:  # H = y*((A+B)*y - D), whose one direction is D/(A+B)
        poly = (poly[0], poly[1], 0.0)
    found = []
    for r, m in [(-poly[1] / poly[0], 1)] if c0 else rt.real_roots(poly):
        if quadratic and m == 1:
            r = rt._newton_polish(poly, r, 0.0, math.inf)
        if r <= 0.0:
            raise AssertionError(f"nonpositive Einstein root {r} from {c}")
        # a quadratic's merged centre need not be a float root
        if (m == 1 or not quadratic) and not rt.residual_ok(poly, r):
            raise AssertionError(f"root residual too large at {r} for {c}")
        found.append((r, m))
    if not found and not quadratic:
        raise AssertionError(f"maximal cubic lost all roots for {c}")
    label = "cba"[len(found)] if quadratic else "fed"[len(found) - 1]
    return EinsteinSet(tuple(found), "C0" if c0 else label)


def einstein_scale_constants(c: Coefficients, root: float) -> tuple[float, float]:
    """Linear decay slopes (k1, k2) of the homothety through direction root.

    Near a shrink-to-point singularity the coefficients vanish as
    x_i(t) = k_i * (T - t); the pair is the unique positive solution of the
    shrink-rate system with k1/k2 = root, that is k_i = -f_i(root).
    """
    p = c.planar
    if not rt.residual_ok(p.homothety, root, rtol=1e-8):
        raise NotAnEinsteinRoot(
            f"{root} fails the homothety polynomial {p.homothety}")
    k1 = p.a0 - p.am1 / root + p.a2 * root * root
    k2 = p.b0 - p.b1 * root + p.bm2 / (root * root)
    if k1 <= 0.0 or k2 <= 0.0:
        raise NotAnEinsteinRoot(f"nonpositive decay slopes ({k1}, {k2}) at {root}")
    return (k1, k2)


def critical_directions(c: MaxCoeffs) -> CriticalDirections:
    """Positive zeros of the sign cubics g1 = y*f1(y) and g2 = y^2*f2(y).

    g1(0) = B1 > 0 and g1 is strictly decreasing, g2(0) = -C2 < 0 and g2 has
    a single positive zero; every Einstein root lies strictly between them,
    by the lemma of the ``yflow`` module docstring.  A non-maximal record
    has no such wedge and is refused.
    """
    p = c.planar
    if not p.maximal:
        raise SpaceModelError(f"critical directions need a maximal record: {c}")
    g1 = (-p.a2, 0.0, -p.a0, p.am1)
    # g1(2*B1/A1) is about -B1 in floats, where g1(B1/A1) may round to > 0
    y1 = rt.hybrid_root(g1, 0.0, 2.0 * p.am1 / p.a0)
    g2 = (p.b1, -p.b0, 0.0, -p.bm2)
    y2 = rt.hybrid_root(g2, 0.0, rt.root_bound(g2))
    # by the lemma g1(r) = r*f1(r) < 0 puts each root r above y1 and
    # g2(r) = r*r*f2(r) < 0 below y2; a maximal cubic has one, so y1 < y2
    return CriticalDirections(y_tilde_1=y1, y_tilde_2=y2)


def scalar_zero_directions(c: Coefficients) -> ScalarZeroDirections:
    """Directions on which the scalar curvature changes sign."""
    p = c.planar
    poly = p.scalar_zero
    if len(poly) == 3 and p.a0 < C0_BELOW:
        return ScalarZeroDirections(positive_roots=(2.0 * p.b0 / p.b1,),
                                    negative_roots=(), has_zero_root=True)
    found = [r for r, _ in rt.real_roots(poly)]
    # one negative zero and, above the stationary ray D/B, one positive
    # zero of a quadratic (zeros multiply to -C/A < 0, the positive one at
    # least 2*D/B), two of a cubic (p(0) < 0 < p(A2/B2) with A1*A2 >= B1*B2)
    pos = tuple(r for r in found if r > 0.0)
    neg = tuple(r for r in found if r < 0.0)
    return ScalarZeroDirections(positive_roots=pos, negative_roots=neg)
