"""Every branch of ``roots.real_roots``, the one real-root isolator of the
homothety and scalar-zero polynomials of both isotropy kinds."""

import numpy as np
import pytest

import hrflow as h
from hrflow.roots import hybrid_root, real_roots

from oracles import sweep_roots


def _homothety(name):
    return h.derive_coeffs(h.get_space(name)).planar.homothety


def _swept(coeffs):
    bound = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    return sweep_roots(lambda y: np.polyval(coeffs, y), -bound, bound)


def test_saddle_triple_root():
    # (y - 1)^3: the two critical points coincide on the root
    assert real_roots((1.0, -3.0, 3.0, -1.0)) == [(1.0, 3)]


def test_two_critical_points_on_one_root():
    # y^3 - 3e-16 y: critical points at +-1e-8, both below the merge size
    [(r, m)] = real_roots((1.0, 0.0, -3e-16, 0.0))
    assert m == 3 and abs(r) < 1e-20


def test_critical_point_is_a_double_root():
    # FIX-E: the FIX-D cubic with its two upper roots merged
    (r1, m1), (r2, m2) = real_roots(_homothety("FIX-E"))
    assert (m1, m2) == (1, 2) and r1 < r2


def test_quadratic_pair_within_the_merge_distance_is_double():
    assert real_roots(_homothety("FIX-B")) == [(0.5, 2)]


@pytest.mark.parametrize("coeffs", [
    _homothety("FIX-D"),   # three simple roots between the critical points
    _homothety("FIX-F"),   # one simple root beside the critical points
    (1.0, 0.0, 1.0, -2.0),  # monotone: (y - 1)(y^2 + y + 2)
    _homothety("FIX-A"),   # quadratic with two simple roots
    (2.0, -8.0, -1.0),     # roots of opposite sign
])
def test_simple_roots_match_the_sweep(coeffs):
    found = real_roots(coeffs)
    assert [m for _, m in found] == [1] * len(found)
    assert [r for r, _ in found] == pytest.approx(_swept(coeffs), abs=1e-9)


def test_complex_pair_has_no_real_root():
    assert real_roots((1.0, 0.0, 1.0)) == []


@pytest.mark.parametrize("lo,hi", [(1.0, 2.0), (0.0, 1.0)])
def test_exact_zero_at_either_end_of_the_bracket(lo, hi):
    # y^3 - 1 is exactly 0 at y = 1, which is returned with no bisection
    assert hybrid_root((1.0, 0.0, 0.0, -1.0), lo, hi) == 1.0


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 1.0), (0.0, 1.0, -2.0, 1.0)])
def test_zero_leading_coefficient_is_refused(coeffs):
    with pytest.raises(ValueError, match="leading coefficient"):
        real_roots(coeffs)
