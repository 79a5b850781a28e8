import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrflow as h
from hrflow.einstein import ROOT_EXCLUSION
from hrflow.errors import NotAnEinsteinRoot, SpaceModelError
from hrflow.spaces import FIX_E2_CONSTANT, FIX_E_CONSTANT
from hrflow.yflow import YFlow

from oracles import max_cubic, max_cubic_bound, nonmax_quadratic, sweep_roots
from randspaces import (
    c0_boundary_starts,
    random_maximal_space,
    random_nonmaximal_space,
    random_tables,
)


def test_su42_has_no_einstein_direction(su42):
    es = h.einstein_roots(su42)
    assert es.case_label == "c"
    assert es.roots == ()
    disc = su42.D ** 2 - 4 * su42.C * (su42.A + su42.B)
    assert disc == Fraction(-113, 400)


def test_fix_a_roots(fix_a):
    es = h.einstein_roots(fix_a)
    assert es.case_label == "a"
    assert es.values == pytest.approx((0.5, 1.0), abs=1e-13)
    assert all(m == 1 for _, m in es.roots)


def test_fix_b_double_root(fix_b):
    es = h.einstein_roots(fix_b)
    assert es.case_label == "b"
    assert es.roots == ((pytest.approx(0.5, abs=1e-13), 2),)


def test_c0_single_direction(fix_c0):
    es = h.einstein_roots(fix_c0)
    assert es.case_label == "C0"
    assert es.values == (pytest.approx(1.5, abs=1e-13),)


def test_fix_d_cubic_roots(fix_d):
    es = h.einstein_roots(fix_d)
    assert es.case_label == "d"
    assert es.values == pytest.approx((0.5, 1.0, 2.0), abs=1e-12)


def test_fix_e_double_root(fix_e):
    es = h.einstein_roots(fix_e)
    assert es.case_label == "e"
    (r1, m1), (r2, m2) = es.roots
    assert (m1, m2) == (1, 2)
    # frozen from the constant-term merge of the FIX-D cubic
    assert r1 == pytest.approx(0.28474956297846959, abs=1e-9)
    assert r2 == pytest.approx(1.6076252185107651, abs=1e-9)


def test_fix_e2_double_below_single(fix_e2):
    es = h.einstein_roots(fix_e2)
    assert es.case_label == "e"
    (r1, m1), (r2, m2) = es.roots
    assert (m1, m2) == (2, 1)
    assert r1 == pytest.approx(0.72570811482256823, abs=1e-9)


def test_fix_f_single_root(fix_f):
    es = h.einstein_roots(fix_f)
    assert es.case_label == "f"
    assert es.values == (pytest.approx(2.3836728704309826, abs=1e-10),)


def test_scale_constants_fix_a(fix_a):
    assert h.einstein_scale_constants(fix_a, 1.0) == pytest.approx((2.0, 2.0))
    assert h.einstein_scale_constants(fix_a, 0.5) == pytest.approx((1.25, 2.5))


def test_scale_constants_against_solver_oracle(fix_b):
    from oracles import solve_shrink_system

    k = h.einstein_scale_constants(fix_b, 0.5)
    ko = solve_shrink_system(fix_b, 0.5)
    assert k == pytest.approx(ko, rel=1e-6)
    assert k[0] / k[1] == pytest.approx(0.5, abs=1e-12)


def test_scale_constants_reject_non_root(fix_a):
    with pytest.raises(NotAnEinsteinRoot):
        h.einstein_scale_constants(fix_a, 0.7)


def test_scale_constants_maximal(fix_d):
    # middle root sits on the diagonal: both rates equal 3.2 by direct
    # evaluation of the planar field there
    k = h.einstein_scale_constants(fix_d, 1.0)
    assert k == pytest.approx((3.2, 3.2), abs=1e-12)
    for root in (0.5, 2.0):
        k1, k2 = h.einstein_scale_constants(fix_d, root)
        assert k1 > 0 and k2 > 0
        assert k1 / k2 == pytest.approx(root, abs=1e-10)


def test_critical_directions_fix_d(fix_d):
    cd = h.critical_directions(fix_d)
    # frozen from a sign-change sweep of the two coordinate cubics
    assert cd.y_tilde_1 == pytest.approx(0.14269112574914958, abs=1e-10)
    assert cd.y_tilde_2 == pytest.approx(4.4071779844547265, abs=1e-10)
    assert cd.y_tilde_1 < 0.5 and 2.0 < cd.y_tilde_2


def test_critical_directions_match_sweep(fix_d, fix_e, fix_f):
    for c in (fix_d, fix_e, fix_f):
        cd = h.critical_directions(c)
        A1, B1, C1 = float(c.A1), float(c.B1), float(c.C1)
        A2, B2, C2 = float(c.A2), float(c.B2), float(c.C2)
        g1 = sweep_roots(lambda y: -C1 * y**3 - A1 * y + B1, 0.0, 10.0)
        g2 = sweep_roots(lambda y: B2 * y**3 - A2 * y**2 - C2, 0.0, 10.0)
        assert len(g1) == len(g2) == 1
        assert cd.y_tilde_1 == pytest.approx(g1[0], abs=1e-9)
        assert cd.y_tilde_2 == pytest.approx(g2[0], abs=1e-9)


def test_critical_directions_refuse_a_non_maximal_record(spaces):
    for name in ("SU42", "FIX-A", "FIX-B", "FIX-C0"):
        with pytest.raises(SpaceModelError, match="maximal"):
            h.critical_directions(h.derive_coeffs(spaces[name]))


def test_boundary_values_of_sign_cubics(fix_d):
    # g1 starts positive, g2 starts negative
    assert float(fix_d.B1) > 0
    assert -float(fix_d.C2) < 0


def test_scalar_zero_su42(su42):
    sz = h.scalar_zero_directions(su42)
    assert len(sz.positive_roots) == 1 and len(sz.negative_roots) == 1
    assert sz.positive_roots[0] == pytest.approx(6.5399767260707575, abs=1e-10)
    assert float(su42.D) / float(su42.B) == pytest.approx(20 / 7)
    assert float(su42.D) / float(su42.B) < sz.positive_roots[0]


def test_scalar_zero_c0(fix_c0):
    sz = h.scalar_zero_directions(fix_c0)
    assert sz.has_zero_root
    assert sz.positive_roots == (pytest.approx(6.0, abs=1e-13),)
    assert sz.negative_roots == ()


@pytest.mark.parametrize("C, label", [(0.0, "C0"), (5e-301, "C0"),
                                      (2e-300, "a")])
def test_vanishing_constant_is_decided_once(C, label):
    # the Einstein case and the scalar-zero rays read C through one test,
    # so case C0 always comes with the zero ray
    c = h.NonMaxCoeffs(A=0.5, B=0.5, C=C, D=2.0, d1=1, d2=2)
    assert h.einstein_roots(c).case_label == label
    sz = h.scalar_zero_directions(c)
    assert sz.has_zero_root is (label == "C0")
    assert sz.positive_roots == (pytest.approx(8.0),)


def test_scalar_zero_fix_d(fix_d):
    sz = h.scalar_zero_directions(fix_d)
    assert len(sz.positive_roots) == 2 and len(sz.negative_roots) == 1
    d1, d2 = fix_d.d1, fix_d.d2
    coeffs = [-(d2 / 4) * float(fix_d.B2), (d2 / 2) * float(fix_d.A2),
              (d1 / 2) * float(fix_d.A1), -(d1 / 4) * float(fix_d.B1)]
    got = sweep_roots(lambda y: np.polyval(coeffs, y), -5.0, 15.0)
    want = sorted(sz.negative_roots + sz.positive_roots)
    assert want == pytest.approx(got, abs=1e-9)


def test_quadratic_matches_sweep_on_random_spaces():
    rng = np.random.default_rng(7)
    for _ in range(60):
        c = h.derive_coeffs(random_nonmaximal_space(rng))
        es = h.einstein_roots(c)
        f = nonmax_quadratic(c)
        hi = (float(c.D) + 1.0) / (float(c.A) + float(c.B)) + 1.0
        got = sweep_roots(f, 0.0, hi)
        if es.case_label in ("a",):
            assert list(es.values) == pytest.approx(got, abs=1e-9)
        elif es.case_label == "c":
            assert got == []


def test_cubic_matches_sweep_on_random_spaces():
    rng = np.random.default_rng(11)
    for _ in range(60):
        c = h.derive_coeffs(random_maximal_space(rng))
        es = h.einstein_roots(c)
        got = sweep_roots(max_cubic(c), 0.0, max_cubic_bound(c))
        simple = [r for r, m in es.roots if m == 1]
        if es.count_distinct * 2 - len(simple) < 4:  # no merged pair nearby
            assert len(got) >= 1
        for r in got:
            assert min(abs(r - v) for v in es.values) < 1e-9
        neg = sweep_roots(max_cubic(c), -max_cubic_bound(c), 0.0)
        assert neg == []


def test_einstein_roots_between_critical_directions():
    rng = np.random.default_rng(13)
    for _ in range(40):
        c = h.derive_coeffs(random_maximal_space(rng))
        es = h.einstein_roots(c)
        cd = h.critical_directions(c)
        assert cd.y_tilde_1 < cd.y_tilde_2
        for r in es.values:
            assert cd.y_tilde_1 < r < cd.y_tilde_2


def test_record_on_the_door_is_served_and_one_below_refused():
    # A1*A2 = B1*B2 exactly: the lemma is strict (f1(r) >= 0 needs
    # r < B1/A1 and f2(r) >= 0 needs r > A2/B2), so the record is accepted,
    # and the cubic -(y - 1)(3y^2 + y + 3)/2 has its one root at y = 1
    one, half = Fraction(1), Fraction(1, 2)
    kw = dict(A1=one, B1=one, C1=half, B2=one, C2=half, d1=1, d2=1)
    c = h.MaxCoeffs(A2=one, **kw)
    es = h.einstein_roots(c)
    assert es.roots == ((1.0, 1),) and es.case_label == "f"
    # -(y + 1)(y^2 - 3y + 1)/4
    sz = h.scalar_zero_directions(c)
    assert sz.negative_roots == pytest.approx((-1.0,), rel=1e-12)
    assert sz.positive_roots == pytest.approx(
        ((3 - 5 ** 0.5) / 2, (3 + 5 ** 0.5) / 2), rel=1e-12)
    cd = h.critical_directions(c)
    assert cd.y_tilde_1 < 1.0 < cd.y_tilde_2
    ends = YFlow(c, es).run([0.5, 1.0, 2.0])
    assert ends.y_forward.tolist() == [1.0, 1.0, 1.0]
    assert ends.shrinks.all() and np.all(ends.T > 0.0)
    with pytest.raises(SpaceModelError, match="no two-summand table"):
        h.MaxCoeffs(A2=Fraction(999, 1000), **kw)


def test_raw_records_are_refused_or_keep_the_root_layer_whole():
    # raw records that no table need yield: each is refused where built,
    # or has two positive and one negative scalar zero and every Einstein
    # direction strictly inside the critical wedge
    rng = np.random.default_rng(5)
    refused = served = 0
    for _ in range(3000):
        A1, A2, B1, B2 = np.exp(rng.uniform(-5, 3, 4)).tolist()
        d1, d2 = rng.integers(1, 9, 2).tolist()
        kw = dict(A1=A1, B1=B1, C1=d2 * B2 / (2 * d1),
                  A2=A2, B2=B2, C2=d1 * B1 / (2 * d2), d1=d1, d2=d2)
        try:
            c = h.MaxCoeffs(**kw)
        except SpaceModelError:
            assert A1 * A2 < B1 * B2, kw
            refused += 1
            continue
        es = h.einstein_roots(c)
        sz = h.scalar_zero_directions(c)
        cd = h.critical_directions(c)
        assert len(sz.positive_roots) == 2, c
        assert len(sz.negative_roots) == 1, c
        assert es.values, c
        for r in es.values:
            assert cd.y_tilde_1 < r < cd.y_tilde_2, (c, r)
        served += 1
    assert refused > 1000 and served > 1000, (refused, served)


def test_maximal_scalar_zero_sign_pattern_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        c = h.derive_coeffs(random_maximal_space(rng))
        sz = h.scalar_zero_directions(c)
        assert len(sz.positive_roots) == 2
        assert len(sz.negative_roots) == 1


@settings(max_examples=80, deadline=None)
@given(
    A=st.floats(0.05, 5.0),
    C=st.one_of(st.just(0.0), st.floats(1e-6, 5.0)),
    D=st.floats(0.1, 6.0),
    d1=st.integers(1, 8), d2=st.integers(1, 8),
)
def test_quadratic_roots_always_positive(A, C, D, d1, d2):
    B = 2.0 * d1 * A / d2
    c = h.NonMaxCoeffs(A=A, B=B, C=C, D=D, d1=d1, d2=d2)
    es = h.einstein_roots(c)
    for r in es.values:
        assert r > 0.0
    if C > 0:
        assert es.case_label in ("a", "b", "c")


@settings(max_examples=80, deadline=None)
@given(
    A1=st.floats(0.05, 5.0), A2=st.floats(0.05, 5.0),
    B1=st.floats(0.05, 5.0), B2=st.floats(0.05, 5.0),
    d1=st.integers(1, 8), d2=st.integers(1, 8),
)
def test_cubic_has_positive_roots_only(A1, A2, B1, B2, d1, d2):
    kw = dict(A1=A1, B1=B1, C1=d2 * B2 / (2 * d1),
              A2=A2, B2=B2, C2=d1 * B1 / (2 * d2), d1=d1, d2=d2)
    if A1 * A2 < B1 * B2:
        # no table yields such a record, and it is refused where built
        with pytest.raises(SpaceModelError, match="no two-summand table"):
            h.MaxCoeffs(**kw)
        return
    c = h.MaxCoeffs(**kw)
    es = h.einstein_roots(c)
    assert es.count_distinct >= 1
    for r in es.values:
        assert r > 0.0


def test_root_residuals_are_tight(fix_d, fix_a):
    from hrflow import roots as rt

    es = h.einstein_roots(fix_d)
    coeffs = (-(float(fix_d.B2) + float(fix_d.C1)), float(fix_d.A2),
              -float(fix_d.A1), float(fix_d.B1) + float(fix_d.C2))
    for r in es.values:
        assert abs(rt.eval_poly(coeffs, r)) <= 1e-10 * rt.poly_scale(coeffs, r)
    es2 = h.einstein_roots(fix_a)
    q = (float(fix_a.A) + float(fix_a.B), -float(fix_a.D), float(fix_a.C))
    for r in es2.values:
        assert abs(rt.eval_poly(q, r)) <= 1e-12 * rt.poly_scale(q, r)


def _locate_reference(roots, y):
    """Roots at or below y, and the first root within ROOT_EXCLUSION *
    min(1 + r, 2r) of it (else -1), one root at a time."""
    below = sum(r <= y for r in roots)
    on = [k for k, r in enumerate(roots)
          if abs(y - r) <= ROOT_EXCLUSION * min(1.0 + r, 2.0 * r)]
    return below, on[0] if on else -1


def _probe_ratios(rng, roots):
    """Log-uniform ratios, and ratios r*(1 +- k*1e-10) about every root r,
    which straddle the tolerance of ``locate``."""
    ys = list(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 50)))
    k = np.arange(0, 201) * 1e-10
    for r in roots:
        ys += list(r * (1.0 + k)) + list(r * (1.0 - k))
    return np.array(ys)


def test_locate_against_a_per_root_reference():
    rng = np.random.default_rng(4)
    cases = set()
    for i in range(80):
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        es = h.einstein_roots(h.derive_coeffs(draw(rng)))
        cases.add(es.case_label)
        ys = _probe_ratios(rng, es.values)
        want = [_locate_reference(es.values, y) for y in ys.tolist()]
        below, on = es.locate(ys)
        assert list(zip(below.tolist(), on.tolist())) == want
        for y, (b, k) in zip(ys[::7].tolist(), want[::7]):
            sb, sk = es.locate(y)
            assert (int(sb), int(sk)) == (b, k)
            assert es.on_root(y) == (None if k < 0 else es.values[k])
        # both faces tell a root from its tolerance boundary
        assert any(k >= 0 for _, k in want) == bool(es.roots)
    assert {"a", "c", "d", "f"} <= cases


FIXTURES = ("SU42", "FIX-A", "FIX-B", "FIX-C0", "FIX-D", "FIX-E", "FIX-E2",
            "FIX-F")

#: SHA-256 over the reprs of ``einstein_roots``, ``scalar_zero_directions``
#: and ``critical_directions`` (or the name of the error each raises) on
#: the records of ``_roots_records``.  It pins this platform's
#: floating-point results of the root layer: a rewrite that promises the
#: same roots must leave it as it is, and a deliberate numerical change
#: re-records it with
#:
#:     PYTHONPATH=src python tests/test_einstein.py
ROOTS_DIGEST = (
    'ea12eb45c4ecfb2960337178eb5d6c5047d7451be43f8d9b0e1db32d9d25f2c1')


def _roots_records():
    """About 2,200 records: the 8 fixtures, seeded random tables of both
    kinds and of the a <-> C0 boundary, quadratics at relative distance
    10^-k (k = 1..16) on either side of the a <-> b boundary
    C = D^2/(4(A+B)), quadratics whose pair, real or complex, lies
    1e-7 * (1 + centre) * (1 +- 10^-u) apart (u in [1, 3]), astride
    today's merge distance, and FIX-D-family tables whose constant term sits
    m * 10^-k (m in [1, 10), k = 2..16) on either side of FIX_E_CONSTANT
    or FIX_E2_CONSTANT."""
    for name in FIXTURES:
        yield h.derive_coeffs(h.get_space(name))
    for space, _ in random_tables(23, 1000):
        yield h.derive_coeffs(space)
    for c, _, _ in c0_boundary_starts(23, 200):
        yield c
    rng = np.random.default_rng(23)
    for _ in range(500):
        d1, d2 = (int(d) for d in rng.integers(1, 9, 2))
        A, D = float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.1, 6.0))
        B = 2.0 * d1 * A / d2
        sign = float(rng.choice((-1.0, 1.0)))
        rel = sign * 10.0 ** -int(rng.integers(1, 17))
        C = D * D / (4.0 * (A + B)) * (1.0 + rel)
        yield h.NonMaxCoeffs(A=A, B=B, C=C, D=D, d1=d1, d2=d2)
    for _ in range(200):
        d1, d2 = (int(d) for d in rng.integers(1, 9, 2))
        A, D = float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.1, 6.0))
        B = 2.0 * d1 * A / d2
        a = A + B
        sign = float(rng.choice((-1.0, 1.0)))
        gap = 1e-7 * (1.0 + D / (2.0 * a)) * (
            1.0 + sign * 10.0 ** -float(rng.uniform(1.0, 3.0)))
        sign = float(rng.choice((-1.0, 1.0)))
        C = (D * D - sign * (gap * a) ** 2) / (4.0 * a)
        yield h.NonMaxCoeffs(A=A, B=B, C=C, D=D, d1=d1, d2=d2)
    for i in range(300):
        base = FIX_E_CONSTANT if i % 2 == 0 else FIX_E2_CONSTANT
        k = base + float(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0)
                         * 10.0 ** -int(rng.integers(2, 17)))
        yield h.derive_coeffs(h.make_space(
            f"FIXD{i}", d=(2, 1), b=(3.9, 3.5 + k),
            triple_entries={(1, 1, 2): k, (1, 2, 2): 0.8}))


def roots_digest() -> str:
    digest = hashlib.sha256()
    for c in _roots_records():
        for f in (h.einstein_roots, h.scalar_zero_directions,
                  h.critical_directions):
            try:
                out = repr(f(c))
            except (AssertionError, SpaceModelError) as e:
                out = type(e).__name__  # the refusal is part of the answer
            digest.update(f"{out}\n".encode())
    return digest.hexdigest()


def test_roots_digest():
    assert roots_digest() == ROOTS_DIGEST


if __name__ == "__main__":
    print(f"ROOTS_DIGEST = {roots_digest()!r}")
