from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrflow as h
from hrflow.errors import PositivityViolation, SpaceModelError
from hrflow.spaces import BALANCE_RTOL, GeneralSpace

from randspaces import random_maximal_space, random_nonmaximal_space


def test_su42_table_is_exact(spaces):
    su = spaces["SU42"]
    assert su.d == (7, 5)
    assert su.b == (Fraction(1), Fraction(1))
    assert su.t(1, 1, 1) == Fraction(21, 20)
    assert su.t(1, 2, 2) == Fraction(7, 4)
    # back-solved Casimir constants
    assert su.c == (Fraction(3, 10), Fraction(3, 20))
    assert h.validate(su).ok


def test_su42_coefficients_exact(spaces):
    c = h.derive_coeffs(spaces["SU42"])
    assert (c.A, c.B, c.C, c.D) == (
        Fraction(1, 8), Fraction(7, 20), Fraction(27, 40), Fraction(1))
    # dimension-tied relation between the two interaction coefficients
    assert Fraction(c.d1, 2) * c.A == Fraction(c.d2, 4) * c.B == Fraction(7, 16)


def test_validate_reports_asymmetric_triple():
    tbl = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    sp = GeneralSpace(name="broken", d=(2, 2), b=(1, 1), c=(0, 0),
                      triple=tuple(tuple(tuple(r) for r in p) for p in tbl))
    report = h.validate(sp)
    assert not report.ok
    assert any(v.rule == "triple-symmetric" for v in report.violations)


def test_validate_reports_balance_violation():
    sp = h.make_space("off", d=(2, 4), b=(3, 3),
                      triple_entries={(1, 2, 2): 4}, c=(0.5, 0.9))
    report = h.validate(sp)
    rules = {v.rule for v in report.violations}
    assert "killing-casimir-balance" in rules
    with pytest.raises(SpaceModelError, match="killing-casimir-balance"):
        h.derive_coeffs(sp)


def test_vanishing_constant_term(spaces):
    # no Casimir on the first summand and no self-interaction force C = 0
    c = h.derive_coeffs(spaces["FIX-C0"])
    assert spaces["FIX-C0"].c[0] == 0
    assert spaces["FIX-C0"].t(1, 1, 1) == 0
    assert c.C == 0


def test_fix_d_casimir_values(spaces):
    fd = spaces["FIX-D"]
    assert fd.c == (Fraction(5, 4), Fraction(19, 20))
    assert float(fd.c[0]) == 1.25 and float(fd.c[1]) == 0.95
    assert h.validate(fd).ok


def test_catalog_entries_validate(spaces):
    for name, sp in spaces.items():
        assert h.validate(sp).ok, name


def test_catalog_lookups(spaces):
    assert h.get_space("SU42").d == (7, 5)
    s3 = h.get_space("SPHERE(3)")
    assert s3.l == 1 and s3.t(1, 1, 1) == 0
    assert h.validate(h.get_space("FIX-D")).ok
    with pytest.raises(SpaceModelError):
        h.get_space("NOPE")


def test_sphere_normalisation():
    s = h.sphere(5)
    assert s.d == (5,) and s.b == (8,) and s.c == (4,)


def test_kind_detection(spaces):
    assert spaces["SU42"].kind is h.Kind.NON_MAXIMAL
    assert spaces["FIX-D"].kind is h.Kind.MAXIMAL


def test_product_pattern_rejected():
    with pytest.raises(SpaceModelError, match="irreducible_flow"):
        h.make_space("prod", d=(2, 3), b=(1, 1), triple_entries={})


def test_lone_112_rejected():
    with pytest.raises(SpaceModelError):
        h.make_space("odd", d=(2, 3), b=(1, 1), triple_entries={(1, 1, 2): 1})


def test_derive_coeffs_is_the_one_door(spaces):
    # the record follows the [112] pattern; there is no per-kind door
    assert type(h.derive_coeffs(spaces["SU42"])) is h.NonMaxCoeffs
    assert type(h.derive_coeffs(spaces["FIX-D"])) is h.MaxCoeffs
    for name in ("derive_nonmaximal_coeffs", "derive_maximal_coeffs",
                 "quadratic_einstein_roots", "cubic_einstein_roots",
                 "KindMismatch"):
        assert not hasattr(h, name), name
    for name in ("SU42", "FIX-D"):
        assert not hasattr(h.derive_coeffs(spaces[name]), "kind")


def test_coeff_constructors_guard_signs():
    with pytest.raises(PositivityViolation):
        h.NonMaxCoeffs(A=1.0, B=1.0, C=-0.1, D=3.0, d1=2, d2=4)
    with pytest.raises(PositivityViolation):
        h.MaxCoeffs(A1=-1.0, B1=0.5, C1=0.2, A2=3.5, B2=0.8, C2=0.5,
                    d1=2, d2=1)
    with pytest.raises(SpaceModelError):
        # cross-relation d2*B2 = 2*d1*C1 broken
        h.MaxCoeffs(A1=1.0, B1=0.5, C1=0.3, A2=3.5, B2=0.8, C2=0.5,
                    d1=2, d2=1)


def test_max_coeffs_refuses_a_record_no_table_yields():
    # A1*A2 < B1*B2, with C1 and C2 from the balance relations: its cubic
    # has the Einstein direction y = 1, where f1 = f2 = 0.4 > 0 against the
    # lemma every verdict rests on, so the record is refused where built
    with pytest.raises(SpaceModelError, match="no two-summand table"):
        h.MaxCoeffs(A1=0.1, B1=1.0, C1=0.5, A2=0.1, B2=1.0, C2=0.5,
                    d1=1, d2=1)


def test_fix_d_derivation(spaces):
    c = h.derive_coeffs(spaces["FIX-D"])
    vals = tuple(float(v) for v in (c.A1, c.B1, c.C1, c.A2, c.B2, c.C2))
    assert vals == (3.5, 0.5, 0.2, 3.5, 0.8, 0.5)
    assert float(c.d2 * c.B2) == float(2 * c.d1 * c.C1) == 0.8
    assert float(c.d1 * c.B1) == float(2 * c.d2 * c.C2) == 1.0


def test_fix_d_perturbed_killing_still_positive(spaces):
    fd = spaces["FIX-D"]
    sp = h.make_space("FIX-D-b1-3.0", d=fd.d, b=(3.0, fd.b[1]),
                      triple_entries={(1, 1, 2): fd.t(1, 1, 2),
                                      (1, 2, 2): fd.t(1, 2, 2)})
    c = h.derive_coeffs(sp)
    assert float(c.A1) == pytest.approx(2.6, abs=1e-15)


def test_json_round_trip_exact(spaces, tmp_path):
    for name in ("SU42", "FIX-E", "FIX-A", "SPHERE(3)"):
        sp = spaces.get(name) or h.get_space(name)
        path = tmp_path / f"{name}.json"
        h.dump_space(sp, str(path))
        back = h.load_space(str(path))
        assert back.name == sp.name
        assert back.d == sp.d
        assert back.b == sp.b
        assert back.c == sp.c
        assert back.triple == sp.triple


def test_json_malformed_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "l": 2}')
    with pytest.raises(SpaceModelError):
        h.load_space(str(path))


def test_back_solved_casimir_matches_explicit():
    auto = h.make_space("auto", d=(2, 4), b=(3, 3),
                        triple_entries={(1, 2, 2): 4})
    assert auto.c == (0.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_nonmaximal_spaces_derive(seed):
    rng = np.random.default_rng(seed)
    sp = random_nonmaximal_space(rng)
    assert h.validate(sp).ok
    c = h.derive_coeffs(sp)
    assert type(c) is h.NonMaxCoeffs
    assert c.A > 0 and c.B > 0 and c.D > 0 and c.C >= 0
    lhs, rhs = c.d1 * c.A / 2, c.d2 * c.B / 4
    assert abs(lhs - rhs) <= BALANCE_RTOL * max(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_maximal_spaces_derive(seed):
    rng = np.random.default_rng(seed)
    sp = random_maximal_space(rng)
    assert h.validate(sp).ok
    c = h.derive_coeffs(sp)
    assert type(c) is h.MaxCoeffs
    for v in (c.A1, c.B1, c.C1, c.A2, c.B2, c.C2):
        assert v > 0


def test_get_space_builds_only_the_named_fixture(monkeypatch, spaces):
    def refuse():
        raise AssertionError("get_space built the whole catalog")

    monkeypatch.setattr(h.spaces, "catalog", refuse)
    for name, space in spaces.items():
        assert h.get_space(name) == space, name
    assert h.get_space("SPHERE(7)") == h.sphere(7)
    assert list(spaces) == ["SU42", "SPHERE(2)", "SPHERE(3)", "SPHERE(5)",
                            "FIX-A", "FIX-B", "FIX-C0", "FIX-D", "FIX-E",
                            "FIX-E2", "FIX-F"]
