"""Structure-constant models of compact homogeneous spaces.

A space enters as a table: summand dimensions d_i, Killing coefficients b_i
of the background metric, Casimir constants c_i and the fully symmetric
nonnegative triple products [ijk].  For every summand these satisfy the
balance relation

    d_i * b_i = 2 * d_i * c_i + sum_{j,k} [ijk].

Two-summand tables split by the vanishing pattern of [112]: if [112] = 0 an
intermediate subalgebra exists (non-maximal isotropy), otherwise the isotropy
group is maximal and both [112] and [122] are positive.  The derived flow
coefficients of both kinds are produced here, together with the planar-field
form they share, which every other module consumes.

Entries may be ints, floats or fractions.Fraction; derivations preserve
exact arithmetic when the table is exact.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import PositivityViolation, SpaceModelError

Number = int | float | Fraction

#: relative tolerance for the per-summand balance relation
BALANCE_RTOL = 1e-12
#: the largest finite float; an exact number above it has no float
FLOAT_MAX = 1.7976931348623157e308


class Kind(Enum):
    NON_MAXIMAL = "NonMaximal"
    MAXIMAL = "Maximal"


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    magnitude: Number       # in the table's arithmetic, exact or float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if not self.ok:
            lines = "; ".join(f"{v.rule}: {v.message}" for v in self.violations)
            raise SpaceModelError(lines)


@dataclass(frozen=True)
class GeneralSpace:
    """Homogeneous space with l irreducible isotropy summands, as a table."""

    name: str
    d: tuple[int, ...]
    b: tuple[Number, ...]
    c: tuple[Number, ...]
    triple: tuple[tuple[tuple[Number, ...], ...], ...]

    @property
    def l(self) -> int:
        return len(self.d)

    def t(self, i: int, j: int, k: int) -> Number:
        """Triple product [ijk] with 1-based indices."""
        return self.triple[i - 1][j - 1][k - 1]

    def triple_row_sum(self, i: int) -> Number:
        """sum_{j,k} [ijk] for the 1-based summand index i."""
        row = self.triple[i - 1]
        total: Number = 0
        for srow in row:
            for v in srow:
                total = total + v
        return total


@dataclass(frozen=True)
class TwoSummandSpace(GeneralSpace):
    """Two inequivalent summands; the kind follows from the [112] pattern."""

    def __post_init__(self):
        if self.l != 2:
            raise SpaceModelError(f"{self.name}: expected 2 summands, got {self.l}")
        t112, t122 = self.t(1, 1, 2), self.t(1, 2, 2)
        if t112 == 0 and t122 == 0:
            raise SpaceModelError(
                f"{self.name}: [112] = [122] = 0 is a product of isotropy "
                "irreducible factors; run irreducible_flow on each factor"
            )
        if t112 != 0 and t122 == 0:
            raise SpaceModelError(
                f"{self.name}: [112] > 0 with [122] = 0 is not a realisable "
                "two-summand interaction pattern"
            )

    @property
    def kind(self) -> Kind:
        return Kind.NON_MAXIMAL if self.t(1, 1, 2) == 0 else Kind.MAXIMAL


@dataclass(frozen=True)
class PlanarField:
    """The planar system of both isotropy kinds, in floating point.

    With y = x1/x2 the flow is

        x1' = f1(y) = -a0 + am1/y - a2*y^2,
        x2' = f2(y) = -b0 + b1*y - bm2/y^2,

    where the non-maximal kind has am1 = bm2 = 0.  ``homothety`` and
    ``scalar_zero`` hold, highest degree first, the polynomials whose roots
    are the Einstein directions (the zeros of f1 - y*f2) and the rays of
    vanishing scalar curvature; a quadratic in the non-maximal kind and a
    cubic in the maximal one.  ``maximal`` is read only where the kinds
    differ in wording or in curvature weights.
    """

    maximal: bool
    a0: float
    am1: float
    a2: float
    b0: float
    b1: float
    bm2: float
    d1: int
    d2: int
    homothety: tuple[float, ...]
    scalar_zero: tuple[float, ...]

    @property
    def planar(self) -> "PlanarField":
        """A field is its own planar form, so it can stand in for the
        coefficient records, e.g. time-reversed in ``flow.make_rhs``."""
        return self

    def time_reversed(self) -> "PlanarField":
        """The same system in the reversed time s = -t: every field term
        changes sign (exactly, in IEEE arithmetic); the polynomials and
        therefore the Einstein directions are unchanged."""
        return replace(self, a0=-self.a0, am1=-self.am1, a2=-self.a2,
                       b0=-self.b0, b1=-self.b1, bm2=-self.bm2)


@dataclass(frozen=True)
class NonMaxCoeffs:
    """Flow coefficients when an intermediate subalgebra exists.

    The planar system is x1' = -C - A*(x1/x2)^2, x2' = -D + B*(x1/x2),
    with A, B, D > 0, C >= 0 and the dimension-tied relation
    (d1/2)*A = (d2/4)*B.
    """

    A: Number
    B: Number
    C: Number
    D: Number
    d1: int
    d2: int

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0 and self.D > 0):
            raise PositivityViolation(f"A, B, D must be positive: {self}")
        if self.C < 0:
            raise PositivityViolation(f"C must be nonnegative: {self}")
        lhs, rhs = self.d1 * self.A / 2, self.d2 * self.B / 4
        # equal sides skip the tolerance, Fraction arithmetic for exact
        # records; inf against inf passes either way (inf - inf is nan)
        if lhs != rhs and \
                abs(lhs - rhs) > BALANCE_RTOL * max(abs(lhs), abs(rhs)):
            raise SpaceModelError(
                f"(d1/2)A = {lhs} and (d2/4)B = {rhs} must agree"
            )

    @cached_property
    def planar(self) -> PlanarField:
        A, B, C, D = float(self.A), float(self.B), float(self.C), float(self.D)
        d1, d2 = self.d1, self.d2
        return PlanarField(
            maximal=False, a0=C, am1=0.0, a2=A, b0=D, b1=B, bm2=0.0,
            d1=d1, d2=d2,
            # C - D*y + (A+B)*y^2, with A+B summed exactly
            homothety=(float(self.A + self.B), -D, C),
            scalar_zero=(A * d1, -D * d2, -C * d1),
        )


@dataclass(frozen=True)
class MaxCoeffs:
    """Flow coefficients for maximal isotropy.

    The planar system is x1' = -A1 + B1/y - C1*y^2 and
    x2' = -A2 + B2*y - C2/y^2 with y = x1/x2; all six coefficients are
    strictly positive, d1*B1 = 2*d2*C2, d2*B2 = 2*d1*C1 and
    A1*A2 >= B1*B2, which every table meets; any other record is refused
    here, and nothing downstream checks these again.
    """

    A1: Number
    B1: Number
    C1: Number
    A2: Number
    B2: Number
    C2: Number
    d1: int
    d2: int

    def __post_init__(self):
        for label in ("A1", "B1", "C1", "A2", "B2", "C2"):
            if not getattr(self, label) > 0:
                raise PositivityViolation(f"{label} must be positive: {self}")
        pairs = (
            (self.d1 * self.B1, 2 * self.d2 * self.C2, "d1*B1 = 2*d2*C2"),
            (self.d2 * self.B2, 2 * self.d1 * self.C1, "d2*B2 = 2*d1*C1"),
        )
        for lhs, rhs, label in pairs:
            if lhs != rhs and \
                    abs(lhs - rhs) > BALANCE_RTOL * max(abs(lhs), abs(rhs)):
                raise SpaceModelError(f"{label} violated: {lhs} vs {rhs}")
        # every table has A1 >= 2*B1 and A2 >= 2*B2, while the lemma of the
        # yflow module docstring needs only this (exact for exact records)
        if self.A1 * self.A2 < self.B1 * self.B2:
            raise SpaceModelError(
                f"no two-summand table yields A1*A2 < B1*B2: {self}")

    @cached_property
    def planar(self) -> PlanarField:
        A1, B1, C1 = float(self.A1), float(self.B1), float(self.C1)
        A2, B2, C2 = float(self.A2), float(self.B2), float(self.C2)
        d1, d2 = self.d1, self.d2
        return PlanarField(
            maximal=True, a0=A1, am1=B1, a2=C1, b0=A2, b1=B2, bm2=C2,
            d1=d1, d2=d2,
            # -(B2+C1)*y^3 + A2*y^2 - A1*y + (B1+C2), sums taken exactly
            homothety=(-float(self.B2 + self.C1), A2, -A1,
                       float(self.B1 + self.C2)),
            scalar_zero=(-0.25 * d2 * B2, 0.5 * d2 * A2, 0.5 * d1 * A1,
                         -0.25 * d1 * B1),
        )


Coefficients = NonMaxCoeffs | MaxCoeffs


def _close(a: Number, b: Number, rtol: float) -> bool:
    if a == b:
        # inf - inf is nan, so two infinite sides never agree
        return -math.inf < a < math.inf
    scale = max(abs(a), abs(b), 1)
    # beyond the float range rtol*scale is no bound: an exact scale is
    # compared exactly, and an infinite side agrees with no finite one
    return (abs(a - b) <= rtol * scale if scale <= FLOAT_MAX
            else abs(a - b) / scale <= rtol)


def validate(space: GeneralSpace) -> ValidationReport:
    """Check symmetry, sign constraints and the balance relation.

    Nothing is raised; every failed rule becomes one entry of the report.
    """
    bad: list[Violation] = []
    l = space.l
    shapes_ok = len(space.b) == l and len(space.c) == l and len(space.triple) == l
    for row in space.triple:
        shapes_ok = shapes_ok and len(row) == l and all(len(s) == l for s in row)
    if not shapes_ok:
        bad.append(Violation("shape", "field lengths disagree with l", float("nan")))
        return ValidationReport(tuple(bad))

    for i in range(1, l + 1):
        if not (isinstance(space.d[i - 1], int) and space.d[i - 1] >= 1):
            bad.append(Violation("dim-positive", f"d{i} must be a positive integer", 0.0))
        if not space.b[i - 1] > 0:
            bad.append(Violation("killing-positive", f"b{i} must be positive",
                                 -space.b[i - 1]))
        if space.c[i - 1] < 0:
            bad.append(Violation("casimir-nonnegative", f"c{i} must be nonnegative",
                                 -space.c[i - 1]))

    for i in range(1, l + 1):
        for j in range(i, l + 1):
            for k in range(j, l + 1):
                v = space.t(i, j, k)
                if v < 0:
                    bad.append(Violation(
                        "triple-nonnegative", f"[{i}{j}{k}] must be nonnegative",
                        -v))
                for p, q, r in {(i, k, j), (j, i, k), (j, k, i),
                                (k, i, j), (k, j, i)}:
                    w = space.t(p, q, r)
                    try:
                        gap = None if w is v else _gap(v, w)
                    except OverflowError:
                        gap = math.nan
                    if gap is not None:
                        bad.append(Violation(
                            "triple-symmetric",
                            f"[{i}{j}{k}] = {v} differs from [{p}{q}{r}] = {w}",
                            gap))

    for i in range(1, l + 1):
        try:
            lhs = space.d[i - 1] * space.b[i - 1]
            rhs = 2 * space.d[i - 1] * space.c[i - 1] + space.triple_row_sum(i)
            gap = _gap(lhs, rhs)
        except OverflowError:
            bad.append(Violation(
                "killing-casimir-balance",
                f"summand {i}: a float entry meets an exact one beyond the "
                "float range", math.nan))
            continue
        if gap is not None:
            bad.append(Violation(
                "killing-casimir-balance",
                f"summand {i}: d*b = {lhs} but 2*d*c + sum[ijk] = {rhs}", gap))

    return ValidationReport(tuple(bad))


def _gap(a: Number, b: Number) -> Number | None:
    """|a - b| for the two sides of a rule, or None when they agree to
    BALANCE_RTOL.  A float that meets an exact number beyond the float
    range, here or in a side's sum, raises OverflowError: no float holds
    the result, and ``validate`` records a magnitude of NaN."""
    return None if _close(a, b, BALANCE_RTOL) else abs(a - b)


def derive_coeffs(space: TwoSummandSpace) -> Coefficients:
    """Read off the flow coefficients of a validated two-summand table:
    ``NonMaxCoeffs`` for the non-maximal ``kind``, ``MaxCoeffs`` else."""
    validate(space).raise_if_invalid()
    d1, d2 = space.d
    t111, t112 = space.t(1, 1, 1), space.t(1, 1, 2)
    t122, t222 = space.t(1, 2, 2), space.t(2, 2, 2)
    # an exact entry beyond the float range overflows where it meets a
    # float, here or in the planar field every reader takes
    try:
        # the terms both kinds share, named as in the non-maximal record
        A, B = t122 / (2 * d1), t122 / d2
        C = space.b[0] - t111 / (2 * d1) - t122 / d1
        D = space.b[1] - t222 / (2 * d2)
        c = (NonMaxCoeffs(A=A, B=B, C=C, D=D, d1=d1, d2=d2)
             if space.kind is Kind.NON_MAXIMAL else
             MaxCoeffs(A1=C, B1=t112 / d1, C1=A, A2=D - t112 / d2, B2=B,
                       C2=t112 / (2 * d2), d1=d1, d2=d2))
        c.planar
    except OverflowError:
        raise SpaceModelError(f"{space.name}: a flow coefficient exceeds "
                              "the float range") from None
    return c


# ---------------------------------------------------------------------------
# construction helpers and the fixture catalog


def make_space(
    name: str,
    d: tuple[int, ...],
    b: tuple[Number, ...],
    triple_entries: dict[tuple[int, int, int], Number] | None = None,
    c: tuple[Number, ...] | None = None,
) -> GeneralSpace:
    """Build a space from one representative per unordered triple.

    When ``c`` is omitted the Casimir constants are back-solved from the
    balance relation, so the resulting table always validates.  When given,
    they are stored as-is and checked by ``validate``.
    """
    l = len(d)
    tbl = [[[_zero_like(b)] * l for _ in range(l)] for _ in range(l)]
    if triple_entries:
        for (i, j, k), v in triple_entries.items():
            for p, q, r in {(i, j, k), (i, k, j), (j, i, k), (j, k, i),
                            (k, i, j), (k, j, i)}:
                tbl[p - 1][q - 1][r - 1] = v
    triple = tuple(tuple(tuple(row) for row in plane) for plane in tbl)
    if c is None:
        cs = []
        for i in range(1, l + 1):
            total: Number = 0
            # a float that meets an exact number beyond the float range
            # overflows, as in validate's balance sums
            try:
                for j in range(l):
                    for k in range(l):
                        total = total + triple[i - 1][j][k]
                cs.append((d[i - 1] * b[i - 1] - total) / (2 * d[i - 1]))
            except OverflowError:
                raise SpaceModelError(
                    f"{name}: summand {i}: a float entry meets an exact one "
                    "beyond the float range") from None
        c = tuple(cs)
    cls = TwoSummandSpace if l == 2 else GeneralSpace
    return cls(name=name, d=tuple(d), b=tuple(b), c=tuple(c), triple=triple)


def _zero_like(values) -> Number:
    return Fraction(0) if any(isinstance(v, Fraction) for v in values) else 0


def _su42() -> TwoSummandSpace:
    # 12-dimensional space with intermediate group; carries no invariant
    # Einstein metric.  Exact rational table.
    return make_space(
        "SU42",
        d=(7, 5),
        b=(Fraction(1), Fraction(1)),
        triple_entries={(1, 1, 1): Fraction(21, 20), (1, 2, 2): Fraction(7, 4)},
    )


def sphere(n: int) -> GeneralSpace:
    """Round n-sphere as a one-summand table normalised to unit curvature.

    With b = 2(n-1) and no triple products the flow coefficient equals the
    twice-Einstein-constant of the unit round metric, so the flow through
    x0 = 1 is x(t) = 1 - 2(n-1)t.
    """
    if n < 2:
        raise SpaceModelError("sphere dimension must be at least 2")
    return make_space(f"SPHERE({n})", d=(n,), b=(2 * (n - 1),))


def _fix_a() -> TwoSummandSpace:
    # non-maximal, A=1 B=1 C=1 D=3: two Einstein directions 1/2 and 1
    return make_space("FIX-A", d=(2, 4), b=(3, 3), triple_entries={(1, 2, 2): 4})


def _fix_b() -> TwoSummandSpace:
    # non-maximal, A=1 B=1 C=1/2 D=2: double Einstein direction 1/2
    return make_space(
        "FIX-B", d=(2, 4), b=(Fraction(5, 2), 2), triple_entries={(1, 2, 2): 4}
    )


def _fix_c0() -> TwoSummandSpace:
    # non-maximal with vanishing constant term (c1 = 0, [111] = 0):
    # A=1 B=1 C=0 D=3, unique Einstein direction 3/2
    return make_space("FIX-C0", d=(1, 2), b=(2, 3), triple_entries={(1, 2, 2): 2})


def _fix_d() -> TwoSummandSpace:
    # maximal; Einstein cubic is -(y - 1/2)(y - 1)(y - 2)
    return make_space(
        "FIX-D",
        d=(2, 1),
        b=(Fraction(39, 10), Fraction(9, 2)),
        triple_entries={(1, 1, 2): Fraction(1), (1, 2, 2): Fraction(4, 5)},
    )


# Constant terms that merge, respectively eliminate, roots of the FIX-D
# cubic -y^3 + 3.5 y^2 - 3.5 y + k while b2 = 3.5 + k keeps A2 fixed.
FIX_E_CONSTANT = 0.7359235261347025
FIX_F_CONSTANT = 2.0
FIX_E2_CONSTANT = 1.0788912886801123  # double root below the simple root


def _fix_d_variant(name: str, k: float) -> TwoSummandSpace:
    return make_space(
        name,
        d=(2, 1),
        b=(3.9, 3.5 + k),
        triple_entries={(1, 1, 2): k, (1, 2, 2): 0.8},
    )


#: constructors of the named fixtures, in catalog order
_FIXTURES = {
    "SU42": _su42,
    "SPHERE(2)": lambda: sphere(2),
    "SPHERE(3)": lambda: sphere(3),
    "SPHERE(5)": lambda: sphere(5),
    "FIX-A": _fix_a,
    "FIX-B": _fix_b,
    "FIX-C0": _fix_c0,
    "FIX-D": _fix_d,
    "FIX-E": lambda: _fix_d_variant("FIX-E", FIX_E_CONSTANT),
    "FIX-E2": lambda: _fix_d_variant("FIX-E2", FIX_E2_CONSTANT),
    "FIX-F": lambda: _fix_d_variant("FIX-F", FIX_F_CONSTANT),
}


def catalog() -> dict[str, GeneralSpace]:
    """Named fixtures used by the test suites and the command line."""
    return {name: build() for name, build in _FIXTURES.items()}


_SPHERE_RE = re.compile(r"^SPHERE\((\d+)\)$")


def get_space(name: str) -> GeneralSpace:
    m = _SPHERE_RE.match(name)
    if m:
        return sphere(int(m.group(1)))
    if name not in _FIXTURES:
        raise SpaceModelError(
            f"unknown space {name!r}; known: {sorted(_FIXTURES)}")
    return _FIXTURES[name]()


# ---------------------------------------------------------------------------
# JSON space definition format


def _num_to_json(v: Number):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _num_from_json(v) -> Number:
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    return v


def space_to_dict(space: GeneralSpace) -> dict:
    entries = []
    l = space.l
    for i in range(1, l + 1):
        for j in range(i, l + 1):
            for k in range(j, l + 1):
                v = space.t(i, j, k)
                if v != 0:
                    entries.append({"i": i, "j": j, "k": k,
                                    "value": _num_to_json(v)})
    return {
        "name": space.name,
        "l": l,
        "d": list(space.d),
        "b": [_num_to_json(v) for v in space.b],
        "c": [_num_to_json(v) for v in space.c],
        "triple": entries,
    }


def _dimension(v) -> int:
    n = int(v)
    if n != float(v):
        raise ValueError(f"dimension {v!r} is not a whole number")
    return n


def space_from_dict(data: dict) -> GeneralSpace:
    try:
        d = tuple(_dimension(v) for v in data["d"])
        if "l" in data and data["l"] != len(d):
            raise ValueError(f"l = {data['l']} disagrees with {len(d)} dimensions")
        entries: dict = {}
        for e in data["triple"]:
            key = tuple(sorted((e["i"], e["j"], e["k"])))
            if not all(1 <= n <= len(d) for n in key):
                raise ValueError(f"triple index {key} outside 1..{len(d)}")
            if key in entries:
                raise ValueError(f"second entry for the triple {key}")
            entries[key] = _num_from_json(e["value"])
        return make_space(
            data["name"],
            d=d,
            b=tuple(_num_from_json(v) for v in data["b"]),
            triple_entries=entries,
            c=tuple(_num_from_json(v) for v in data["c"]) if data.get("c") else None,
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise SpaceModelError(f"malformed space definition: {exc}") from exc


def load_space(path: str) -> GeneralSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh))


def dump_space(space: GeneralSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(space), fh, indent=2, sort_keys=True)
        fh.write("\n")
