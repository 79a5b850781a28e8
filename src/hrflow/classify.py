"""Case taxonomy of initial conditions and verification of flow outcomes.

A regime places the starting direction y0 among the homothety roots; the
case families are a, b, c (non-maximal by root count), C0 (vanishing
constant term) and d, e, f (maximal by root count), and
``predicted_report`` holds the case table's outcome for each.  A behaviour
report is decided independently of both, in closed form along y by
``yflow``: collapse mode, singularity type (whether (T - t) * kappa stays
bounded), ancient existence and type (whether |t| * kappa does), the
limiting directions at both ends and the singular time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .einstein import CriticalDirections, EinsteinSet, einstein_roots
from .errors import (
    InsufficientHorizon,
    NotCollapsed,
    OnEinsteinRoot,
)
from .flow import Termination, Trajectory
from .spaces import Coefficients
from .yflow import YFlow

class Outcome(Enum):
    SHRINK_TO_POINT = "ShrinkToPoint"
    FIBER_COLLAPSE = "FiberCollapse"
    SIMULTANEOUS_COLLAPSE = "SimultaneousCollapse"


class SingularType(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class RegimeLabel:
    """Interval position of y0 in the case taxonomy.

    subcase numbering: a in 1..3, b in 1..2, d in 1..4, e in 1..6 (4..6 when
    the double root lies below the simple root), C0 uses "below"/"above";
    cases c and f carry no subcase.
    """

    family: str
    subcase: int | str | None = None
    single_below_double: bool | None = None  # case e ordering data

    def __str__(self) -> str:
        if self.subcase is None:
            return self.family
        sep = "/" if isinstance(self.subcase, str) else ""
        return f"{self.family}{sep}{self.subcase}"


@dataclass(frozen=True)
class BehaviorReport:
    regime: RegimeLabel
    forward_outcome: Outcome
    singular_type: SingularType
    forward_y_limit: float | None
    ancient_exists: bool | None
    ancient_type: SingularType | None
    backward_y_limit: float | None
    T_estimate: float | None = None

    def to_dict(self) -> dict:
        return {
            "regime": {
                "family": self.regime.family,
                "subcase": self.regime.subcase,
                "single_below_double": self.regime.single_below_double,
            },
            "forward_outcome": self.forward_outcome.value,
            "singular_type": self.singular_type.value,
            "forward_y_limit": self.forward_y_limit,
            "ancient_exists": self.ancient_exists,
            "ancient_type": None if self.ancient_type is None
                            else self.ancient_type.value,
            "backward_y_limit": self.backward_y_limit,
            "T_estimate": self.T_estimate,
        }


def regime_of(coeffs: Coefficients, einstein: EinsteinSet,
              critical: CriticalDirections | None, y0: float) -> RegimeLabel:
    """Pure interval classification of y0 against the sorted roots.

    The case label of ``einstein`` carries everything needed; ``coeffs``
    and ``critical`` are accepted so that positional callers keep working.
    """
    if not y0 > 0:
        raise ValueError(f"y0 must be positive, got {y0}")
    (regime,) = _regimes(einstein, [y0])
    if regime.family == "fixed":
        raise OnEinsteinRoot(f"y0 = {y0} sits on the fixed direction "
                             f"{einstein.values[regime.subcase - 1]}")
    return regime


def _regimes(einstein: EinsteinSet, y0s) -> list[RegimeLabel]:
    """The regime of each start: its interval between the sorted roots, or
    ``fixed`` and the 1-based index of the root it sits on."""
    family = einstein.case_label
    # case e numbers its intervals 4..6 when the double root is the lower
    single_below = einstein.roots[0][1] == 1 if family == "e" else None
    shift = 3 if single_below is False else 0
    below, on = einstein.locate(y0s)
    out = []
    # sub is the 1-based index of the interval between sorted roots
    for sub, k in zip((below + 1).tolist(), on.tolist()):
        if k >= 0:
            out.append(RegimeLabel("fixed", k + 1))
        elif family in ("c", "f"):
            out.append(RegimeLabel(family))
        elif family == "C0":
            out.append(RegimeLabel("C0", "below" if sub == 1 else "above"))
        else:
            out.append(RegimeLabel(family, sub + shift,
                                   single_below_double=single_below))
    return out


def _shrink_outcome(coeffs: Coefficients) -> Outcome:
    """Name of a collapse of the whole space, which differs by kind."""
    return (Outcome.SIMULTANEOUS_COLLAPSE if coeffs.planar.maximal
            else Outcome.SHRINK_TO_POINT)


@dataclass(frozen=True)
class Prediction:
    """Outcome table of the case analysis, used to check trajectories."""

    outcome: Outcome
    forward_y_limit: float | None
    ancient_exists: bool
    ancient_type: SingularType | None
    backward_y_limit: float | None


def predicted_report(regime: RegimeLabel, einstein: EinsteinSet,
                     coeffs: Coefficients) -> Prediction:
    """What the case analysis asserts for a regime, before any numerics."""
    shrink = _shrink_outcome(coeffs)
    t1 = SingularType.TYPE_I
    fam, sub = regime.family, regime.subcase
    if fam == "a":
        y1, y2 = einstein.values
        return {
            1: Prediction(Outcome.FIBER_COLLAPSE, 0.0, True, t1, y1),
            2: Prediction(shrink, y2, True, t1, y1),
            3: Prediction(shrink, y2, False, None, None),
        }[sub]
    if fam == "b":
        ybar = einstein.values[0]
        if sub == 1:
            return Prediction(Outcome.FIBER_COLLAPSE, 0.0, True, t1, ybar)
        return Prediction(shrink, ybar, False, None, None)
    if fam == "c":
        return Prediction(Outcome.FIBER_COLLAPSE, 0.0, False, None, None)
    if fam == "C0":
        ybar = einstein.values[0]
        if sub == "below":
            return Prediction(shrink, ybar, True, SingularType.TYPE_II, 0.0)
        return Prediction(shrink, ybar, False, None, None)
    if fam == "d":
        y1, y2, y3 = einstein.values
        return {
            1: Prediction(shrink, y1, False, None, None),
            2: Prediction(shrink, y1, True, t1, y2),
            3: Prediction(shrink, y3, True, t1, y2),
            4: Prediction(shrink, y3, False, None, None),
        }[sub]
    if fam == "e":
        (r_lo, m_lo), (r_hi, _) = einstein.roots
        single, double = (r_lo, r_hi) if m_lo == 1 else (r_hi, r_lo)
        return {
            1: Prediction(shrink, r_lo, False, None, None),
            2: Prediction(shrink, single, True, t1, double),
            3: Prediction(shrink, r_hi, False, None, None),
            4: Prediction(shrink, r_lo, False, None, None),
            5: Prediction(shrink, single, True, t1, double),
            6: Prediction(shrink, r_hi, False, None, None),
        }[sub]
    if fam == "f":
        return Prediction(shrink, einstein.values[0], False, None, None)
    raise ValueError(f"unknown regime family {fam!r}")


# ---------------------------------------------------------------------------
# behaviour reports


def classify_starts(coeffs: Coefficients, einstein: EinsteinSet, y0s, *,
                    backward: bool = True, engine: YFlow | None = None,
                    ) -> list[BehaviorReport]:
    """Behaviour reports of the flows from (x1, x2) = (y0, 1), one per
    start and its regime, with every verdict and T from the closed form
    along y (``yflow``, set up here unless ``engine`` is given);
    ``backward=False`` leaves the ancient fields unset."""
    if engine is None:
        engine = YFlow(coeffs, einstein)
    ends = engine.run(y0s)
    shrink = _shrink_outcome(coeffs)
    t1, t2 = SingularType.TYPE_I, SingularType.TYPE_II
    reports = []
    for i, regime in enumerate(_regimes(einstein, y0s)):
        ancient = bool(ends.ancient[i]) if backward else None
        reports.append(BehaviorReport(
            regime=regime,
            forward_outcome=(shrink if ends.shrinks[i]
                             else Outcome.FIBER_COLLAPSE),
            singular_type=t1 if ends.type_one[i] else t2,
            forward_y_limit=float(ends.y_forward[i]),
            ancient_exists=ancient,
            ancient_type=((t1 if ends.ancient_type_one[i] else t2)
                          if ancient else None),
            backward_y_limit=(float(ends.y_backward[i]) if ancient
                              else None),
            T_estimate=float(ends.T[i]),
        ))
    return reports


def classify_trajectory(fwd: Trajectory, bwd: Trajectory | None,
                        coeffs: Coefficients,
                        einstein: EinsteinSet | None = None, *,
                        engine: YFlow | None = None,
                        ) -> BehaviorReport:
    """The behaviour report of the flow that ``fwd`` starts.

    The forward trajectory must have collapsed, and a backward trajectory,
    when given, must not have run out of steps (a horizon or a runaway
    ending is fine); without one the ancient fields stay unset.  The
    verdicts and the singular time come from the closed form along y for
    the start ``fwd.y[0]``, with T scaled by ``fwd.x2[0]``; the
    trajectories themselves are not read further.  ``engine``, when given,
    is the ``YFlow`` of ``coeffs`` and ``einstein``.
    """
    if not fwd.termination.is_collapse:
        raise NotCollapsed(f"trajectory ended with {fwd.termination.value}")
    if bwd is not None and bwd.termination is Termination.STEP_LIMIT:
        raise InsufficientHorizon(
            "backward integration exhausted its step budget before the "
            "horizon; raise max_steps or lower the horizon")
    if einstein is None:
        einstein = einstein_roots(coeffs)
    (rep,) = classify_starts(coeffs, einstein, fwd.y[:1],
                             backward=bwd is not None, engine=engine)
    return replace(rep, T_estimate=float(fwd.x2[0]) * rep.T_estimate)
