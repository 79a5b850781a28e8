"""Case taxonomy of initial conditions and verification of flow outcomes.

A regime places the starting direction y0 among the homothety roots; the
case families are a, b, c (non-maximal by root count), C0 (vanishing
constant term) and d, e, f (maximal by root count), and
``predicted_report`` holds the case table's outcome for each.  A behaviour
report is decided independently of both, in closed form along y by the
space's ``YFlow``, all it reads of the space: collapse mode, singularity
type (whether (T - t) * kappa stays bounded), ancient existence and type
(whether |t| * kappa does), the limiting directions at both ends and the
singular time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .einstein import CriticalDirections, EinsteinSet
# not called here; the benchmark tracer (perfbench/tracing.py) wraps this name
from .einstein import einstein_roots  # noqa: F401
from .errors import OnEinsteinRoot
from .flow import Trajectory
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
    below, on = einstein.locate(y0)
    if on >= 0:
        raise OnEinsteinRoot(f"y0 = {y0} sits on the fixed direction "
                             f"{einstein.values[on]}")
    return slot_regimes(einstein)[below]


def slot_regimes(einstein: EinsteinSet) -> list[RegimeLabel]:
    """The regime of each slot of ``YFlow.locate``: an interval between the
    sorted roots, or ``fixed`` and the 1-based index of a root."""
    family, n = einstein.case_label, einstein.count_distinct
    if family in ("c", "f"):
        moving = [RegimeLabel(family)] * (n + 1)
    elif family == "C0":
        moving = [RegimeLabel("C0", "below"), RegimeLabel("C0", "above")]
    else:
        # case e numbers its intervals 4..6 when the double root is lower
        single_below = einstein.roots[0][1] == 1 if family == "e" else None
        shift = 3 if single_below is False else 0
        moving = [RegimeLabel(family, sub + shift,
                              single_below_double=single_below)
                  for sub in range(1, n + 2)]
    return moving + [RegimeLabel("fixed", k + 1) for k in range(n)]


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
    """What the case analysis asserts for a regime, before any numerics;
    only the regime's own row is built."""
    shrink = _shrink_outcome(coeffs)
    t1 = SingularType.TYPE_I
    fam, sub = regime.family, regime.subcase
    if fam == "a":
        y1, y2 = einstein.values
        return Prediction(*{
            1: (Outcome.FIBER_COLLAPSE, 0.0, True, t1, y1),
            2: (shrink, y2, True, t1, y1),
            3: (shrink, y2, False, None, None),
        }[sub])
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
        return Prediction(*{
            1: (shrink, y1, False, None, None),
            2: (shrink, y1, True, t1, y2),
            3: (shrink, y3, True, t1, y2),
            4: (shrink, y3, False, None, None),
        }[sub])
    if fam == "e":
        (r_lo, m_lo), (r_hi, _) = einstein.roots
        single, double = (r_lo, r_hi) if m_lo == 1 else (r_hi, r_lo)
        return Prediction(*{
            1: (shrink, r_lo, False, None, None),
            2: (shrink, single, True, t1, double),
            3: (shrink, r_hi, False, None, None),
            4: (shrink, r_lo, False, None, None),
            5: (shrink, single, True, t1, double),
            6: (shrink, r_hi, False, None, None),
        }[sub])
    if fam == "f":
        return Prediction(shrink, einstein.values[0], False, None, None)
    raise ValueError(f"unknown regime family {fam!r}")


# ---------------------------------------------------------------------------
# behaviour reports


def classify_starts(engine: YFlow, y0s, *,
                    backward: bool = True) -> list[BehaviorReport]:
    """Behaviour reports of the flows from (x1, x2) = (y0, 1) in the space
    of ``engine``, one per start and its regime, with every verdict and T
    from the closed form along y.  ``backward=False`` leaves the ancient
    fields unset."""
    return classify_slots(engine, *engine.locate(y0s), backward=backward)


def classify_slots(engine: YFlow, y0, slot, *,
                   backward: bool = True) -> list[BehaviorReport]:
    """``classify_starts`` of what ``engine.locate`` returned."""
    ends = engine.ends_at(y0, slot)
    regimes = slot_regimes(engine.es)
    shrink = _shrink_outcome(engine.c)
    t1, t2 = SingularType.TYPE_I, SingularType.TYPE_II
    reports = []
    # the fields of Ends, in order, as Python values
    for k, y_fwd, shrinks, one, ancient, ancient_one, y_bwd, T in zip(
            slot.tolist(), *(v.tolist() for v in vars(ends).values())):
        ancient = ancient if backward else None
        reports.append(BehaviorReport(
            regime=regimes[k],
            forward_outcome=shrink if shrinks else Outcome.FIBER_COLLAPSE,
            singular_type=t1 if one else t2,
            forward_y_limit=y_fwd,
            ancient_exists=ancient,
            ancient_type=(t1 if ancient_one else t2) if ancient else None,
            backward_y_limit=y_bwd if ancient else None,
            T_estimate=T,
        ))
    return reports


def classify_trajectory(fwd: Trajectory,
                        bwd: Trajectory | None) -> BehaviorReport:
    """The behaviour report of the flow that ``fwd`` starts, from the
    closed form along y for the start ``fwd.y[0]`` in the space of
    ``fwd.engine``, with T scaled by ``fwd.x2[0]``.  A backward trajectory
    asks for the ancient fields.  Neither run is read further, so how it
    ended (collapse, horizon, runaway or step budget) changes nothing."""
    (rep,) = classify_starts(fwd.engine, fwd.y[:1], backward=bwd is not None)
    return replace(rep, T_estimate=float(fwd.x2[0]) * rep.T_estimate)
