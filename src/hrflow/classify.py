"""Case taxonomy of initial conditions and verification of flow outcomes.

A regime places the starting direction y0 among the homothety roots; the
case families are a, b, c (non-maximal by root count), C0 (vanishing
constant term) and d, e, f (maximal by root count).  A behaviour
report is then extracted from integrated forward and backward trajectories:
collapse mode, singularity type by boundedness of (T - t) * kappa, ancient
existence and type by the growth of |t| * kappa, and the limiting
directions at both ends.  Only the case label of the Einstein set and,
for the name of a whole-space collapse, the isotropy kind are consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .einstein import CriticalDirections, EinsteinSet, einstein_roots
from .errors import (
    InsufficientHorizon,
    NotCollapsed,
    OnEinsteinRoot,
)
from .flow import SIMULTANEOUS_FACTOR, Direction, Termination, Trajectory
from .spaces import Coefficients

#: y0 closer than this to a root is a fixed direction, not a regime member
ROOT_NEIGHBOURHOOD = 1e-9


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
    if y0 <= 0:
        raise ValueError(f"y0 must be positive, got {y0}")
    hit = einstein.on_root(y0, ROOT_NEIGHBOURHOOD)
    if hit is not None:
        raise OnEinsteinRoot(f"y0 = {y0} sits on the fixed direction {hit}")

    family = einstein.case_label
    if family in ("c", "f"):
        return RegimeLabel(family)
    # 1-based index of the interval between sorted roots that holds y0
    sub = 1 + sum(r <= y0 for r in einstein.values)
    if family == "C0":
        return RegimeLabel("C0", "below" if sub == 1 else "above")
    if family == "e":
        single_below = einstein.roots[0][1] == 1
        return RegimeLabel("e", sub if single_below else sub + 3,
                           single_below_double=single_below)
    return RegimeLabel(family, sub)


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
# trajectory post-processing


def _tail_indices_forward(traj: Trajectory, decades: float) -> np.ndarray:
    """Sample indices inside the last `decades` of T - t (collapse runs)."""
    T = traj.T_estimate
    gap = T - traj.t if traj.direction is Direction.FORWARD else traj.t - T
    last = gap[-1]
    return np.nonzero((gap > 0) & (gap <= last * 10.0 ** decades))[0]


def _tail_indices_elapsed(traj: Trajectory, decades: float) -> np.ndarray:
    """Sample indices inside the last `decades` of |t - t0| (horizon runs)."""
    el = traj.elapsed
    top = el[-1]
    return np.nonzero(el >= top / 10.0 ** decades)[0]


def forward_outcome_of(traj: Trajectory) -> Outcome:
    """Collapse mode from the vanishing pattern at the singular time.

    Fiber collapse means x1 reaches zero while x2 extrapolates to a value
    bounded away from zero at the singular-time estimate.
    """
    if not traj.termination.is_collapse:
        raise NotCollapsed(f"trajectory ended with {traj.termination.value}")
    both = _shrink_outcome(traj.coeffs)
    if traj.termination is Termination.COLLAPSE_BOTH:
        return both
    eps = traj.options.collapse_epsilon
    T = traj.T_estimate if traj.T_estimate is not None else float(traj.t[-1])
    # extrapolate the co-vanishing coordinate to T along its final slope
    other = 1 if traj.termination is Termination.COLLAPSE_X1 else 0
    val = float((traj.x1, traj.x2)[other][-1])
    slope = traj.final_rhs[other]
    at_T = val + slope * (T - float(traj.t[-1]))
    if at_T > eps * SIMULTANEOUS_FACTOR:
        return Outcome.FIBER_COLLAPSE
    return both


def _median_tail(values: np.ndarray, n: int = 5) -> float:
    return float(np.median(values[-min(n, len(values)):]))


def _shanks_once(seq: np.ndarray) -> np.ndarray | None:
    """One Shanks transformation; None when the trailing increments do not
    contract geometrically (same sign, ratios bounded away from one)."""
    d = np.diff(seq)
    if len(d) < 2 or np.any(d[-4:] == 0.0):
        return None
    tail = d[-4:]
    ratios = tail[1:] / tail[:-1]
    if np.any(ratios <= 0.02) or np.any(ratios >= 0.97):
        return None
    d_safe = np.where(np.diff(d) == 0.0, np.nan, np.diff(d))
    out = seq[2:] - d[1:] ** 2 / d_safe
    out = out[np.isfinite(out)]
    return out if len(out) >= 1 else None


def _accelerated_limit(elapsed: np.ndarray, values: np.ndarray) -> float:
    """Tail limit via Shanks acceleration on geometrically spaced samples.

    Simple-direction approaches decay like a power of the elapsed time, for
    which two Shanks sweeps on ratio-two samples recover the limit to a few
    parts in 1e4 at moderate horizons.  When the increments do not contract
    geometrically (converged tails, logarithmic approaches) the untouched
    tail value is kept instead.
    """
    top = float(elapsed[-1])
    if top <= 0 or len(values) < 8:
        return _median_tail(values)
    picks = top / 2.0 ** np.arange(11)[::-1]
    pos = elapsed > 0
    picks = picks[picks >= float(elapsed[pos][0])]
    if len(picks) < 5:
        return _median_tail(values)
    seq = np.interp(np.log(picks), np.log(elapsed[pos]), values[pos])
    best = float(seq[-1])
    for _ in range(2):
        nxt = _shanks_once(seq)
        if nxt is None or len(nxt) == 0:
            break
        seq = nxt
        best = float(seq[-1])
    return best


def classify_trajectory(fwd: Trajectory, bwd: Trajectory | None,
                        coeffs: Coefficients,
                        einstein: EinsteinSet | None = None,
                        ) -> BehaviorReport:
    """Assemble the behaviour report from integrated trajectories.

    The forward trajectory must have collapsed.  A backward trajectory that
    reached the horizon with both coefficients growing certifies an ancient
    solution; a backward collapse certifies there is none.  A backward step
    budget exhaustion is an InsufficientHorizon error rather than a guess.
    """
    if einstein is None:
        einstein = einstein_roots(coeffs)
    y0 = float(fwd.y[0])
    try:
        regime = regime_of(coeffs, einstein, None, y0)
    except OnEinsteinRoot:
        # starting on a homothety direction: not an interval case
        order = sorted(einstein.values)
        regime = RegimeLabel("fixed", 1 + order.index(einstein.nearest(y0)[0]))
    outcome = forward_outcome_of(fwd)
    sing = _singular_type(fwd)
    fwd_limit = _median_tail(fwd.y)

    ancient = None
    ancient_type = None
    bwd_limit = None
    if bwd is not None:
        if bwd.termination is Termination.STEP_LIMIT:
            raise InsufficientHorizon(
                "backward integration exhausted its step budget before the "
                "horizon; raise max_steps or lower the horizon")
        grows = (bwd.x1[-1] > bwd.x1[0]) and (bwd.x2[-1] > bwd.x2[0])
        ancient = bwd.termination is Termination.HORIZON_REACHED and bool(grows)
        if ancient:
            ancient_type = _ancient_type(bwd)
            bwd_limit = _accelerated_limit(bwd.elapsed, bwd.y)
    return BehaviorReport(
        regime=regime,
        forward_outcome=outcome,
        singular_type=sing,
        forward_y_limit=fwd_limit,
        ancient_exists=ancient,
        ancient_type=ancient_type,
        backward_y_limit=bwd_limit,
        T_estimate=fwd.T_estimate,
    )


def _singular_type(fwd: Trajectory, decades: float = 2.0,
                   flat_tol: float = 0.10, growth_factor: float = 10.0):
    """Boundedness of (T - t) * kappa over the last decades before T."""
    if fwd.T_estimate is None:
        return SingularType.UNDETERMINED
    idx = _tail_indices_forward(fwd, decades)
    if len(idx) < 5:
        return SingularType.UNDETERMINED
    q = (fwd.T_estimate - fwd.t[idx]) * fwd.kappa[idx]
    q = q[q > 0]
    if len(q) < 5:
        return SingularType.UNDETERMINED
    lo, hi = float(np.min(q)), float(np.max(q))
    rising = bool(np.all(np.diff(q) >= 0)) and q[-1] > q[0] * (1 + flat_tol / 2)
    if hi / lo <= 1.0 + flat_tol and not rising:
        return SingularType.TYPE_I
    if q[-1] / q[0] > growth_factor and _weakly_increasing(q):
        return SingularType.TYPE_II
    return SingularType.UNDETERMINED


def _ancient_type(bwd: Trajectory, decades: float = 2.0,
                  growth_factor: float = 10.0) -> SingularType:
    """Growth of |t| * kappa over the last decades of elapsed time."""
    idx = _tail_indices_elapsed(bwd, decades)
    q = bwd.elapsed[idx] * bwd.kappa[idx]
    if len(q) >= 3 and q[-1] / q[0] > growth_factor and _weakly_increasing(q):
        return SingularType.TYPE_II
    return SingularType.TYPE_I


def _weakly_increasing(q: np.ndarray, slack: float = 0.01) -> bool:
    return bool(np.all(q[1:] >= q[:-1] * (1.0 - slack)))

