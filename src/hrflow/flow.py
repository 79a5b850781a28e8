"""Vector fields, curvature diagnostics and trajectory integration.

The flow of invariant metrics reduces to a planar system in the metric
coefficients (x1, x2) on the two isotropy summands, whose field depends on
y = x1/x2 alone.  Forward integration runs until a coefficient reaches the
collapse threshold; backward integration probes ancient existence by
reversing the vector field.  Every run steps x/x2(0) from (y0, 1), so its
thresholds are in units of the starting x2 and a run at any scale takes
the same steps.  Each sample carries the first integral exp(Phi(y))/x2,
with Phi from the closed form of ``yflow``.  Both isotropy kinds run
through the one planar-field form of ``spaces.PlanarField``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import stepper
from .einstein import EinsteinSet, einstein_roots
from .errors import DomainError, NonpositiveC, OnEinsteinRoot, SpaceModelError
from .spaces import (
    Coefficients,
    GeneralSpace,
    PlanarField,
    TwoSummandSpace,
    derive_coeffs,
)
from .yflow import YFlow

#: y counts as monotone when it never moves against its trend by more than
#: MONOTONE_SLACK * (1 + max |y|)
MONOTONE_SLACK = 1e-9

#: a collapse counts as simultaneous when the co-vanishing coordinate is
#: within this factor of the collapse threshold at the event
SIMULTANEOUS_FACTOR = 1e4


class Direction(Enum):
    FORWARD = "Forward"
    BACKWARD = "Backward"


class Termination(Enum):
    COLLAPSE_X1 = "CollapseX1"
    COLLAPSE_X2 = "CollapseX2"
    COLLAPSE_BOTH = "CollapseBoth"
    HORIZON_REACHED = "HorizonReached"
    STEP_LIMIT = "StepLimit"
    #: the state norm crossed the stepper's guard: a coefficient runs off to
    #: infinity, as a backward flow can in finite time
    RUNAWAY = "Runaway"

    @property
    def is_collapse(self) -> bool:
        return self in (Termination.COLLAPSE_X1, Termination.COLLAPSE_X2,
                        Termination.COLLAPSE_BOTH)


@dataclass(frozen=True)
class MetricState:
    """Point of the phase space: metric coefficients at a time stamp."""

    t: float
    x1: float
    x2: float

    @property
    def y(self) -> float:
        return self.x1 / self.x2


@dataclass(frozen=True)
class IntegrationOptions:
    direction: Direction = Direction.FORWARD
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    collapse_epsilon: float = 1e-8
    max_time: float = 1e3
    max_steps: int = 500_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0 and 0.0 < self.abs_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.collapse_epsilon <= 0.0:
            raise ValueError("collapse_epsilon must be positive")


@dataclass
class Trajectory:
    """Sampled solution with per-sample curvature diagnostics."""

    direction: Direction
    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    R: np.ndarray
    kappa: np.ndarray
    first_integral: np.ndarray
    termination: Termination
    T_estimate: float | None
    final_rhs: tuple[float, float]
    t0: float
    coeffs: Coefficients

    @property
    def n_samples(self) -> int:
        return len(self.t)

    def state(self, idx: int) -> MetricState:
        return MetricState(float(self.t[idx]), float(self.x1[idx]),
                           float(self.x2[idx]))

    @property
    def final_state(self) -> MetricState:
        return self.state(-1)

    @property
    def elapsed(self) -> np.ndarray:
        """|t - t0|, the nonnegative integration time."""
        return np.abs(self.t - self.t0)

    def y_monotone_within(self) -> bool:
        dy = np.diff(self.y)
        scale = MONOTONE_SLACK * (1.0 + float(np.max(np.abs(self.y))))
        return bool(np.all(dy >= -scale) or np.all(dy <= scale))

    CSV_HEADER = "t,x1,x2,y,R,kappa,first_integral"
    #: one row each; "%.17g" % v is format(v, ".17g").  The first
    #: integral's cell is left empty where it is NaN.
    _CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
    _CSV_ROW_NO_INTEGRAL = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,\n"

    def to_csv(self, path) -> None:
        full, short = self._CSV_ROW, self._CSV_ROW_NO_INTEGRAL
        rows = zip(self.t.tolist(), self.x1.tolist(), self.x2.tolist(),
                   self.y.tolist(), self.R.tolist(), self.kappa.tolist(),
                   self.first_integral.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            fh.write("".join([full % row if row[6] == row[6]
                              else short % row[:6] for row in rows]))


# ---------------------------------------------------------------------------
# vector fields


def rhs_general(x, space: GeneralSpace):
    """General flow field for l summands, straight from the table."""
    from .spaces import validate

    l = space.l
    if len(x) != l:
        raise DomainError(f"state length {len(x)} does not match l = {l}")
    for v in x:
        if v <= 0:
            raise DomainError(f"metric coefficients must be positive: {x}")
    validate(space).raise_if_invalid()
    out = []
    for i in range(1, l + 1):
        di = space.d[i - 1]
        xi = x[i - 1]
        interact = 0.0
        self_sq = 0.0
        for j in range(1, l + 1):
            for k in range(1, l + 1):
                tij = float(space.t(i, j, k))
                if tij == 0.0:
                    continue
                interact += tij * x[k - 1] / x[j - 1]
                self_sq += tij * xi * xi / (x[j - 1] * x[k - 1])
        out.append(-float(space.b[i - 1]) + interact / di - self_sq / (2 * di))
    return tuple(out)


def make_rhs(c: Coefficients | PlanarField):
    """Closure (x1, x2) -> (x1', x2') for the planar system of a coefficient
    record or of a planar field."""
    p = c.planar
    na0, am1, a2 = -p.a0, p.am1, p.a2
    nb0, b1, bm2 = -p.b0, p.b1, p.bm2

    def f(x1: float, x2: float):
        y = x1 / x2
        return (na0 + am1 / y - a2 * y * y, nb0 + b1 * y - bm2 / (y * y))

    return f


def rhs_two(state: MetricState, c: Coefficients) -> tuple[float, float]:
    """Planar vector field at a state; the two kinds share the signature."""
    if state.x1 <= 0 or state.x2 <= 0:
        raise DomainError(f"coefficients must be positive: {state}")
    return make_rhs(c)(state.x1, state.x2)


def scalar_curvature(state: MetricState, c: Coefficients) -> float:
    """Scalar curvature of the invariant metric at the state."""
    if state.x1 <= 0 or state.x2 <= 0:
        raise DomainError(f"coefficients must be positive: {state}")
    return float(_scalar_curvature_arrays(
        np.asarray(state.x1), np.asarray(state.x2), c))


def _scalar_curvature_arrays(x1, x2, c: Coefficients):
    p = c.planar
    if p.maximal:
        return (p.a0 * p.d1 / (2 * x1) + p.d2 * p.b0 / (2 * x2)
                - p.d1 / 4 * p.am1 * x2 / (x1 * x1)
                - p.d2 / 4 * p.b1 * x1 / (x2 * x2))
    y = x1 / x2
    return (p.a0 * p.d1 / 2 + p.b0 * p.d2 / 2 * y
            - p.a2 * p.d1 / 2 * y * y) / x1


def curvature_proxy(state: MetricState, c: Coefficients) -> float:
    """Homogeneity minus-one curvature stand-in used for type decisions.

    kappa = 1/x1 + 1/x2 + x1/x2^2 (+ x2/x1^2 in the maximal kind, where the
    extra interaction term produces that curvature contribution).  It scales
    like 1/c under the homothety g -> c*g, matching the curvature norm.
    """
    if state.x1 <= 0 or state.x2 <= 0:
        raise DomainError(f"coefficients must be positive: {state}")
    return float(_kappa_arrays(np.asarray(state.x1), np.asarray(state.x2), c))


def _kappa_arrays(x1, x2, c: Coefficients):
    w2 = 1.0 if c.planar.maximal else 0.0
    return 1.0 / x1 + 1.0 / x2 + x1 / (x2 * x2) + w2 * x2 / (x1 * x1)


# ---------------------------------------------------------------------------
# the first integral along y


def first_integral(state: MetricState, c: Coefficients,
                   es: EinsteinSet | None = None) -> float:
    """exp(Phi(y))/x2, conserved along every flow of both kinds.

    Phi is the integral of f2/H over y (``YFlow.log_x2``), so
    d ln x2/dy = f2/H makes ln x2 - Phi(y) constant.  Raises
    OnEinsteinRoot on a root (``EinsteinSet.on_root``), where Phi diverges.
    """
    if es is None:
        es = einstein_roots(c)
    hit = es.on_root(state.y)
    if hit is not None:
        raise OnEinsteinRoot(
            f"y = {state.y} is within tolerance of the root {hit}")
    return float(_first_integral_of(YFlow(c, es), state.x2, state.y))


def _first_integral_of(yf: YFlow, x2, y):
    """exp(Phi(y))/x2, NaN where it would not be a normal float."""
    log_val = yf.log_x2(y) - np.log(x2)
    return np.exp(np.where(np.abs(log_val) < 708.0, log_val, np.nan))


# ---------------------------------------------------------------------------
# trajectory integration


def as_coefficients(model) -> Coefficients:
    if isinstance(model, Coefficients):
        return model
    if isinstance(model, TwoSummandSpace):
        return derive_coeffs(model)
    raise SpaceModelError(
        f"cannot integrate {type(model).__name__}; need a two-summand space "
        "or derived coefficients"
    )


def integrate(model, init: MetricState,
              opts: IntegrationOptions | None = None, *,
              engine: YFlow | None = None) -> Trajectory:
    """Integrate the planar flow from init until collapse, horizon, runaway
    or budget.

    The field depends on y alone, so the run steps u = x/x2(0) from (y0, 1)
    in s = |t - t0|/x2(0) and scales back; the collapse threshold, the
    absolute tolerance, the horizon and the norm guard are in units of
    x2(0).  Backward runs integrate the time-reversed field.  A collapse
    ending estimates the singular time by linear extrapolation of the
    vanishing coordinate.  The first integral is NaN on a root (as
    ``EinsteinSet.locate`` places it) and wherever it would not be a normal
    float.  A caller that runs several flows of one space passes its
    ``YFlow`` engine, which is otherwise set up here.
    """
    opts = opts or IntegrationOptions()
    c = as_coefficients(model)
    eps = opts.collapse_epsilon
    scale = init.x2
    if not (scale > 0.0 and min(init.x1 / scale, 1.0) > eps):
        raise DomainError(
            f"initial state {init} is already at the collapse threshold "
            f"{eps} (in units of x2)")
    y0 = init.x1 / scale
    backward = opts.direction is Direction.BACKWARD
    f = make_rhs(c.planar.time_reversed() if backward else c)

    raw = stepper.run_adaptive(
        f, (y0, 1.0), opts.max_time,
        rtol=opts.rel_tol, atol=opts.abs_tol, eps=eps,
        max_steps=opts.max_steps,
    )

    sgn = -1.0 if backward else 1.0
    u1 = np.asarray(raw.x1)
    u2 = np.asarray(raw.x2)
    x1 = scale * u1
    x2 = scale * u2
    t = init.t + sgn * (scale * np.asarray(raw.s))
    y = u1 / u2

    termination, t_est = _terminal_info(raw, opts, init.t, sgn, scale)
    if engine is None:
        engine = YFlow(c, einstein_roots(c))
    guard = engine.es.locate(y)[1] < 0
    lam = np.full_like(x1, np.nan)
    lam[guard] = _first_integral_of(engine, x2[guard], y[guard])

    return Trajectory(
        direction=opts.direction,
        t=t, x1=x1, x2=x2, y=y,
        R=_scalar_curvature_arrays(x1, x2, c),
        kappa=_kappa_arrays(x1, x2, c),
        first_integral=lam,
        termination=termination,
        T_estimate=t_est,
        final_rhs=(sgn * raw.final_rhs[0], sgn * raw.final_rhs[1]),
        t0=init.t,
        coeffs=c,
    )


_OPEN_ENDINGS = {
    "horizon": Termination.HORIZON_REACHED,
    "step_limit": Termination.STEP_LIMIT,
    "runaway": Termination.RUNAWAY,
}


def _terminal_info(raw: stepper.RawRun, opts: IntegrationOptions,
                   t0: float, sgn: float, scale: float):
    if raw.status in _OPEN_ENDINGS:
        return _OPEN_ENDINGS[raw.status], None
    eps = opts.collapse_epsilon
    u = (raw.x1[-1], raw.x2[-1])
    near = eps * SIMULTANEOUS_FACTOR
    crossed = raw.event_coord if raw.event_coord is not None else (
        0 if u[0] <= u[1] else 1)
    if u[1 - crossed] <= near:
        term = Termination.COLLAPSE_BOTH
    elif crossed == 0:
        term = Termination.COLLAPSE_X1
    else:
        term = Termination.COLLAPSE_X2
    # linear extrapolation of the coordinate that crossed the threshold
    xv, slope = u[crossed], raw.final_rhs[crossed]
    t_est = None
    if slope < 0.0:
        s_zero = raw.s[-1] + xv / -slope
        t_est = t0 + sgn * (scale * s_zero)
    return term, t_est


# ---------------------------------------------------------------------------
# isotropy irreducible spaces: the flow in closed form


@dataclass(frozen=True)
class IrreducibleFlow:
    """Closed-form flow x(t) = x0 - C*t on a one-summand space.

    Shrinks to a point at T = x0 / C (a type I singularity) and extends to
    all earlier times as a type I ancient solution.
    """

    C: float
    T: float
    x0: float

    singular_type = "TypeI"
    ancient_type = "TypeI"

    def value(self, t: float) -> float:
        if t >= self.T:
            raise DomainError(f"flow is defined on (-inf, {self.T}), got {t}")
        return self.x0 - self.C * t

    __call__ = value


def irreducible_flow(b: float, d: int, t111: float, x0: float) -> IrreducibleFlow:
    """Closed-form shrinking of an isotropy irreducible space.

    The single coefficient obeys x' = -(b - [111]/(2d)), a strictly negative
    constant for any effective table.
    """
    if x0 <= 0:
        raise DomainError(f"initial coefficient must be positive: {x0}")
    C = float(b) - float(t111) / (2 * d)
    if C <= 0:
        raise NonpositiveC(f"b - [111]/(2d) = {C} must be positive")
    return IrreducibleFlow(C=C, T=float(x0) / C, x0=float(x0))
