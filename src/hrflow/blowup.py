"""Parabolic rescaling near the singular time and the limiting soliton.

Rescaling a collapsing flow by the curvature proxy at base times
approaching the singular time produces a limit: a homogeneous Einstein pair
when the whole space shrinks to a point, and a product of the shrunk fiber
with a flat factor of dimension d2 when only the fiber collapses.  The
limit is exact: the rescaled pair depends on y = x1/x2 alone, so
``limit_at`` evaluates it at the limiting direction and collapse mode that
``yflow`` decides from the start.  ``hrflow blowup`` takes both the limit
and the singular time from that closed form and steps no trajectory;
``soliton_limit`` reads only the start of a sampled forward run and the
engine the run carries, and ``rescale_at`` rescales a sampled trajectory
at one base time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, Unclassified
from .flow import Direction, Trajectory
from .spaces import Coefficients


@dataclass(frozen=True)
class RescaledState:
    """One parabolic rescaling: multiply the metric by the proxy curvature
    at the base time and speed time up by the same factor."""

    t_j: float
    scale: float            # proxy curvature at the base time
    x1: float               # scale * x1(t_j)
    x2: float               # scale * x2(t_j)

    def original_time(self, t_rescaled: float) -> float:
        return self.t_j + t_rescaled / self.scale


@dataclass(frozen=True)
class SolitonLimit:
    kind: str                              # "EinsteinPoint" | "RigidProduct"
    pair: tuple[float, float] | None       # rescaled pair, up to scale
    ratio: float | None                    # pair ratio = limiting direction
    fiber_constant: float | None           # rescaled fiber coefficient
    flat_dim: int | None                   # q, dimension of the flat factor

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pair": None if self.pair is None else list(self.pair),
            "ratio": self.ratio,
            "fiber_constant": self.fiber_constant,
            "flat_dim": self.flat_dim,
        }


def rescale_at(traj: Trajectory, t_j: float) -> RescaledState:
    """Rescale the trajectory at a sampled base time.

    The rescaled state has proxy curvature exactly one, which is the
    normalisation that makes limits comparable across base times.
    """
    t = traj.t
    lo, hi = min(t[0], t[-1]), max(t[0], t[-1])
    if not (lo <= t_j <= hi):
        raise OutOfRange(f"t_j = {t_j} outside the sampled range [{lo}, {hi}]")
    idx = int(np.argmin(np.abs(t - t_j)))
    scale = float(traj.kappa[idx])
    return RescaledState(
        t_j=float(t[idx]),
        scale=scale,
        x1=scale * float(traj.x1[idx]),
        x2=scale * float(traj.x2[idx]),
    )


def limit_at(c: Coefficients, y_star: float, shrinks: bool) -> SolitonLimit:
    """The blow-up limit of a flow that ends at the ratio ``y_star``.

    Rescaled by kappa, which is homogeneous of degree -1, the pair is a
    function of y alone, q(y) = (kappa*x1, kappa*x2) = (1 + y + y^2 + w/y,
    1/y + 1 + y + w/y^2) with w = 1 for the maximal kind and 0 otherwise,
    so a flow whose whole space ``shrinks`` tends to q(y*).  A fiber
    collapse ends at y* = 0, where the rescaled fiber coefficient tends to
    q1(0) = 1.
    """
    if not shrinks:
        return SolitonLimit(kind="RigidProduct", pair=None, ratio=None,
                            fiber_constant=1.0, flat_dim=c.d2)
    y = float(y_star)
    w = 1.0 if c.planar.maximal else 0.0
    return SolitonLimit(
        kind="EinsteinPoint",
        pair=(1.0 + y + y * y + w / y, 1.0 / y + 1.0 + y + w / (y * y)),
        ratio=y,
        fiber_constant=None,
        flat_dim=None,
    )


def soliton_limit(traj: Trajectory) -> SolitonLimit:
    """The blow-up limit of the flow that a forward run starts, however the
    run ended, at the limiting direction y* that ``traj.engine`` decides
    from the start ``traj.y[0]`` alone (see ``limit_at``)."""
    if traj.direction is not Direction.FORWARD:
        raise Unclassified("blow-up limits are read from forward trajectories")
    engine = traj.engine
    _, (slot,) = engine.locate(traj.y[:1])
    end = engine.table[slot].ends
    return limit_at(engine.c, end.y_forward, end.shrinks)
