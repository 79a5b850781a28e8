import numpy as np
import pytest

import hrflow as h
from hrflow.errors import OutOfRange, Unclassified
from hrflow.flow import IntegrationOptions, MetricState

from randspaces import random_starts


def test_einstein_point_limit(fix_a):
    fwd = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0))
    lim = h.soliton_limit(fwd)
    assert lim.kind == "EinsteinPoint"
    assert lim.flat_dim is None
    # the limiting direction matches the forward ratio limit
    rep = h.classify_trajectory(fwd, None)
    assert lim.ratio == rep.forward_y_limit
    # pair solves the shrink-rate system after rescaling onto it
    k1, k2 = h.einstein_scale_constants(fix_a, 1.0)
    scale = k1 / lim.pair[0]
    assert scale * lim.pair[1] == pytest.approx(k2, rel=1e-12)


def test_rigid_product_limit(su42):
    fwd = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    lim = h.soliton_limit(fwd)
    assert lim.kind == "RigidProduct"
    assert lim.flat_dim == 5
    assert lim.fiber_constant == 1.0
    assert lim.pair is None


def test_rescale_normalises_proxy(fix_a):
    fwd = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0))
    rs = h.rescale_at(fwd, float(fwd.t[len(fwd.t) // 2]))
    st = MetricState(0.0, rs.x1, rs.x2)
    assert h.curvature_proxy(st, fix_a) == pytest.approx(1.0, rel=1e-12)
    assert rs.original_time(0.0) == rs.t_j


def test_rescale_out_of_range(fix_a):
    fwd = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0))
    with pytest.raises(OutOfRange):
        h.rescale_at(fwd, float(fwd.t[-1]) + 1.0)


def test_rescaled_pair_settles_on_fixed_direction(fix_a):
    fwd = h.integrate(fix_a, MetricState(0.0, 2.0, 2.0))
    gap = fwd.T_estimate - fwd.t
    picks = np.nonzero((gap > 0) & (gap <= gap[-1] * 10))[0]
    pairs = [(r.x1, r.x2) for r in
             (h.rescale_at(fwd, float(fwd.t[i])) for i in picks)]
    arr = np.asarray(pairs)
    assert np.max(np.abs(arr / arr[-1] - 1.0)) < 1e-3


def test_rescaled_base_metric_diverges_under_fiber_collapse(su42):
    fwd = h.integrate(su42, MetricState(0.0, 1.0, 1.0))
    early = h.rescale_at(fwd, float(fwd.t[-30]))
    late = h.rescale_at(fwd, float(fwd.t[-2]))
    assert late.x2 > 10 * early.x2


def test_scale_invariance_of_limit(fix_a, su42):
    base = h.soliton_limit(h.integrate(fix_a, MetricState(0.0, 0.75, 1.0)))
    scaled = h.soliton_limit(
        h.integrate(fix_a, MetricState(0.0, 3 * 0.75, 3.0)))
    assert scaled == base and base.kind == "EinsteinPoint"
    b2 = h.soliton_limit(h.integrate(su42, MetricState(0.0, 0.5, 0.5)))
    assert b2.kind == "RigidProduct" and b2.flat_dim == 5


def test_limit_ignores_the_collapse_threshold(fix_a):
    # the limit is read at the limiting direction, not from the sampled tail
    init = MetricState(0.0, 0.75, 1.0)
    fat = h.integrate(fix_a, init, IntegrationOptions(collapse_epsilon=0.3))
    assert h.soliton_limit(fat) == h.soliton_limit(h.integrate(fix_a, init))


def test_backward_run_unclassified(fix_a):
    bwd = h.integrate(fix_a, MetricState(0.0, 0.75, 1.0),
                      IntegrationOptions(direction=h.Direction.BACKWARD))
    with pytest.raises(Unclassified):
        h.soliton_limit(bwd)


def test_fixed_direction_limit_is_exact(fix_a):
    # (2, 2) lies on the Einstein direction y = 1, where q(1) = (3, 3)
    lim = h.soliton_limit(h.integrate(fix_a, MetricState(0.0, 2.0, 2.0)))
    assert lim.kind == "EinsteinPoint"
    assert lim.pair == (3.0, 3.0) and lim.ratio == 1.0


DEEP = IntegrationOptions(collapse_epsilon=1e-12)


def _tail_pair(fwd):
    """The stepper's last rescaled pair (kappa*x1, kappa*x2)."""
    return fwd.kappa[-1] * np.array([fwd.x1[-1], fwd.x2[-1]])


def test_limits_against_case_table_and_stepper_tail():
    """On random tables: the kind is the case table's, the ratio is the
    report's forward limit, and the pair solves the shrink-rate system.
    The stepper's last rescaled pair is an oracle only where its run gets
    close to the limit, judged by lowering the collapse threshold from
    1e-8 to 1e-12 without moving it by 1e-3; in cases c and f and near
    slowly approached roots ln x2 falls below any threshold first, so
    those draws are counted, not checked against the tail."""
    unresolved = []
    for i, (c, es, y0) in enumerate(random_starts(3, 200)):
        fwd = h.integrate(c, MetricState(0.0, y0, 1.0))
        lim = h.soliton_limit(fwd)
        pred = h.predicted_report(h.regime_of(c, es, None, y0), es, c)
        fiber = pred.outcome is h.Outcome.FIBER_COLLAPSE
        assert lim.kind == ("RigidProduct" if fiber else "EinsteinPoint"), i
        if fiber:
            want = np.array([lim.fiber_constant])
            assert lim.fiber_constant == 1.0 and lim.flat_dim == c.d2
        else:
            want = np.array(lim.pair)
            assert lim.ratio == h.classify_trajectory(
                fwd, None).forward_y_limit, i
            k1, k2 = h.einstein_scale_constants(c, lim.ratio)
            assert lim.pair[1] * k1 / lim.pair[0] == pytest.approx(
                k2, rel=1e-10, abs=1e-10), i
        tail = _tail_pair(fwd)[:len(want)]
        deeper = _tail_pair(h.integrate(c, MetricState(0.0, y0, 1.0), DEEP))
        if np.max(np.abs(tail / deeper[:len(want)] - 1)) > 1e-3:
            unresolved.append(i)
            continue
        assert np.max(np.abs(tail / want - 1)) <= 1e-2, i
    assert len(unresolved) <= 20, unresolved


def test_maximal_interior_band_limits_at_lower_root(fix_d):
    fwd = h.integrate(fix_d, MetricState(0.0, 0.75, 1.0))
    lim = h.soliton_limit(fwd)
    assert lim.kind == "EinsteinPoint"
    assert lim.ratio == pytest.approx(0.5, rel=1e-12)
    assert lim.pair == pytest.approx((3.75, 7.5), rel=1e-12)
