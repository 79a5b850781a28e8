"""Every exit of the adaptive Dormand-Prince driver on synthetic fields.

The catalog runs never leave the positive cone inside a step, so the
command-line goldens cannot guard the positivity-halving branch.  Each case
here drives ``run_adaptive`` down one exit and hashes (SHA-256) the repr of
its status, step count, collapsed coordinate, samples and final derivative,
which pins every float bit for bit.  A rewrite that promises the same steps
must leave every digest as it is; a deliberate numerical change re-records
them with

    PYTHONPATH=src python tests/test_stepper.py
"""

import hashlib
import math

import pytest

from hrflow.errors import DomainError
from hrflow.stepper import NORM_GUARD, run_adaptive

DEFAULTS = dict(rtol=1e-3, atol=1e-14, eps=1e-8, max_steps=100_000)


def cliff(a, b):
    # x1' turns steeply negative on either side of x1 = 1: the early stages
    # overshoot into x1 < 0 until the step has been halved far enough
    return 1.0 - 1e7 * (a - 1.0) ** 2, -0.5


def root_collapse(a, b):
    # x1 = sqrt(1 - 2s) reaches zero at s = 1/2 with unbounded speed
    return -1.0 / a, -0.1


def linear_collapse(a, b):
    return -1.0, -0.1


def relaxing(a, b):
    return 0.5 - 0.25 * a, -0.1 * b


def switching(a, b):
    # discontinuous at x1 = 3/2: with rtol = 0 no step across it passes the
    # error test, so the step size shrinks to the resolution of s
    return (1.0 if a < 1.5 else -1.0), 0.0


def nan_below(a, b):
    # NaN once x1 drops under 0.9: the NaN passes the positivity checks and
    # makes the error estimate NaN
    return (math.nan if a < 0.9 else -1.0), -0.1


def runaway(a, b):
    # x1 = 1 / (1 - s) crosses the norm guard just before s = 1
    return a * a, -0.1 * b


#: name -> (field, x0, horizon, options overriding DEFAULTS)
CASES = {
    "halving": (cliff, (1.0, 1.0), 100.0, {}),
    "stagnation-event": (root_collapse, (1.0, 1.0), 100.0, {}),
    "bisected-event": (linear_collapse, (1.0, 1.0), 100.0, {}),
    "horizon": (relaxing, (1.0, 1.0), 5.0, {"rtol": 1e-8}),
    "step-limit": (relaxing, (1.0, 1.0), 5.0, {"rtol": 1e-8, "max_steps": 3}),
    "stagnation-step-limit": (switching, (1.0, 1.0), 5.0,
                              {"rtol": 0.0, "atol": 1e-20}),
    "runaway": (runaway, (1.0, 1.0), 5.0, {"rtol": 1e-8}),
}

GOLDEN = {
    'halving':
        'dec0b4f3e46897c64328eebbf06744f9afb077ae7954699597e1be831a3f28d8',
    'stagnation-event':
        '1be58ffa0ad00c421ba6f32a0a007f5d2d0c1189b10f1a428ef7c6a5baf222b6',
    'bisected-event':
        '2e7b486fb61bbe90c8dc1adc278afe9c38da138dc7b729cd7366350a4834f922',
    'horizon':
        '6c7766b4b6ef881843d0a78f83a841d2e0604d2f2e3205b23126cf61817caacc',
    'step-limit':
        'cd4427b6233b9a85f86d4cc7878d4f96c1d0bb86477fdba46b4efe5b69df77b1',
    'stagnation-step-limit':
        'e3097a4ca1833fd235520d97691efe5f02573434e616986dfa58ea6a2ba5e38c',
    'runaway':
        'cd1bb647d6fcbf1f4d291f90357c3b8ec1f15bdf33986695858798db855598af',
}

#: name -> (status, n_steps, n_rejected, n_halved, stagnated)
COUNTS = {
    "halving": ("event", 124, 4, 19, True),
    "stagnation-event": ("event", 89, 0, 0, True),
    "bisected-event": ("event", 116, 0, 0, False),
    "horizon": ("horizon", 20, 0, 0, False),
    "step-limit": ("step_limit", 3, 0, 0, False),
    "stagnation-step-limit": ("step_limit", 119, 66, 1, True),
    "runaway": ("runaway", 413, 0, 0, False),
}


def run(name):
    f, x0, horizon, opts = CASES[name]
    return run_adaptive(f, x0, horizon, **{**DEFAULTS, **opts})


def digest(raw) -> str:
    pinned = (raw.status, raw.n_steps, raw.event_coord, raw.s, raw.x1,
              raw.x2, raw.final_rhs)
    return hashlib.sha256(repr(pinned).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_exit_digest(name):
    assert digest(run(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_branch_counts(name):
    raw = run(name)
    assert (raw.status, raw.n_steps, raw.n_rejected, raw.n_halved,
            raw.stagnated) == COUNTS[name]


def test_norm_guard_ends_the_run():
    # the run stops at the last state before the step that crosses the guard
    raw = run("runaway")
    assert raw.status == "runaway" and raw.event_coord is None
    assert raw.x1[-1] <= NORM_GUARD and raw.final_rhs[0] == raw.x1[-1] ** 2
    assert raw.x1[-1] > 1e11 and abs(raw.s[-1] - 1.0) < 1e-6


def test_nan_error_estimate_raises():
    with pytest.raises(DomainError, match="NaN error estimate"):
        run_adaptive(nan_below, (1.0, 1.0), 100.0, rtol=1e-10, atol=1e-14,
                     eps=1e-8, max_steps=10_000)


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(COUNTS) == set(CASES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in CASES:
        print(f"    {name!r}:\n        {digest(run(name))!r},")
    print("}")
