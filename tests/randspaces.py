"""Random valid structure-constant tables for property and acceptance tests.

The Killing coefficients are computed from freely drawn Casimir constants
and triple products, which makes the balance relation hold by construction
while covering a wide coefficient range.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from hrflow.einstein import einstein_roots
from hrflow.spaces import TwoSummandSpace, derive_coeffs, make_space


def random_nonmaximal_space(rng: np.random.Generator,
                            name: str = "RAND-NM") -> TwoSummandSpace:
    d1 = int(rng.integers(1, 9))
    d2 = int(rng.integers(1, 9))
    t122 = float(rng.uniform(0.2, 3.0))
    t111 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
    t222 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
    c1 = float(rng.uniform(0.0, 1.5)) if rng.random() < 0.8 else 0.0
    c2 = float(rng.uniform(0.0, 1.5))
    b1 = 2 * c1 + (t111 + t122) / d1
    b2 = 2 * c2 + (t222 + 2 * t122) / d2
    return make_space(
        name, d=(d1, d2), b=(b1, b2),
        triple_entries={(1, 1, 1): t111, (1, 2, 2): t122, (2, 2, 2): t222},
        c=(c1, c2),
    )


def random_maximal_space(rng: np.random.Generator,
                         name: str = "RAND-MAX") -> TwoSummandSpace:
    d1 = int(rng.integers(1, 9))
    d2 = int(rng.integers(1, 9))
    t112 = float(rng.uniform(0.2, 3.0))
    t122 = float(rng.uniform(0.2, 3.0))
    t111 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
    t222 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
    c1 = float(rng.uniform(0.0, 1.5))
    c2 = float(rng.uniform(0.0, 1.5))
    b1 = 2 * c1 + (t111 + 2 * t112 + t122) / d1
    b2 = 2 * c2 + (t112 + 2 * t122 + t222) / d2
    return make_space(
        name, d=(d1, d2), b=(b1, b2),
        triple_entries={(1, 1, 1): t111, (1, 1, 2): t112,
                        (1, 2, 2): t122, (2, 2, 2): t222},
        c=(c1, c2),
    )


def random_tables(seed: int, n: int):
    """n random tables, alternately non-maximal and maximal, as (space, y0),
    each with a start y0 log-uniform in [0.05, 20]."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        draw = random_nonmaximal_space if i % 2 == 0 else random_maximal_space
        space = draw(rng, f"R{i}")
        yield space, float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))


def random_starts(seed: int, n: int):
    """The draws of ``random_tables`` as (derived coefficients, Einstein
    set, y0), each start checked not to be an Einstein direction."""
    for space, y0 in random_tables(seed, n):
        c = derive_coeffs(space)
        es = einstein_roots(c)
        assert es.on_root(y0) is None
        yield c, es, y0


def c0_boundary_starts(seed: int, n: int):
    """n random non-maximal tables on both sides of the a <-> C0 boundary,
    as (derived coefficients, Einstein set, starts).

    The constant term C is replaced by one log-uniform in [1e-323, 1e-3],
    and by exactly 0 in every tenth table.  The starts are four ratios
    log-uniform in [0.05, 20], plus half the lower root of case a when
    that is not within the root exclusion of it; none is an Einstein
    direction.
    """
    rng = np.random.default_rng(seed)
    for i in range(n):
        c = derive_coeffs(random_nonmaximal_space(rng, f"C0B{i}"))
        ln_c = rng.uniform(np.log(1e-323), np.log(1e-3))
        c = replace(c, C=0.0 if i % 10 == 9 else float(np.exp(ln_c)))
        es = einstein_roots(c)
        y0s = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 4)).tolist()
        if es.case_label == "a" and es.on_root(es.values[0] / 2) is None:
            y0s.append(es.values[0] / 2)
        assert all(es.on_root(y0) is None for y0 in y0s)
        yield c, es, y0s
