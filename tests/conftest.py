import warnings

import pytest

import hrflow as h

# hypothesis imports this module to report a failing @given test, and the
# libcst it imports warns on import: under filterwarnings = ["error"] the
# report would end the run as an INTERNALERROR, naming no failed test
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def spaces():
    return h.catalog()


@pytest.fixture(scope="session")
def su42(spaces):
    return h.derive_coeffs(spaces["SU42"])


@pytest.fixture(scope="session")
def fix_a(spaces):
    return h.derive_coeffs(spaces["FIX-A"])


@pytest.fixture(scope="session")
def fix_b(spaces):
    return h.derive_coeffs(spaces["FIX-B"])


@pytest.fixture(scope="session")
def fix_c0(spaces):
    return h.derive_coeffs(spaces["FIX-C0"])


@pytest.fixture(scope="session")
def fix_d(spaces):
    return h.derive_coeffs(spaces["FIX-D"])


@pytest.fixture(scope="session")
def fix_e(spaces):
    return h.derive_coeffs(spaces["FIX-E"])


@pytest.fixture(scope="session")
def fix_e2(spaces):
    return h.derive_coeffs(spaces["FIX-E2"])


@pytest.fixture(scope="session")
def fix_f(spaces):
    return h.derive_coeffs(spaces["FIX-F"])


@pytest.fixture(scope="session")
def t285():
    """Table 285 of perfbench's tables workload at seed 1: maximal, case f,
    one root 0.21385; backward from y0 = 0.23869060412924192 the ratio and
    x1 run off to infinity in finite time."""
    return h.make_space(
        "T285", d=(1, 8), b=(5.335269595233424, 3.038060664921517),
        triple_entries={(1, 1, 1): 0.3732838777276146,
                        (1, 1, 2): 0.6191110729443656,
                        (1, 2, 2): 1.505819492421046,
                        (2, 2, 2): 1.7398459128663044},
        c=(1.108972039598016, 1.183368084294961))
