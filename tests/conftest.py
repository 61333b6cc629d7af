import warnings

import pytest

from hodiff.rootsys import build_root_system
from oracles import corrupted_copy


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def c3():
    return build_root_system("C", 3)


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D", 4)


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G", 2)


@pytest.fixture(scope="session")
def f4():
    return build_root_system("F", 4)


@pytest.fixture(scope="session")
def bc1():
    return build_root_system("BC", 1)


@pytest.fixture(scope="session")
def bc2():
    return build_root_system("BC", 2)


def _reference_residual(e_poly, poly, shifted):
    """e_poly * P - sum c P' by full ExpPoly products over every orbit, keyed
    by the labels of its exponents, as ``pieri_residual`` keys its own."""
    diff = e_poly * poly.exp_poly()
    for p, c in shifted:
        diff = diff + p.exp_poly().scale(-c)
    return {poly.datum.weight_labels(nu): c for nu, c in diff.terms.items()}


@pytest.fixture(scope="session")
def reference_residual():
    return _reference_residual


@pytest.fixture(scope="session")
def corrupted():
    return corrupted_copy


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """A failing hypothesis property makes the hypothesis pytest plugin import
    its patch writer here, and with it libcst, whose import warns
    (mypy_extensions' TypedDict).  Under ``filterwarnings = error`` that
    warning ended the whole session in an INTERNALERROR instead of reporting
    the failure, so the module is imported first with that warning ignored."""
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                    DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:   # no libcst: the plugin writes no patch
                pass
    yield
