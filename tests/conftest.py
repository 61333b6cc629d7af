from fractions import Fraction as Q

import pytest

from hodiff.jacobi import JacobiPolynomial
from hodiff.rootsys import build_root_system
from hodiff.weylalg import ExpPoly
from oracles import height


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
    """e_poly * P - sum c P' by full ExpPoly products over every orbit."""
    rhs = ExpPoly.zero()
    for p, c in shifted:
        rhs = rhs + p.exp_poly().scale(c)
    return e_poly * poly.exp_poly() - rhs


def _corrupted(poly, delta=Q(1, 7)):
    """poly with its lowest coefficient moved by delta (still W-invariant)."""
    datum = poly.datum
    coeffs = dict(poly.label_coeffs)
    mu = min(coeffs, key=lambda m: height(datum, datum.from_labels(m)))
    coeffs[mu] += delta
    return JacobiPolynomial(datum, poly.mults, poly.top, coeffs)


@pytest.fixture(scope="session")
def reference_residual():
    return _reference_residual


@pytest.fixture(scope="session")
def corrupted():
    return _corrupted
