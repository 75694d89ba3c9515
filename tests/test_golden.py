import math

from hypothesis import given, strategies as st

from pdswave import golden
from pdswave.golden import Golden

ints = st.integers(min_value=-50, max_value=50)
denoms = st.integers(min_value=1, max_value=20)
numbers = st.builds(Golden, ints, ints, denoms)


def test_normalization():
    assert Golden(2, 4, 6) == Golden(1, 2, 3)
    assert Golden(1, 0, -2) == Golden(-1, 0, 2)


def test_sigma_identities():
    s = golden.SIGMA
    assert s * s == s + golden.ONE                      # sigma^2 = sigma + 1
    assert abs(float(s) - (1 + math.sqrt(5)) / 2) < 1e-15


@given(numbers, numbers)
def test_float_homomorphism(a, b):
    assert math.isclose(float(a * b), float(a) * float(b), rel_tol=0, abs_tol=1e-9)
    assert math.isclose(float(a + b), float(a) + float(b), rel_tol=0, abs_tol=1e-9)
