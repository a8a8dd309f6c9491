import random
from fractions import Fraction

import pytest

from kj.errors import PDValidationError
from kj.rings import GF, QQ, QSQRT2, QSqrt2, ZZ, half_power_of_two, half_power_sign


def test_qsqrt2_norm_identity():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        x = QSqrt2(a, b)
        assert x * x.conjugate() == QSqrt2.of(a * a - 2 * b * b)


def test_qsqrt2_field_ops():
    s = QSqrt2.of(0, 1)
    assert s * s == QSqrt2.of(2)
    x = QSqrt2.of(Fraction(3, 2), Fraction(-5, 7))
    assert x * x.inverse() == QSQRT2.one
    assert (x + 1) - 1 == x
    assert x / x == QSQRT2.one
    with pytest.raises(ZeroDivisionError):
        QSQRT2.zero.inverse()


def test_integer_coercions_refuse_non_integers():
    # a coefficient that is no integer is an error, never truncated
    for ring in (ZZ, QQ, GF(5), QSQRT2):
        assert ring.from_int(7) == 7
        for x in (Fraction(1, 2), 2.5, "3"):
            with pytest.raises(TypeError):
                ring.from_int(x)


def test_half_power_of_two():
    assert half_power_of_two(0) == QSqrt2.of(1)
    assert half_power_of_two(2) == QSqrt2.of(2)
    assert half_power_of_two(1) == QSqrt2.of(0, 1)
    assert half_power_of_two(-1) == QSqrt2.of(0, Fraction(1, 2))
    assert half_power_of_two(-3) == QSqrt2.of(0, Fraction(1, 4))
    for k in range(-7, 8):
        assert half_power_of_two(k) * half_power_of_two(-k) == QSQRT2.one


def test_half_power_sign():
    # even twice-exponents, both signs, negative exponents
    assert half_power_sign(Fraction(1), 0) == 1
    assert half_power_sign(Fraction(-1), 0) == -1
    assert half_power_sign(Fraction(4), 4) == 1
    assert half_power_sign(Fraction(-4), 4) == -1
    assert half_power_sign(Fraction(1, 2), -2) == 1
    assert half_power_sign(Fraction(-1, 8), -6) == -1
    assert half_power_sign(-1, 0) == -1  # a plain int works too
    # wrong magnitude
    assert half_power_sign(Fraction(2), 4) is None
    assert half_power_sign(Fraction(1, 2), 2) is None
    # odd twice-exponent: 2^(k/2) is irrational, so no rational matches
    for r in (Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(0)):
        for k in (-3, -1, 1, 3):
            assert half_power_sign(r, k) is None
    # zero is no signed power of two
    for k in (-2, 0, 2):
        assert half_power_sign(Fraction(0), k) is None
        assert half_power_sign(0, k) is None
    # agrees with comparing against half_power_of_two in Q(sqrt2)
    for k in range(-7, 8):
        for r in (Fraction(1), Fraction(-2), Fraction(1, 4), Fraction(-1, 2), Fraction(3)):
            p = half_power_of_two(k)
            expect = 1 if r == p else (-1 if r == -p else None)
            assert half_power_sign(r, k) == expect


def test_gf_size_bound():
    assert GF(2**31 - 1).characteristic == 2**31 - 1  # a Mersenne prime
    for p in (2**31, 1000000000000000003):
        with pytest.raises(PDValidationError, match="below 2\\^31"):
            GF(p)


def test_gf_basic():
    f5 = GF(5)
    two = f5.from_int(2)
    three = f5.from_int(3)
    assert two + three == f5.zero
    assert two * three == f5.one
    assert (three / two) * two == three
    with pytest.raises(ValueError):
        GF(6)


def test_ring_adapters():
    assert ZZ.from_int(7) == 7 and not ZZ.is_field
    assert QQ.from_int(7) == Fraction(7) and QQ.is_field
    assert GF(3).characteristic == 3


def test_qq_from_int_refuses_non_integers():
    assert type(QQ.from_int(-3)) is int
    # a bare int() would truncate 1/2 to 0
    for x in (Fraction(1, 2), Fraction(4, 2), 2.0, 0.5):
        with pytest.raises(TypeError):
            QQ.from_int(x)


def test_qq_div_stays_in_z_when_it_can():
    two = QQ.div(4, 2)
    assert two == 2 and type(two) is int
    assert QQ.div(-6, 3) == -2 and type(QQ.div(-6, 3)) is int
    assert QQ.div(3, 2) == Fraction(3, 2) and type(QQ.div(3, 2)) is Fraction
    one = QQ.div(Fraction(1, 2), Fraction(1, 2))
    assert one == 1 and type(one) is int
    assert QQ.div(1, Fraction(1, 3)) == 3 and type(QQ.div(1, Fraction(1, 3))) is int
    assert QQ.div(Fraction(3, 4), 3) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_div_in_other_rings():
    assert ZZ.div is None and not ZZ.is_field
    f5 = GF(5)
    q = f5.div(f5.from_int(3), f5.from_int(2))
    assert isinstance(q, type(f5.one)) and q * f5.from_int(2) == f5.from_int(3)
    with pytest.raises(ZeroDivisionError):
        f5.div(f5.one, f5.zero)
    x = QSqrt2.of(Fraction(3, 2), 1)
    assert QSQRT2.div(x, x) == QSQRT2.one
