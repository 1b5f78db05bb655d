"""The dense-polynomial kernel: ring identities checked over F_p, Z and Q,
and the typed errors of its checks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsl import dense
from gsl.errors import DomainError
from gsl.exact import UniPoly
from gsl.modp import PrimeField
from gsl.nfield import NumberField

F7 = PrimeField(7)
Q = NumberField(UniPoly([Fraction(0), Fraction(1)]))  # Q as Q[x]/(x)

polys7 = st.lists(st.integers(0, 6), max_size=7).map(lambda a: dense.trim(F7, a))
monic_int = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(lambda a: a + [1])


def _to_unipoly(a):
    return UniPoly([Fraction(c) for c in a])


@given(polys7, polys7.filter(bool))
def test_quorem_identity_over_fp(a, b):
    q, r = dense.quorem(F7, a, b)
    assert len(r) < len(b)
    assert dense.add(F7, dense.mul(F7, q, b), r) == a


@given(st.lists(st.integers(-50, 50), max_size=8).map(lambda a: dense.trim(dense.INTEGERS, a)), monic_int)
def test_quorem_over_z_matches_q(a, b):
    q, r = dense.quorem(dense.INTEGERS, a, b)
    uq, ur = divmod(_to_unipoly(a), _to_unipoly(b))
    assert (_to_unipoly(q), _to_unipoly(r)) == (uq, ur)


@given(polys7.filter(bool), polys7.filter(bool))
def test_ext_gcd_bezout(a, b):
    g = dense.gcd(F7, a, b)
    if len(g) > 1:
        with pytest.raises(DomainError):
            dense.ext_gcd(F7, a, b)
        return
    s, t = dense.ext_gcd(F7, a, b)
    assert dense.add(F7, dense.mul(F7, s, a), dense.mul(F7, t, b)) == [1]
    assert len(s) < max(len(b), 2) and len(t) < max(len(a), 2)


@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(-5, 5), st.integers(-5, 5))
def test_shift_and_evaluate_over_q(coeffs, c, x):
    a = dense.trim(Q, [Q.from_rat(v) for v in coeffs])
    shifted = dense.shift(Q, a, Q.from_rat(c))
    assert dense.evaluate(Q, shifted, Q.from_rat(x)) == dense.evaluate(Q, a, Q.from_rat(x + c))
    assert _to_unipoly([v[0] for v in shifted]) == _to_unipoly(coeffs).compose(_to_unipoly([c, 1]))


def test_powmod_and_power():
    x = [0, 1]
    assert dense.powmod(F7, x, 7, [0, 6, 0, 0, 0, 0, 0, 1]) == x  # x^7 = x mod x^7 - x
    assert dense.power(F7, 3, 6) == 1
    assert dense.power(dense.INTEGERS, -2, 5) == -32


def test_newton_sides():
    # x^3 + 9x + 3 at p = 3: valuations (1, 2, None, 0)
    assert dense.newton_sides([(0, 1), (1, 2), (3, 0)]) == [(0, 1, 3, 0, Fraction(1, 3))]
    sides = dense.newton_sides([(0, 4), (1, 1), (2, 1), (3, 0)])
    assert [(s[0], s[2], s[4]) for s in sides] == [(0, 1, 3), (1, 3, Fraction(1, 2))]


def test_division_by_non_monic_needs_a_unit():
    with pytest.raises(DomainError):
        dense.quorem(dense.INTEGERS, [1, 0, 1], [1, 2])
    q, r = dense.quorem(dense.INTEGERS, [1, 0, 1], [1, -1])  # lead -1 is a unit
    assert (q, r) == ([-1, -1], [2])


def test_ext_gcd_rejects_common_factor():
    with pytest.raises(DomainError):
        dense.ext_gcd(F7, [6, 0, 1], [6, 1])  # x^2 - 1 and x - 1
