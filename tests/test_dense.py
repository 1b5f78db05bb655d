"""The dense-polynomial kernel: ring identities checked over F_p and Q
(the degree-1 number field QX), differential checks against sympy over Z,
Q, number fields and F_p, and the typed errors of its checks."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsl import dense
from gsl.errors import DomainError
from gsl.exact import UniPoly, _sample_points
from gsl.modp import Zq, prime_field
from gsl.nfield import NumberField

F7 = prime_field(7)
QX = NumberField(UniPoly([Fraction(0), Fraction(1)]))  # Q as Q[x]/(x)
FIELDS = st.sampled_from([
    (F7, st.integers(0, 6)),
    (QX, st.fractions(-9, 9, max_denominator=4).map(QX.from_rat)),
])

monic_int = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(lambda a: a + [1])
_x = sp.Symbol("x")


def _polys(R, elems):
    return st.lists(elems, max_size=7).map(lambda a: dense.trim(R, a))


def _to_sympy(a) -> sp.Poly:
    """A dense list of rationals as a sympy polynomial in x over Q."""
    return sp.Poly([sp.Rational(str(c)) for c in reversed(a)] or [0], _x, domain=sp.QQ)


def _from_sympy(P: sp.Poly) -> list:
    """The rational coefficients of P, constant term first, with no
    trailing zeros."""
    out = [Fraction(str(c)) for c in reversed(P.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


@given(st.data())
def test_quorem_identity(data):
    R, elems = data.draw(FIELDS)
    a = data.draw(_polys(R, elems))
    b = data.draw(_polys(R, elems).filter(bool))
    q, r = dense.quorem(R, a, b)
    assert len(r) < len(b)
    assert dense.add(R, dense.mul(R, q, b), r) == a


@given(st.lists(st.integers(-50, 50), max_size=8).map(lambda a: dense.trim(dense.INTEGERS, a)), monic_int)
def test_quorem_over_z_matches_q(a, b):
    q, r = dense.quorem(dense.INTEGERS, a, b)
    sq, sr = _to_sympy(a).div(_to_sympy(b))
    assert (q, r) == (_from_sympy(sq), _from_sympy(sr))


@given(st.data())
def test_ext_gcd_bezout(data):
    R, elems = data.draw(FIELDS)
    a = data.draw(_polys(R, elems).filter(bool))
    b = data.draw(_polys(R, elems).filter(bool))
    g = dense.gcd(R, a, b)
    if len(g) > 1:
        with pytest.raises(DomainError):
            dense.ext_gcd(R, a, b)
        return
    s, t = dense.ext_gcd(R, a, b)
    assert dense.add(R, dense.mul(R, s, a), dense.mul(R, t, b)) == [R.one]
    assert len(s) < max(len(b), 2) and len(t) < max(len(a), 2)


@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(-5, 5), st.integers(-5, 5))
def test_shift_and_evaluate_over_q(coeffs, c, x):
    a = dense.trim(QX, [QX.from_int(v) for v in coeffs])
    shifted = dense.shift(QX, a, QX.from_int(c))
    assert dense.evaluate(QX, shifted, QX.from_int(x)) == dense.evaluate(QX, a, QX.from_int(x + c))
    assert [QX.coords(v)[0] for v in shifted] == _from_sympy(_to_sympy(coeffs).shift(c))


_small = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
F9 = Zq(prime_field(3), [1, 0, 1])  # F_3[i], i^2 = -1
# Q, Q(i), Q(sqrt 2), F_3, F_5 (checked against sympy) and F_9 (checked by
# its defining properties)
_SQF_FIELDS = [None, (UniPoly([1, 0, 1]), sp.I), (UniPoly([-2, 0, 1]), sp.sqrt(2)), 3, 5, F9]


@pytest.mark.parametrize("R", [QX, prime_field(5), F9, NumberField(UniPoly([1, 0, 1]))],
                         ids=["Q", "F5", "F9", "Q(i)"])
def test_squarefree_of_a_constant_has_no_parts(R):
    assert dense.squarefree(R, [R.one]) == []


@settings(max_examples=30)
@example(3, [([(1, 0)], 3)])  # (y + 1)^3 over F_3: a pure p-th power
@given(
    st.sampled_from(_SQF_FIELDS),
    st.lists(st.tuples(st.lists(_small, min_size=1, max_size=2), st.integers(1, 10)),
             min_size=1, max_size=3),
)
def test_squarefree_matches_sympy(field, factors):
    """Musser over Q, Q(i), Q(sqrt 2), F_3 and F_5 against sympy's sqf_list:
    the parts of a product of powers of small monic factors.  Over F_q the
    multiplicities reach 2p, so the p-th-root branch runs; over Q and the
    number fields they stop at 3, which keeps sympy fast.  Over F_9 the parts
    must multiply back to f and be monic, squarefree and pairwise coprime,
    which determines them."""
    y = sp.Symbol("y")
    if field is None:
        R, gen, top = QX, sp.Integer(0), 3
    elif isinstance(field, int):
        R, gen, top = prime_field(field), sp.Integer(0), 2 * field
    elif field is F9:
        R, gen, top = F9, None, 6
    else:
        R, gen, top = NumberField(field[0]), field[1], 3

    def elem(a, b):  # a + b * gen in R
        if R is F9:
            return (a % 3, b % 3)
        return R.from_unipoly(UniPoly([a, b])) if isinstance(R, NumberField) else R.from_int(a)

    f, expr = [R.one], sp.Integer(1)
    for fac, e in factors:
        e = min(e, top)
        g = [elem(a, b) for a, b in fac] + [R.one]
        for _ in range(e):
            f = dense.mul(R, f, g)
        if gen is not None:
            expr *= (sum((a + b * gen) * y**i for i, (a, b) in enumerate(fac)) + y ** len(fac)) ** e
    ours = dense.squarefree(R, f)
    mults = [i for _, i in ours]
    assert mults == sorted(set(mults))
    if field is F9:
        prod = [R.one]
        for a, i in ours:
            assert a[-1] == R.one and dense.gcd(R, a, dense.deriv(R, a)) == [R.one]
            for _ in range(i):
                prod = dense.mul(R, prod, a)
        assert prod == f
        for (a, _), (b, _) in itertools.combinations(ours, 2):
            assert dense.gcd(R, a, b) == [R.one]
        return
    if isinstance(field, int):
        _, parts = sp.Poly(expr, y, modulus=field).sqf_list()
    else:
        kwargs = {} if field is None else {"extension": gen}
        _, parts = sp.sqf_list(sp.expand(expr), y, **kwargs)
    want = []
    for part, i in parts:
        row = []
        for c in sp.Poly(part, y).monic().all_coeffs()[::-1]:
            if isinstance(field, int):
                row.append(int(c) % field)
            elif field is None:
                row.append(R.from_rat(Fraction(str(c))))
            else:
                ab = sp.Poly(sp.expand(c), gen).all_coeffs()[::-1] + [0]
                row.append(R.from_unipoly(UniPoly([Fraction(str(ab[0])), Fraction(str(ab[1]))])))
        want.append((row, i))
    assert sorted(ours, key=lambda t: t[1]) == sorted(want, key=lambda t: t[1])


def test_powmod_and_power():
    x = [0, 1]
    assert dense.powmod(F7, x, 7, [0, 6, 0, 0, 0, 0, 0, 1]) == x  # x^7 = x mod x^7 - x
    assert dense.power(F7, 3, 6) == 1
    assert dense.power(dense.INTEGERS, -2, 5) == -32


def test_powmod_and_power_reject_a_negative_exponent():
    # e >>= 1 stays at -1, so the square-and-multiply loop would never end
    with pytest.raises(DomainError, match="negative exponent"):
        dense.power(dense.INTEGERS, 2, -1)
    with pytest.raises(DomainError, match="negative exponent"):
        dense.powmod(F7, [0, 1], -1, [1, 0, 1])


def test_newton_sides():
    # x^3 + 9x + 3 at p = 3: valuations (1, 2, None, 0)
    assert dense.newton_sides([(0, 1), (1, 2), (3, 0)]) == [(0, 1, 3, 0, (1, 3))]
    sides = dense.newton_sides([(0, 4), (1, 1), (2, 1), (3, 0)])
    assert [(s[0], s[2], s[4]) for s in sides] == [(0, 1, (3, 1)), (1, 3, (1, 2))]


def _hull_by_fractions(points):
    """The lower hull of `points` by gift wrapping in `Fraction`s: from each
    vertex, the next is the point of least slope, the farthest on a tie."""
    sides, i = [], 0
    while i < len(points) - 1:
        (xa, ya) = points[i]
        slope, j = min((Fraction(y - ya, x - xa), -k) for k, (x, y) in enumerate(points)
                       if k > i)
        (xb, yb) = points[-j]
        sides.append((xa, ya, xb, yb, -slope))
        i = -j
    return sides


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 12), st.integers(-20, 20), min_size=1, max_size=13))
def test_newton_sides_match_a_hull_computed_in_fractions(vals):
    points = sorted(vals.items())
    assert [(xa, ya, xb, yb, Fraction(*lam)) for xa, ya, xb, yb, lam in dense.newton_sides(points)
            ] == _hull_by_fractions(points)
    for *_, (h, e) in dense.newton_sides(points):
        assert e > 0 and math.gcd(h, e) == 1


def test_division_by_non_monic_needs_a_unit():
    with pytest.raises(DomainError):
        dense.quorem(dense.INTEGERS, [1, 0, 1], [1, 2])
    q, r = dense.quorem(dense.INTEGERS, [1, 0, 1], [1, -1])  # lead -1 is a unit
    assert (q, r) == ([-1, -1], [2])


def test_integer_divexact_raises_on_inexact_division():
    assert dense.INTEGERS.divexact(-12, 4) == -3
    assert dense.INTEGERS.divexact(0, -5) == 0
    with pytest.raises(DomainError):
        dense.INTEGERS.divexact(7, 2)
    with pytest.raises(DomainError):
        dense.INTEGERS.divexact(-7, 2)


def test_ext_gcd_rejects_common_factor():
    with pytest.raises(DomainError):
        dense.ext_gcd(F7, [6, 0, 1], [6, 1])  # x^2 - 1 and x - 1


# ---------------------------------------------------------------------------
# interpolation and the monic-remainder gcd


def _sympy_interpolant(xs, ys) -> list:
    return _from_sympy(sp.Poly(sp.interpolate(list(zip(xs, ys)), _x), _x, domain=sp.QQ))


@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(0, 3))
def test_interpolate_matches_sympy(a, extra):
    # an integer polynomial, from its values at the nodes 0, 1, -1, 2, ...
    a = dense.trim(dense.INTEGERS, a)
    xs = list(itertools.islice(_sample_points(), len(a) + extra))
    ys = [dense.evaluate(dense.INTEGERS, a, x) for x in xs]
    ours = dense.interpolate(xs, ys)
    assert ours == a
    if xs:
        assert ours == _sympy_interpolant(xs, ys)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7, unique=True), st.data())
def test_interpolate_recovers_integer_polynomials_and_rejects_the_rest(xs, data):
    # any integer values at distinct integer nodes: either sympy's
    # interpolant lies in Z[x] and is ours, or one division is inexact
    ys = data.draw(st.lists(st.integers(-50, 50), min_size=len(xs), max_size=len(xs)))
    theirs = _sympy_interpolant(xs, ys)
    if all(c.denominator == 1 for c in theirs):
        assert dense.interpolate(xs, ys) == theirs
    else:
        with pytest.raises(DomainError):
            dense.interpolate(xs, ys)


def test_interpolate_rejects_values_of_no_integer_polynomial():
    # (x^2 + x) / 2 takes the integer values 0, 1, 0 at 0, 1, -1
    with pytest.raises(DomainError):
        dense.interpolate([0, 1, -1], [0, 1, 0])
    assert dense.interpolate([0, 1, -1], [0, 2, 0]) == [0, 1, 1]


@given(st.data())
def test_gcd_is_monic_and_a_multiple_of_every_common_factor(data):
    R, elems = data.draw(FIELDS)
    a, b, c = (data.draw(_polys(R, elems)) for _ in range(3))
    g = dense.gcd(R, dense.mul(R, a, c), dense.mul(R, b, c))
    if not g:
        assert not dense.mul(R, a, c) and not dense.mul(R, b, c)
        return
    assert g[-1] == R.one
    for x in (a, b):
        assert not dense.rem(R, dense.mul(R, x, c), g)
    if c:
        assert not dense.rem(R, g, c)  # c divides both, so it divides the gcd
