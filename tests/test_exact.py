"""Exact polynomial arithmetic, integer utilities and the JSON encoding
of result records."""

import dataclasses
import json
import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp
from sympy.polys.subresultants_qq_zz import sylvester

from gsl import dense, exact
from gsl.applications import adequacy_certificate, parametric_obstruction_report
from gsl.covers import branch_points
from gsl.errors import DomainError, HypothesisViolation
from gsl.exact import (
    BiPoly,
    JsonRecord,
    UniPoly,
    crt_combine,
    disc_y,
    discriminant,
    factor_int,
    is_prime,
    rat_from_str,
    rat_to_str,
    rational_valuation,
    resultant,
    squarefree_part,
)
from gsl.specialize import specialize_poly, verify_specialization

rats = st.fractions(
    min_value=-30, max_value=30, max_denominator=6
)
polys = st.lists(rats, min_size=0, max_size=6).map(UniPoly)


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# UniPoly ring laws


@given(polys, polys)
def test_add_sub_roundtrip(f, g):
    assert (f + g) - g == f


@given(polys, polys)
def test_mul_degree(f, g):
    if f.is_zero or g.is_zero:
        assert (f * g).is_zero
    else:
        assert (f * g).degree == f.degree + g.degree


@given(polys, polys)
def test_divmod_identity(f, g):
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(polys, polys)
def test_gcd_divides(f, g):
    if f.is_zero and g.is_zero:
        return
    d = f.gcd(g)
    assert (f % d).is_zero and (g % d).is_zero
    assert d.lc == 1  # monic


_x = sp.Symbol("x")


def _to_sympy(f: UniPoly) -> sp.Poly:
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)] or [0],
                   _x, domain=sp.QQ)


def _from_sympy(P: sp.Poly) -> UniPoly:
    return UniPoly(Fraction(str(c)) for c in reversed(P.all_coeffs()))


@given(polys, polys, rats)
def test_unipoly_matches_sympy(f, g, x):
    F, G = _to_sympy(f), _to_sympy(g)
    assert f + g == _from_sympy(F + G)
    assert f - g == _from_sympy(F - G)
    assert f * g == _from_sympy(F * G)
    assert f.derivative() == _from_sympy(F.diff(_x))
    assert f(x) == Fraction(str(F.eval(sp.Rational(x.numerator, x.denominator))))
    if not g.is_zero:
        assert divmod(f, g) == tuple(map(_from_sympy, F.div(G)))
    if not (f.is_zero and g.is_zero):
        assert f.gcd(g) == _from_sympy(F.gcd(G).monic())
    if not (f.is_zero or g.is_zero):
        # the determinant of the Sylvester matrix, the definition: sympy's
        # Poly.resultant gets the sign wrong for some deg f < deg g, both odd
        # (it gives Res(x + 1, x^3) = 1, not -1)
        assert resultant(f, g) == Fraction(str(sylvester(F.as_expr(), G.as_expr(), _x).det()))
    if f.degree >= 1:
        assert discriminant(f) == Fraction(str(F.discriminant()))


# resultants over Q run over Z after clearing denominators: non-monic inputs
# with large denominators exercise the a^deg g * b^deg f correction
big_rats = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
non_monic = st.lists(big_rats, min_size=2, max_size=5).filter(
    lambda cs: cs[-1] not in (0, 1)).map(UniPoly)


@settings(max_examples=40, deadline=None)
@given(non_monic, non_monic)
def test_resultant_with_large_denominators_matches_sylvester(f, g):
    F, G = _to_sympy(f), _to_sympy(g)
    assert resultant(f, g) == Fraction(str(sylvester(F.as_expr(), G.as_expr(), _x).det()))
    assert discriminant(f) == Fraction(str(F.discriminant()))


# evaluation at a rational runs on ints (homogeneous Horner over the lcm of
# the denominators) and the discriminant on the cleared polynomial: both
# against the rational route they replace
points = st.one_of(
    rats,
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**6),
    st.integers(-10**6, 10**6),
)


@given(polys, points)
def test_value_at_a_rational_matches_horner_over_q(f, x):
    want = dense.evaluate(dense.RATIONALS, f.coeffs, Fraction(x))
    got = f(x)
    assert got == want and type(got) is Fraction


@given(st.lists(rats, min_size=1, max_size=5).map(UniPoly), rats)
def test_value_at_a_root_is_zero(g, r):
    # (x - r) g vanishes at r, a point with d > 1 when r is not an integer
    f = UniPoly([-r, 1]) * g
    assert f(r) == 0 and f(r) == dense.evaluate(dense.RATIONALS, f.coeffs, r)


# the integer form (A, a) is computed once per polynomial and read after;
# P(t0, Y) is one integer Horner pass per row: both against rational
# arithmetic written out here, not through the code they check
def _lcm_from_scratch(denominators):
    out = 1
    for d in denominators:
        a, b = out, d
        while b:  # a = gcd(out, d)
            a, b = b, a % b
        out = out * d // a
    return out


def _form_from_scratch(f):
    a = _lcm_from_scratch(c.denominator for c in f.coeffs)
    return tuple(int(c * a) for c in f.coeffs), a


wide_rats = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
rows_with_zeros = st.lists(st.one_of(st.just([]), st.lists(wide_rats, max_size=5)),
                           min_size=1, max_size=5)
t0s = st.one_of(
    st.integers(-10**4, 10**4).map(Fraction),  # d = 1
    st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**5)),
)


@given(st.one_of(polys, non_monic, st.lists(wide_rats, max_size=7).map(UniPoly)))
def test_integer_form_is_the_lcm_form_computed_once(f):
    assert f._int is None  # nothing is computed until something reads it
    form = f._form()
    assert form == _form_from_scratch(f) and form[1] > 0
    assert all(type(c) is int for c in form[0])
    assert f._form() is form and f._int is form
    assert exact._cleared(f) == ([form[0]], form[1])
    g = f * UniPoly([Fraction(1, 3), Fraction(5, 7)])
    (A, B), a = exact._cleared(f, g)
    assert a == _lcm_from_scratch(c.denominator for c in f.coeffs + g.coeffs)
    assert (A, B) == tuple(tuple(int(c * a) for c in h.coeffs) for h in (f, g))


@given(rows_with_zeros, t0s)
def test_specialization_is_the_fraction_evaluation(rows, t0):
    P = BiPoly([UniPoly(r) for r in rows])
    want = []
    for row in P.rows:
        value = Fraction(0)
        for j, c in enumerate(row.coeffs):
            value += c * t0**j
        want.append(value)
    while want and want[-1] == 0:
        want.pop()
    got = P.at(t0)
    assert got.coeffs == tuple(want) and all(type(c) is Fraction for c in got.coeffs)
    # its integer form was set from the Horner ints, and is the least one
    assert got._int is not None and got._int == _form_from_scratch(got)
    assert got == UniPoly(want) and hash(got) == hash(UniPoly(want))


@given(st.sampled_from(["c2_sqrt_t", "c3_shanks", "v4_sqrt_t_sqrt_t_minus_1"]), t0s)
def test_specialize_poly_is_the_fraction_evaluation_on_the_bundled_covers(covers, name, t0):
    cover = covers[name]
    assume(cover.analysis.disc_sf(t0) != 0)
    got = specialize_poly(cover, t0)
    want = [sum((c * t0**j for j, c in enumerate(row.coeffs)), Fraction(0)) for row in cover.poly.rows]
    assert got.coeffs == tuple(want) and got._int == _form_from_scratch(got)


@given(st.one_of(polys, non_monic), st.fractions(min_value=-50, max_value=50,
                                                 max_denominator=50).filter(bool))
def test_equal_polynomials_hash_equal_however_built(f, c):
    built = [
        UniPoly(f.coeffs),
        UniPoly([rat_to_str(x) for x in f.coeffs]),
        UniPoly._of(list(f.coeffs)),
        f + UniPoly(),
        f.scale(c).scale(1 / c),
        pickle.loads(pickle.dumps(f)),
        BiPoly([UniPoly.const(x) for x in f.coeffs]).at(Fraction(7, 3)),
    ]
    A, a = _form_from_scratch(f)
    built.append(UniPoly._of_int([6 * x for x in A] + [0], 6 * a))  # not in lowest terms
    for g in built:
        assert g == f and hash(g) == hash(f)
    if not f.is_zero:
        m = f.monic()
        for g in (f.scale(c).monic(), UniPoly(m.coeffs), pickle.loads(pickle.dumps(m))):
            assert g == m and hash(g) == hash(m)
    P = BiPoly([f, UniPoly.const(1)])
    Q = pickle.loads(pickle.dumps(P))
    assert Q == P and hash(Q) == hash(P) and Q._form() == P._form()


@settings(deadline=None)
@given(st.one_of(polys, non_monic))
def test_discriminant_is_the_signed_resultant_with_the_derivative(f):
    assume(f.degree >= 2)
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    assert discriminant(f) == sign * resultant(f, f.derivative()) / f.lc


# Res_Y over Q[T] by evaluation at integer points and interpolation, against
# the determinant of sympy's Sylvester matrix in Y (see the sign remark above)
_t, _y = sp.symbols("t y")
small_rows = st.lists(st.integers(-6, 6), max_size=3)
nonzero_rows = st.lists(st.integers(-4, 4), min_size=1, max_size=2).filter(any)


def _bipoly(rows) -> BiPoly:
    return BiPoly([UniPoly(r) for r in rows])


def _bi_to_sympy(P: BiPoly):
    return sum(sp.Rational(str(c)) * _t**j * _y**i
               for i, row in enumerate(P.rows) for j, c in enumerate(row.coeffs))


def _t_poly(expr) -> UniPoly:
    return UniPoly(Fraction(str(c)) for c in reversed(sp.Poly(sp.expand(expr), _t).all_coeffs()))


@settings(max_examples=30)
@given(st.lists(small_rows, min_size=1, max_size=4))
def test_disc_y_matches_sympy(rows):
    P = _bipoly(rows + [[1]])
    assert disc_y(P) == _t_poly(sp.discriminant(_bi_to_sympy(P), _y))


@settings(max_examples=30)
@given(st.lists(small_rows, min_size=1, max_size=3), nonzero_rows,
       st.lists(small_rows, min_size=1, max_size=2), nonzero_rows)
def test_bivariate_resultant_skips_points_where_a_leading_row_vanishes(fr, lf, gr, lg):
    # leading rows (T^3 - T) lf(T) and (T^2 - 4) lg(T) vanish at the first
    # sample points 0, 1, -1, 2, -2
    f = _bipoly(fr + [(UniPoly([0, -1, 0, 1]) * UniPoly(lf)).coeffs])
    g = _bipoly(gr + [(UniPoly([-4, 0, 1]) * UniPoly(lg)).coeffs])
    want = sylvester(_bi_to_sympy(f), _bi_to_sympy(g), _y).det()
    assert resultant(f, g) == _t_poly(want)


_rat_rows = st.lists(st.fractions(-6, 6, max_denominator=4), max_size=3)


@st.composite
def _rational_bipoly(draw):
    """A bivariate with rational rows, not monic in Y; half the time its
    leading row holds (T - 1)(T + 2), so that the sample points 1 and -2
    are skipped."""
    rows = draw(st.lists(_rat_rows, min_size=0, max_size=3))
    lead = UniPoly(draw(_rat_rows.filter(any)))
    if draw(st.booleans()):
        lead = lead * UniPoly([-2, 1, 1])
    return _bipoly(rows + [lead.coeffs])


@settings(max_examples=25, deadline=None)
@given(_rational_bipoly(), _rational_bipoly())
def test_bivariate_resultant_matches_sympy_over_rational_rows(f, g):
    # the Sylvester determinant, not sp.resultant (see the sign remark above)
    want = sylvester(_bi_to_sympy(f), _bi_to_sympy(g), _y).det()
    assert resultant(f, g) == _t_poly(want)


@st.composite
def _shaped_cover(draw, triangular: bool):
    """P monic in Y of Y-degree m: with triangular rows (deg_T of the Y^i row
    at most m - i, as in C6) the total-degree bound on deg_T disc_y is the
    tighter one; with rows of one T-degree k the Sylvester bound can be."""
    m = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    rows = [draw(st.lists(st.integers(-5, 5), min_size=1, max_size=(m - i if triangular else k) + 1))
            for i in range(m)]
    return _bipoly(rows + [[1]])


def _total_degree(P: BiPoly) -> int:
    return max(i + r.degree for i, r in enumerate(P.rows) if not r.is_zero)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.booleans())
def test_disc_y_through_the_tighter_degree_bound_matches_sympy(data, triangular):
    P = data.draw(_shaped_cover(triangular))
    PY = BiPoly([row.scale(i) for i, row in enumerate(P.rows)][1:])
    m = P.degree_y
    sylvester_bound = (m - 1) * max(r.degree for r in P.rows) + m * max(r.degree for r in PY.rows)
    total_bound = _total_degree(P) * _total_degree(PY)
    assume(total_bound < sylvester_bound if triangular else sylvester_bound < total_bound)
    assert disc_y(P) == _t_poly(sp.discriminant(_bi_to_sympy(P), _y))


# the degree-6 cover C6 of the benchmark: rows of T-degree 4, 3, 3, 2, 2, 1, 0
_C6 = [[-19, 6, 27, 10, 1], [-24, -84, -36, -4], [84, 38, -6, -2], [-2, 26, 6],
       [-21, -5, 1], [0, -2], [1]]


def test_disc_y_of_c6_takes_31_resultants(monkeypatch):
    # totdeg P * totdeg P_Y = 6 * 5 = 30 < the Sylvester bound 38
    calls = []
    real = exact._subresultant

    def spy(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(exact, "_subresultant", spy)
    assert disc_y(_bipoly(_C6)).degree == 21
    assert len(calls) == 31


def test_json_roundtrip():
    f = upoly("-1/2", 0, 3)
    assert UniPoly.from_json(f.to_json()) == f
    assert f.to_json() == ["-1/2", "0", "3"]
    assert UniPoly.from_json([]).is_zero


def _records(rec):
    """rec and every JsonRecord nested in its fields."""
    yield rec
    stack = [getattr(rec, f.name) for f in dataclasses.fields(rec)]
    while stack:
        v = stack.pop()
        if isinstance(v, JsonRecord):
            yield from _records(v)
        elif isinstance(v, tuple):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())


@pytest.fixture(scope="module")
def record_battery(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    tops = [
        verify_specialization(v4, Fraction(26)),  # "divisible" mode at 5
        verify_specialization(v4, Fraction(-3, 7), primes=(11,)),  # unramified
        adequacy_certificate(v4, Fraction(21)),
        parametric_obstruction_report(v4, 2, 20),
        parametric_obstruction_report(covers["c2_sqrt_t"], 2, 20),  # no certificate
        *branch_points(covers["c3_shanks"]),
    ]
    return [r for top in tops for r in _records(top)]


@given(t0=rats, name=st.sampled_from(["c2_sqrt_t", "c3_shanks", "v4_sqrt_t_sqrt_t_minus_1"]))
def test_json_records_are_their_fields_in_order(record_battery, covers, t0, name):
    """Every result record encodes as an object of its fields in declaration
    order, survives a JSON round trip unchanged, and writes each Fraction
    as a string that parses back to it."""
    try:
        drawn = list(_records(verify_specialization(covers[name], t0)))
    except HypothesisViolation:  # t0 on a branch locus
        drawn = []
    assert {type(r) for r in record_battery} == set(JsonRecord.__subclasses__())
    for rec in record_battery + drawn:
        doc = rec.to_json()
        names = [f.name for f in dataclasses.fields(rec)]
        assert list(doc) == names
        assert json.loads(json.dumps(doc)) == doc
        for field in names:
            value = getattr(rec, field)
            if isinstance(value, Fraction):
                assert rat_from_str(doc[field]) == value


def test_eval():
    f = upoly(1, 2, 1)  # (x+1)^2
    assert f(Fraction(3)) == 16
    assert f(Fraction(-1, 2)) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# resultants / discriminants


def test_discriminant_quadratic():
    # disc(x^2 + bx + c) = b^2 - 4c
    for b, c in [(3, 1), (0, -7), (5, 5)]:
        assert discriminant(upoly(c, b, 1)) == b * b - 4 * c


def test_discriminant_depressed_cubic():
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    for p, q in [(1, 1), (-2, 3), (0, 5)]:
        assert discriminant(upoly(q, p, 0, 1)) == -4 * p**3 - 27 * q**2


def test_discriminant_split_cubic():
    f = upoly(-1, 1) * upoly(-2, 1) * upoly(-3, 1)
    # prod of squared root differences: (1*2*1)^2
    assert discriminant(f) == 4


def test_resultant_common_root():
    f = upoly(-1, 1) * upoly(-2, 1)
    g = upoly(-1, 1) * upoly(3, 1)
    assert resultant(f, g) == 0
    assert resultant(f, upoly(3, 1)) != 0


def test_disc_y_specializes():
    # disc_y(P) evaluated at t0 = disc of the specialized polynomial
    P = BiPoly.from_json([["1"], ["0"], ["2", "-4"], ["0"], ["1"]])
    d = disc_y(P)
    for t0 in (Fraction(3), Fraction(21), Fraction(-5, 7)):
        f_t0 = UniPoly([row(t0) for row in P.rows])
        assert d(t0) == discriminant(f_t0)


def test_squarefree_part():
    f = upoly(-1, 1) * upoly(-1, 1) * upoly(2, 1)
    sf = squarefree_part(f)
    assert sf.degree == 2
    assert (sf % upoly(-1, 1)).is_zero and (sf % upoly(2, 1)).is_zero
    assert sf.gcd(sf.derivative()).degree == 0


# ---------------------------------------------------------------------------
# scalars


def test_rat_str_roundtrip():
    for s in ("21", "-3/7", "0", "1/2"):
        assert rat_to_str(rat_from_str(s)) == s


def test_rational_valuation():
    assert rational_valuation(Fraction(50), 5) == 2
    assert rational_valuation(Fraction(1, 5), 5) == -1
    assert rational_valuation(Fraction(3), 5) == 0
    with pytest.raises(DomainError):
        rational_valuation(Fraction(0), 5)
    with pytest.raises(DomainError):
        rational_valuation(Fraction(1), 6)


@given(st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
       st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
       st.sampled_from([2, 3, 5, 7]))
def test_valuation_multiplicative(x, y, p):
    assert rational_valuation(x * y, p) == rational_valuation(x, p) + rational_valuation(y, p)


# The least strong pseudoprimes to all the prime bases up to 37 and up to
# 41 (Sorenson & Webster, Math. Comp. 86 (2017)): composites that the
# strong tests to those bases alone accept
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_prime():
    primes = {2, 3, 5, 7, 8191, 10007, 399165290221, 798330580441, 1287836182261, 2575672364521}
    composites = {0, 1, 341, 561, 8192, 10005, PSI_12, PSI_13}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_strong_lucas_test_matches_sympy():
    # every odd n below 20000 that the test can be handed: no prime factor
    # up to 37, not a square
    for n in range(41, 20000, 2):
        if all(n % q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)) and math.isqrt(n) ** 2 != n:
            assert exact._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


_two_primes = st.tuples(st.integers(10**10, 10**20), st.integers(10**12, 10**20)).map(
    lambda t: sp.nextprime(t[0]) * sp.nextprime(t[1]))


@settings(max_examples=200)
@given(st.one_of(st.integers(PSI_12 // 2, 10**40).map(lambda n: 2 * n + 1),
                 st.integers(PSI_12, 10**40).map(sp.nextprime),
                 _two_primes))
def test_is_prime_matches_sympy_on_large_odd_numbers(n):
    assert is_prime(n) == sp.isprime(n)


def test_factor_int():
    assert factor_int(2**4 * 3**2 * 5 * 10007) == {2: 4, 3: 2, 5: 1, 10007: 1}
    assert factor_int(-12) == {2: 2, 3: 1}
    assert factor_int(7 * PSI_12) == {7: 1, 399165290221: 1, 798330580441: 1}
    assert factor_int(1) == {}
    n = 1009 * 1013  # beyond the trial-division floor exercised via Pollard path
    assert factor_int(n * n) == {1009: 2, 1013: 2}
    with pytest.raises(DomainError):
        factor_int(0)


@given(st.lists(st.integers(10_001, 10**7).map(sp.nextprime), min_size=2, max_size=3),
       st.integers(1, 1000))
def test_factor_int_splits_large_prime_factors_like_sympy(big, small):
    # every prime of the cofactor lies above the trial-division limit 10^4,
    # so Pollard-Brent splits it
    n = small * math.prod(big)
    with mock.patch.object(exact, "_pollard_brent", wraps=exact._pollard_brent) as rho:
        assert factor_int(n) == sp.factorint(n)
    assert rho.called


def test_crt_combine():
    assert crt_combine([(9, 1), (25, 2)]) == 127
    assert crt_combine([(25, 10), (49, 7)]) == 1085
    with pytest.raises(DomainError):
        crt_combine([(4, 1), (6, 1)])
