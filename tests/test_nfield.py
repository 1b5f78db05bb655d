"""Number-field arithmetic: factorization over Q and over number fields,
adjoining roots, relative minimal polynomials."""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gsl import dense, nfield
from gsl.errors import DomainError, NotSeparable, PrecisionExhausted
from gsl.exact import UniPoly, factor_int
from gsl.nfield import (
    NumberField,
    adjoin_root,
    factor_nf,
    factor_rational,
    is_irreducible_rational,
    relative_min_poly,
)


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# factorization over Q


def test_factor_rational_cyclotomic_split():
    # x^4 - 1 = (x-1)(x+1)(x^2+1)
    fac = factor_rational(upoly(-1, 0, 0, 0, 1))
    assert [(f.to_json(), m) for f, m in fac] == [
        (["-1", "1"], 1),
        (["1", "1"], 1),
        (["1", "0", "1"], 1),
    ]


def test_factor_rational_sophie_germain():
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
    fac = factor_rational(upoly(4, 0, 0, 0, 1))
    assert [(f.to_json(), m) for f, m in fac] == [
        (["2", "-2", "1"], 1),
        (["2", "2", "1"], 1),
    ]


def test_factor_rational_multiplicity_and_content():
    f = upoly(0, 0, 0, 1) * upoly(-1, 1) * upoly(-1, 1)  # x^3 (x-1)^2
    fac = factor_rational(f)
    assert [(g.to_json(), m) for g, m in fac] == [(["-1", "1"], 2), (["0", "1"], 3)]


def test_factor_rational_denominators():
    fac = factor_rational(upoly(Fraction(-1, 4), 0, 1))  # x^2 - 1/4
    assert [(g.to_json(), m) for g, m in fac] == [
        (["-1/2", "1"], 1),
        (["1/2", "1"], 1),
    ]


def test_factor_rational_recombination():
    # two cubics whose modular factors force subset recombination at many p
    f = upoly(1, 2, 0, 1) * upoly(1, 1, 0, 1)
    fac = factor_rational(f)
    assert sorted(g.to_json() for g, _ in fac) == [
        ["1", "1", "0", "1"],
        ["1", "2", "0", "1"],
    ]


def test_is_irreducible_rational():
    assert is_irreducible_rational(upoly(1, 0, 0, 0, 1))  # x^4 + 1
    assert not is_irreducible_rational(upoly(4, 0, 0, 0, 1))  # x^4 + 4
    assert is_irreducible_rational(upoly(-2, 0, 1))


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_factor_rational_product_of_linears(a, b):
    f = upoly(a, 1) * upoly(b, 1)
    fac = factor_rational(f)
    prod = upoly(1)
    for g, m in fac:
        for _ in range(m):
            prod = prod * g
    assert prod == f


# ---------------------------------------------------------------------------
# number-field arithmetic against sympy, and the canonical form

_x = sp.Symbol("x")
# Q(i), Q(sqrt 2), a cubic, and a quintic residue field of C6 whose modulus
# has non-integral coefficients
_FIELDS = [
    upoly(1, 0, 1),
    upoly(-2, 0, 1),
    upoly(-1, -1, 0, 1),
    UniPoly.from_json(["2339/4", "435/2", "-359/4", "-65/2", "11/4", "1"]),
]
_rats = st.fractions(-50, 50, max_denominator=30)


def _sympy_poly(cs) -> sp.Poly:
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(cs)] or [0],
                   _x, domain=sp.QQ)


def _sympy_coords(P: sp.Poly, n: int) -> list:
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())]
    return (cs + [Fraction(0)] * n)[:n]


@st.composite
def _field_and_elements(draw):
    M = draw(st.sampled_from(_FIELDS))
    K = NumberField(M)
    elt = st.lists(_rats, min_size=K.degree, max_size=K.degree)
    return K, draw(elt), draw(elt), draw(_rats), draw(st.lists(_rats, max_size=9))


@settings(max_examples=60, deadline=None)
@given(_field_and_elements())
def test_number_field_arithmetic_matches_sympy(data):
    K, ca, cb, c, u = data
    n = K.degree
    a, b = K.from_unipoly(UniPoly(ca)), K.from_unipoly(UniPoly(cb))
    A, B, M = _sympy_poly(ca), _sympy_poly(cb), _sympy_poly(K.modulus.coeffs)
    assert K.coords(a) == ca and K.coords(b) == cb
    assert K.coords(K.add(a, b)) == _sympy_coords(A + B, n)
    assert K.coords(K.sub(a, b)) == _sympy_coords(A - B, n)
    assert K.coords(K.neg(a)) == _sympy_coords(-A, n)
    assert K.coords(K.mul(a, b)) == _sympy_coords((A * B).rem(M), n)
    assert K.coords(K.scale(a, c)) == _sympy_coords(A * sp.Rational(c.numerator, c.denominator), n)
    assert K.coords(K.from_unipoly(UniPoly(u))) == _sympy_coords(_sympy_poly(u).rem(M), n)
    if a != K.zero:
        assert K.coords(K.inv(a)) == _sympy_coords(sp.invert(A, M), n)


def _is_canonical(K, a) -> bool:
    return (len(a) == K.degree + 1 and all(isinstance(c, int) for c in a)
            and a[-1] > 0 and math.gcd(*a) == 1)


@settings(max_examples=60, deadline=None)
@given(_field_and_elements())
def test_number_field_elements_stay_canonical(data):
    """Every result is an integer vector over a positive denominator with
    gcd 1, so equal elements are equal tuples, whatever path built them."""
    K, ca, cb, c, _ = data
    a, b = K.from_unipoly(UniPoly(ca)), K.from_unipoly(UniPoly(cb))
    results = [a, b, K.add(a, b), K.sub(a, b), K.neg(a), K.mul(a, b), K.scale(a, c),
               K.from_rat(c), K.zero, K.one, K.gen()]
    if a != K.zero:
        results.append(K.inv(a))
    assert all(_is_canonical(K, r) for r in results)
    assert K.sub(K.add(a, b), b) == a
    assert K.mul(a, b) == K.mul(b, a)
    assert K.add(a, K.neg(a)) == K.zero
    assert K.add(K.scale(a, Fraction(1, 3)), K.scale(a, Fraction(2, 3))) == a
    assert K.sub(a, a) == K.zero and K.scale(b, 1) == b
    if a != K.zero:
        assert K.mul(a, K.inv(a)) == K.one
        assert K.mul(K.mul(a, b), K.inv(a)) == b


# ---------------------------------------------------------------------------
# number fields


def test_factor_over_gaussian_field():
    K = NumberField(upoly(1, 0, 1))  # Q(i)
    fac = factor_nf(K, [K.from_rat(Fraction(1)), K.zero, K.from_rat(Fraction(1))])
    assert len(fac) == 2 and all(len(g) == 2 for g, _ in fac)  # two linears
    # x^2 - 2 stays irreducible over Q(i)
    fac2 = factor_nf(K, [K.from_rat(Fraction(-2)), K.zero, K.from_rat(Fraction(1))])
    assert len(fac2) == 1 and fac2[0][1] == 1


def test_nf_roots_gaussian():
    K = NumberField(upoly(1, 0, 1))
    fac = factor_nf(K, [K.from_rat(Fraction(1)), K.zero, K.from_rat(Fraction(1))])
    roots = [K.neg(g[0]) for g, _ in fac if len(g) == 2]
    assert sorted(roots) == sorted([K.gen(), K.neg(K.gen())])


def test_adjoin_root_degree_grows():
    K = NumberField(upoly(-2, 0, 1))  # Q(sqrt 2)
    rho = [K.from_rat(Fraction(-3)), K.zero, K.from_rat(Fraction(1))]  # x^2 - 3
    adj = adjoin_root(K, rho)
    L = adj.field
    assert L.degree == 4
    assert is_irreducible_rational(L.modulus)
    # the embedded old generator still satisfies x^2 = 2
    g = adj.embed(K.gen())
    assert L.mul(g, g) == L.from_rat(Fraction(2))
    # the adjoined root satisfies x^2 = 3
    assert L.mul(adj.root, adj.root) == L.from_rat(Fraction(3))


def test_adjoin_root_linear_stays():
    K = NumberField(upoly(-2, 0, 1))
    rho = [K.neg(K.gen()), K.one]  # x - sqrt2: degree 1, no growth
    adj = adjoin_root(K, rho)
    assert adj.field.degree == K.degree
    assert adj.root == K.gen()


def test_relative_min_poly_quadratic_tower():
    K = NumberField(upoly(-2, 0, 1))  # base Q(sqrt 2)
    rho = [K.from_rat(Fraction(-3)), K.zero, K.from_rat(Fraction(1))]
    adj = adjoin_root(K, rho)
    L = adj.field
    rel = relative_min_poly(L, adj.embed(K.gen()), adj.root, K.degree)
    # min poly of sqrt3 over Q(sqrt2) is Z^2 - 3: coefficients constant in tau
    assert [c.to_json() for c in rel] == [["-3"], [], ["1"]]


def test_relative_min_poly_primitive_element():
    K = NumberField(upoly(-2, 0, 1))
    rho = [K.from_rat(Fraction(-3)), K.zero, K.from_rat(Fraction(1))]
    adj = adjoin_root(K, rho)
    L = adj.field
    # gamma = generator of L: its min poly over Q(sqrt2) has degree 2
    rel = relative_min_poly(L, adj.embed(K.gen()), L.gen(), K.degree)
    assert len(rel) - 1 == 2
    assert rel[-1] == UniPoly.const(Fraction(1))


def test_relative_min_poly_needs_a_generator():
    K = NumberField(upoly(-2, 0, 1))
    rho = [K.from_rat(Fraction(-3)), K.zero, K.from_rat(Fraction(1))]
    adj = adjoin_root(K, rho)
    tau = adj.embed(K.gen())
    # sqrt2 lies in Q(sqrt2): degree 1 over it, not [L : Q(sqrt2)] = 2
    with pytest.raises(DomainError):
        relative_min_poly(adj.field, tau, tau, K.degree)


def test_degree_one_field_factors():
    K = NumberField(upoly(0, 1))  # Q presented as Q[x]/(x)
    assert K.degree == 1
    fac = factor_nf(K, [K.from_rat(Fraction(-1)), K.zero, K.from_rat(Fraction(1))])
    assert len(fac) == 2


_small_factor = st.lists(st.fractions(-6, 6, max_denominator=4), min_size=1, max_size=3).map(
    lambda cs: UniPoly(cs + [Fraction(1)]))


@settings(max_examples=40, deadline=None)
@given(st.fractions(-20, 20, max_denominator=6),
       st.lists(_small_factor, min_size=1, max_size=4),
       st.fractions(-9, 9, max_denominator=5).filter(bool))
def test_factor_nf_over_a_degree_one_field_is_factor_rational(a, factors, lc):
    # Trager over Q[x]/(x - a): at the first shift, s = 0, the norm of h is
    # h itself, so the factors are factor_rational's; f repeats its first
    # factor, so that multiplicities show
    K = NumberField(UniPoly([-a, Fraction(1)]))
    f = UniPoly.const(lc)
    for g in factors + factors[:1]:
        f = f * g
    want = [(nfield.nf_from_unipoly(K, g), m) for g, m in factor_rational(f)]
    assert factor_nf(K, nfield.nf_from_unipoly(K, f)) == want


def test_number_field_inverse():
    K = NumberField(upoly(1, 0, 1))
    a = K.add(K.one, K.gen())  # 1 + i
    ainv = K.inv(a)
    assert K.mul(a, ainv) == K.one
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero)
    L = NumberField(upoly(-1, 0, 1))  # x^2 - 1 = (x - 1)(x + 1) is reducible
    with pytest.raises(DomainError):
        L.inv(L.add(L.gen(), L.one))


def test_adjoin_root_rejects_non_monic():
    K = NumberField(upoly(1, 0, 1))
    with pytest.raises(DomainError):
        adjoin_root(K, [K.one, K.zero, K.from_rat(Fraction(2))])


def test_zassenhaus_recombination_product_check(monkeypatch):
    # a division that claims every candidate divides loses a factor
    real = dense.quorem

    def lying_quorem(R, a, b):
        if R is dense.INTEGERS:
            return [1], []
        return real(R, a, b)

    monkeypatch.setattr(dense, "quorem", lying_quorem)
    with pytest.raises(PrecisionExhausted):
        factor_rational(upoly(-1, 0, 1))


def test_factor_nf_degree_check(monkeypatch):
    # a Trager split that drops a factor must not go unnoticed
    real = nfield._trager_squarefree
    monkeypatch.setattr(nfield, "_trager_squarefree", lambda K, h: real(K, h)[1:])
    K = NumberField(upoly(1, 0, 1))
    with pytest.raises(DomainError):
        factor_nf(K, [K.one, K.zero, K.one])  # y^2 + 1 = (y - i)(y + i)


def test_factor_nf_norms_stay_per_yun_part(monkeypatch):
    # (y - sqrt 2)^2 (y^2 - 3) over Q(sqrt 2): Trager sees the parts
    # y^2 - 3 (a norm of degree 4) and y - sqrt 2 (no norm), never their
    # product of degree 3 (a norm of degree 6)
    degrees = []
    real = nfield._norm_poly

    def spy(K, h, s):
        N = real(K, h, s)
        degrees.append(N.degree)
        return N

    monkeypatch.setattr(nfield, "_norm_poly", spy)
    K = NumberField(upoly(-2, 0, 1))
    r2 = K.gen()
    f = dense.mul(K, dense.mul(K, [K.neg(r2), K.one], [K.neg(r2), K.one]),
                  [K.from_rat(-3), K.zero, K.one])
    assert [(len(g) - 1, m) for g, m in factor_nf(K, f)] == [(1, 2), (2, 1)]
    assert degrees and max(degrees) <= 4


# ---------------------------------------------------------------------------
# differential checks against sympy

_y = sp.Symbol("y")


def _sympy_factors(expr, gen=None, extension=None):
    """sympy's factorization as sorted (monic coefficient rows, multiplicity);
    each coefficient a + b*gen is written (a, b)."""
    kwargs = {} if extension is None else {"extension": extension}
    _, facs = sp.factor_list(sp.expand(expr), _y, **kwargs)
    out = []
    for fac, m in facs:
        row = []
        for c in sp.Poly(fac, _y).monic().all_coeffs()[::-1]:
            if gen is None:
                row.append((Fraction(str(c)),))
            else:
                parts = sp.Poly(sp.expand(c), gen).all_coeffs()[::-1] + [0]
                row.append(tuple(Fraction(str(v)) for v in parts[:2]))
        out.append((tuple(row), m))
    return sorted(out)


def _expand_powers(factors) -> list[int]:
    """The coefficients, constant term first, of prod g^m over the (g, m)
    in factors, each g an integer coefficient list, expanded by sympy."""
    expr = sp.Mul(*(sum(c * _y**i for i, c in enumerate(g)) ** m for g, m in factors))
    return [int(c) for c in reversed(sp.Poly(expr, _y).all_coeffs())]


# random integer polynomials almost never have a repeated factor, so products
# of powers g^m, m <= 4, of small factors (not always monic) are drawn too
_powers = st.lists(
    st.tuples(st.lists(st.integers(-6, 6), min_size=2, max_size=3).filter(lambda cs: cs[-1]),
              st.integers(1, 4)),
    min_size=1, max_size=3,
).map(_expand_powers)


@settings(max_examples=30)
@given(st.one_of(st.lists(st.integers(-20, 20), max_size=7).filter(lambda cs: cs and cs[-1]), _powers))
def test_factor_rational_matches_sympy(coeffs):
    ours = sorted(
        (tuple((c,) for c in g.coeffs), m) for g, m in factor_rational(UniPoly(coeffs))
    )
    expr = sum(c * _y**i for i, c in enumerate(coeffs))
    assert ours == _sympy_factors(expr)


_gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=12)
@given(
    st.sampled_from([(upoly(1, 0, 1), sp.I), (upoly(-2, 0, 1), sp.sqrt(2))]),
    st.lists(st.lists(_gaussian, min_size=1, max_size=2), min_size=1, max_size=3),
)
def test_factor_nf_matches_sympy(field, factors):
    """Products of small monic factors over Q(i) and Q(sqrt 2)."""
    modulus, gen = field
    K = NumberField(modulus)
    f, expr = [K.one], sp.Integer(1)
    for fac in factors:
        f = dense.mul(K, f, [K.from_unipoly(UniPoly([a, b])) for a, b in fac] + [K.one])
        expr *= sum((a + b * gen) * _y**i for i, (a, b) in enumerate(fac)) + _y ** len(fac)
    ours = sorted((tuple(tuple(K.coords(c)) for c in g), m) for g, m in factor_nf(K, f))
    assert ours == _sympy_factors(expr, gen, gen)


# ---------------------------------------------------------------------------
# the integral rescaling and its metamorphic consequences


@given(st.lists(st.fractions(-40, 40, max_denominator=60), min_size=1, max_size=5))
def test_to_int_monic_scales_by_the_least_integer(coeffs):
    g = UniPoly(coeffs + [1])
    n = g.degree
    D, out = nfield._to_int_monic(g)
    assert out == [g.coeff(j) * D ** (n - j) for j in range(n + 1)]
    assert all(isinstance(c, int) for c in out)
    for q in factor_int(D):  # no proper divisor D/q makes every D^i a_(n-i) integral
        assert any((g.coeff(n - i) * (D // q) ** i).denominator != 1 for i in range(1, n + 1))


@settings(max_examples=25)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6).filter(lambda cs: cs[-1]),
       st.fractions(-12, 12, max_denominator=12).filter(bool))
def test_factor_rational_commutes_with_rescaling(coeffs, c):
    """The factors of c^n f(x/c) are the factors g of f, each as c^deg g g(x/c)."""
    f = UniPoly(coeffs)
    n = f.degree
    scaled = UniPoly([f.coeff(i) * c ** (n - i) for i in range(n + 1)])
    want = sorted(
        (tuple(g.coeff(i) * c ** (g.degree - i) for i in range(g.degree + 1)), m)
        for g, m in factor_rational(f)
    )
    assert sorted((g.coeffs, m) for g, m in factor_rational(scaled)) == want


# ---------------------------------------------------------------------------
# every check of the rewritten Trager/Zassenhaus path is a typed raise


def test_to_int_monic_checks_its_input_and_its_scale(monkeypatch):
    with pytest.raises(DomainError):
        nfield._to_int_monic(upoly(1, 2))  # not monic
    monkeypatch.setattr(nfield, "factor_int", lambda n: {})  # D = 1
    with pytest.raises(DomainError):
        nfield._to_int_monic(upoly(Fraction(1, 3), 0, 1))


def test_zassenhaus_rejects_a_polynomial_that_is_not_squarefree():
    # (x - 1)^2: every prime divides its zero discriminant; the product of the
    # skipped primes passes the Hadamard bound and the prime search stops
    with pytest.raises(NotSeparable):
        nfield._zassenhaus_monic_int([1, -2, 1])


_z = sp.Symbol("z")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([_FIELDS[0], _FIELDS[3], upoly(Fraction(-3, 2), 1)]),
       st.sampled_from([0, 1, 2]), st.data())
def test_norm_poly_matches_sympy(M, s, data):
    # N(z) = Res_x(M, h(z - s x)) on Q(i), on the quintic field of C6 and on
    # Q as Q[x]/(x - 3/2), whose generator is rational (the top level of the
    # covers at rational loci and at infinity), against sympy on the remainder
    # of H mod M: M is monic, so Res_x(M, H) = prod H(z, alpha_k) =
    # Res_x(M, H mod M), and deg M > deg (H mod M) keeps clear of the cases
    # where sympy's resultant gets the sign wrong
    K = NumberField(M)
    d = data.draw(st.integers(1, 3 if K.degree == 2 else 2))
    coords = [data.draw(st.lists(st.fractions(-5, 5, max_denominator=3),
                                 min_size=K.degree, max_size=K.degree)) for _ in range(d)]
    h = [K.from_unipoly(UniPoly(cs)) for cs in coords] + [K.one]
    H = (_z - s * _x) ** d + sum(sum(sp.Rational(str(c)) * _x**j for j, c in enumerate(cs))
                                 * (_z - s * _x) ** i for i, cs in enumerate(coords))
    M_expr = sum(sp.Rational(str(c)) * _x**i for i, c in enumerate(M.coeffs))
    want = sp.Poly(sp.resultant(M_expr, sp.rem(sp.expand(H), M_expr, _x), _x), _z)
    assert nfield._norm_poly(K, h, s) == UniPoly(Fraction(str(c)) for c in reversed(want.all_coeffs()))


def test_norm_poly_checks_its_input_and_its_degree(monkeypatch):
    K = NumberField(upoly(1, 0, 1))
    with pytest.raises(DomainError):
        nfield._norm_poly(K, [K.one, K.from_rat(2)], 0)  # not monic
    monkeypatch.setattr(nfield, "_resultant_rows", lambda F, G: [1])
    with pytest.raises(DomainError):
        nfield._norm_poly(K, [K.one, K.zero, K.one], 1)


def _gaussian_y2_plus_1():
    K = NumberField(upoly(1, 0, 1))
    return K, [K.one, K.zero, K.one]  # y^2 + 1 = (y - i)(y + i)


@pytest.mark.parametrize("field, h", [
    # h with rational coefficients: at s = 0 the norm is h^[K:Q]
    ((1, 0, 1), lambda K: [K.one, K.zero, K.one]),
    ((-2, 0, 1), lambda K: [K.from_rat(-2), K.zero, K.one]),
    ((-2, 0, 0, 1), lambda K: [K.from_rat(-2), K.zero, K.zero, K.one]),
    # y^2 - i over Q(i): the norm z^4 + 1 is squarefree at s = 0
    ((1, 0, 1), lambda K: [K.neg(K.gen()), K.zero, K.one]),
])
def test_squarefree_norm_agrees_with_the_gcd_test(field, h):
    # differential: disc N != 0 against gcd(N, N') = 1 over Q, shift by shift
    K = NumberField(upoly(*field))
    h = h(K)
    s, N = nfield._squarefree_norm(K, h, 0)
    for t in range(s + 1):
        M = nfield._norm_poly(K, h, t)
        assert (M.gcd(M.derivative()).degree == 0) == (t == s)
    assert N == nfield._norm_poly(K, h, s)


def test_trager_checks_the_norm_factors(monkeypatch):
    K, h = _gaussian_y2_plus_1()
    assert len(nfield._trager_squarefree(K, h)) == 2
    real = nfield._factor_squarefree
    monkeypatch.setattr(nfield, "_factor_squarefree", lambda N: [g for g in real(N) for _ in "ab"])
    with pytest.raises(DomainError):  # a squarefree norm with repeated factors
        nfield._trager_squarefree(K, h)
    # the linear factor of y^2 + 1 does not match a norm factor of degree 4
    monkeypatch.setattr(nfield, "_factor_squarefree", lambda N: [upoly(1, 1), N])
    with pytest.raises(DomainError):
        nfield._trager_squarefree(K, h)


def test_trager_checks_each_gcd_divides(monkeypatch):
    K, h = _gaussian_y2_plus_1()
    real = dense.gcd
    monkeypatch.setattr(
        dense, "gcd", lambda R, a, b: [R.one, R.one] if isinstance(R, NumberField) else real(R, a, b)
    )
    with pytest.raises(DomainError):
        nfield._trager_squarefree(K, h)


def test_adjoin_root_checks_the_shared_root_is_unique(monkeypatch):
    K = NumberField(upoly(-2, 0, 1))
    rho = [K.from_rat(Fraction(-3)), K.zero, K.one]
    real = dense.gcd
    monkeypatch.setattr(
        dense, "gcd", lambda R, a, b: [R.one] if isinstance(R, NumberField) else real(R, a, b)
    )
    with pytest.raises(DomainError):
        adjoin_root(K, rho)


# ---------------------------------------------------------------------------
# a residual of the degree-6 cover C6 = Res_Z(Shanks(T, Z), (Y - Z)^2 - (T + 5))
# at its quintic branch locus: a quartic over the quintic residue field whose
# Trager norm has degree 20.  sympy needs several seconds for it.

_C6_FIELD = ["2339/4", "435/2", "-359/4", "-65/2", "11/4", "1"]
_C6_QUARTIC = [
    ["172529/1786", "814/19", "3732/893", "-1067/1786", "-126/893"],
    ["-47347/1786", "139/19", "4449/893", "-697/1786", "-166/893"],
    ["-9647/3572", "-103/38", "-6293/1786", "-825/3572", "117/893"],
    ["4698/893", "-45/76", "-3205/3572", "-127/3572", "31/893"],
    ["1", "0", "0", "0", "0"],
]


def test_factor_nf_matches_sympy_on_a_c6_residual():
    x = sp.Symbol("x")
    M = sum(sp.Rational(c) * x**i for i, c in enumerate(_C6_FIELD))
    K = NumberField(UniPoly.from_json(_C6_FIELD))
    h = [K.from_unipoly(UniPoly([Fraction(c) for c in row])) for row in _C6_QUARTIC]
    ours = sorted((tuple(tuple(K.coords(c)) for c in g), m) for g, m in factor_nf(K, h))

    alpha = sp.CRootOf(M, 0)
    field = sp.QQ.algebraic_field(alpha)
    expr = sum(sum(sp.Rational(c) * alpha**j for j, c in enumerate(row)) * _y**i
               for i, row in enumerate(_C6_QUARTIC))
    theirs = []
    for fac, m in sp.Poly(expr, _y, domain=field).factor_list()[1]:
        row = []
        for c in fac.monic().all_coeffs()[::-1]:
            r = sp.Poly(sp.rem(sp.Poly(sp.expand(c).subs(alpha, x), x), sp.Poly(M, x)), x)
            cs = [Fraction(str(v)) for v in r.all_coeffs()[::-1]]
            row.append(tuple(cs + [Fraction(0)] * (K.degree - len(cs))))
        theirs.append((tuple(row), m))
    assert ours == sorted(theirs)
    assert [len(g) - 1 for g, _ in ours] == [1, 1, 1, 1]
