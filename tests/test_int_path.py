"""The plain-int path of the `dense` kernel: polynomials over F_p and Z/p^k
as int lists.  Each function is checked against sympy's GF(p) arithmetic
and against the generic method-call loop, which a wrapper ring that hides
the int modulus reaches; the Hensel lift over Z/p^k is checked against its
defining properties: monic lifts of a coprime factorization are unique.
Factorization over Q, whose Zassenhaus prime search runs here, is checked
against sympy's factor_list, and the prime it picks against a full ranking
of the candidate primes."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_div,
    gf_factor,
    gf_gcd,
    gf_gcdex,
    gf_monic,
    gf_mul,
    gf_pow_mod,
    gf_sqf_list,
)

from gsl import dense, nfield
from gsl.errors import DomainError
from gsl.exact import UniPoly
from gsl.modp import Zp, Zq, degree_blocks, factor_over, prime_field
from gsl.nfield import factor_rational, hensel_lift

PRIMES = [2, 3, 5, 101, 2**31 - 1]


class _Generic:
    """A ring with every member of the wrapped one except `int_modulus`,
    so `dense` runs its generic loop on it."""

    def __init__(self, R):
        self._R = R

    def __getattr__(self, name):
        if name == "int_modulus":
            raise AttributeError(name)
        return getattr(self._R, name)


def _sp(a):
    """A dense int list as a galoistools list (highest degree first)."""
    return list(reversed(a))


def _ours(a):
    return dense.trim(dense.INTEGERS, [int(c) for c in reversed(a)])


@st.composite
def _field_and_polys(draw, count, max_degree=7, nonzero=False):
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    polys = []
    for _ in range(count):
        a = dense.trim(dense.INTEGERS, draw(st.lists(coeff, max_size=max_degree + 1)))
        if nonzero and not a:
            a = [draw(st.integers(1, p - 1))]
        polys.append(a)
    return prime_field(p), polys


@st.composite
def _with_repeated_factors(draw):
    """A monic polynomial over F_p built from a few small factors raised to
    small powers, so repeated and p-th power parts occur."""
    p = draw(st.sampled_from(PRIMES))
    F = prime_field(p)
    f = [1]
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)) + [1]
        f = dense.mul(F, f, [1] if draw(st.booleans()) else g)
        for _ in range(draw(st.integers(0, 3))):
            f = dense.mul(F, f, g)
    return F, f


def _both(F, fn, *args):
    """fn over F and over the same field with its int modulus hidden."""
    return fn(F, *args), fn(_Generic(F), *args)


@settings(max_examples=150)
@given(_field_and_polys(2))
def test_mul_matches_sympy_and_the_generic_loop(case):
    F, (a, b) = case
    ours, generic = _both(F, dense.mul, a, b)
    assert ours == generic == _ours(gf_mul(_sp(a), _sp(b), F.p, ZZ))


@settings(max_examples=150)
@given(_field_and_polys(2, nonzero=True))
def test_quorem_matches_sympy_and_the_generic_loop(case):
    F, (a, b) = case
    ours, generic = _both(F, dense.quorem, a, b)
    q, r = gf_div(_sp(a), _sp(b), F.p, ZZ)
    assert ours == generic == (_ours(q), _ours(r))


@settings(max_examples=150)
@given(_field_and_polys(2, max_degree=6, nonzero=True), st.integers(0, 10**6))
def test_powmod_matches_sympy_and_the_generic_loop(case, e):
    F, (a, m) = case
    assume(len(m) > 1)
    for a, e in ((a, e), ([0, 1], F.p)):  # and x^p, as the Frobenius searches ask
        ours, generic = _both(F, dense.powmod, a, e, m)
        assert ours == generic == _ours(gf_pow_mod(_sp(a), e, _sp(m), F.p, ZZ))


@settings(max_examples=150)
@given(_field_and_polys(2))
def test_gcd_matches_sympy_and_the_generic_loop(case):
    F, (a, b) = case
    ours, generic = _both(F, dense.gcd, a, b)
    assert ours == generic == _ours(gf_gcd(_sp(a), _sp(b), F.p, ZZ))


@settings(max_examples=150)
@given(_field_and_polys(2, nonzero=True))
def test_ext_gcd_matches_sympy_and_the_generic_loop(case):
    F, (a, b) = case
    s, t, g = gf_gcdex(_sp(a), _sp(b), F.p, ZZ)
    if g != [1]:
        for R in (F, _Generic(F)):
            with pytest.raises(DomainError):
                dense.ext_gcd(R, a, b)
        return
    ours, generic = _both(F, dense.ext_gcd, a, b)
    assert ours == generic == (_ours(s), _ours(t))


@settings(max_examples=150)
@given(_with_repeated_factors())
def test_squarefree_matches_sympy_and_the_generic_loop(case):
    F, f = case
    ours, generic = _both(F, dense.squarefree, f)
    _, parts = gf_sqf_list(_sp(f), F.p, ZZ)
    assert ours == generic == sorted(((_ours(g), i) for g, i in parts), key=lambda t: t[1])


@settings(max_examples=150)
@given(_with_repeated_factors(), st.integers(1, 10**6))
def test_degree_blocks_match_sympy_and_the_generic_loop(case, lc):
    F, f = case
    assume(len(f) > 1)
    f = [c * (lc % F.p or 1) % F.p for c in f]
    ours, generic = _both(F, degree_blocks, f)
    blocks: dict = {}
    _, irreducibles = gf_factor(_sp(f), F.p, ZZ)
    for g, mult in irreducibles:
        key = (mult, len(g) - 1)
        blocks[key] = gf_mul(blocks.get(key, [1]), g, F.p, ZZ)
    want = [(_ours(gf_monic(g, F.p, ZZ)[1]), r, mult) for (mult, r), g in sorted(blocks.items())]
    assert ours == generic == want


@settings(max_examples=150, deadline=None)
@given(_with_repeated_factors(), st.integers(1, 10**6))
def test_splitting_the_degree_blocks_matches_sympy(case, lc):
    # equal-degree splitting alone, on the blocks distinct-degree
    # factorization left, gives sympy's full factorization
    F, f = case
    assume(len(f) > 1)
    f = [c * (lc % F.p or 1) % F.p for c in f]
    _, irreducibles = gf_factor(_sp(f), F.p, ZZ)
    want = sorted(((_ours(g), mult) for g, mult in irreducibles), key=lambda t: (len(t[0]), t[0]))
    assert factor_over(F, degree_blocks(F, f)) == want


def test_prime_field_never_reaches_the_generic_loop():
    calls = []

    class Counting(Zp):
        __slots__ = ()

        def __getattribute__(self, name):
            if name in ("add", "sub", "mul", "neg", "is_zero"):
                calls.append(name)
            return super().__getattribute__(name)

    F = Counting(101)
    a, b = [3, 100, 7, 1], [5, 0, 2]
    q, r = dense.quorem(F, dense.mul(F, a, b), b)
    assert (q, r) == (a, [])
    dense.quorem(F, a, b)
    for fn, args in [(dense.add, (a, b)), (dense.sub, (b, a)), (dense.scale, (a, 57)),
                     (dense.monic, (b,)), (dense.deriv, (a,)), (dense.trim, ([3, 0, 202],)),
                     (dense.gcd, (dense.mul(F, a, b), dense.mul(F, b, b))),
                     (dense.powmod, (a, 10**6 + 3, b)), (dense.mulmod, (a, a, a))]:
        fn(F, *args)
    # (x + 3)^2 (x^2 + 2) (x + 5)^101, so the p-th power part is reached
    f = dense.mul(F, dense.mul(F, [9, 6, 1], [2, 0, 1]), dense.powmod(F, [5, 1], 101, [0] * 102 + [1]))
    assert dense.squarefree(F, f) == [([2, 0, 1], 1), ([3, 1], 2), ([5, 1], 101)]
    assert factor_over(F, degree_blocks(F, f)) == [([3, 1], 2), ([5, 1], 101), ([2, 0, 1], 1)]
    assert calls == []


# ---------------------------------------------------------------------------
# the int path raises what the generic path raises


def test_division_by_zero_raises_zero_division_error_on_both_paths():
    # the zero divisor, untrimmed or not, and divisors whose leading
    # coefficient is 0 mod p, passed unreduced; over Z/125 also a non-unit
    cases = [(prime_field(7), ([], [0], [3, 7], [3, -14])),
             (Zp(5, 3), ([], [0], [3, 125], [3, -250], [3, 1, 5]))]
    for R, divisors in cases:
        for ring in (R, _Generic(R)):
            for b in divisors:
                with pytest.raises(ZeroDivisionError):
                    dense.quorem(ring, [1, 2, 3], b)


@pytest.mark.parametrize("lc", [5, 10, -25, 125, 0])
def test_a_non_unit_leading_coefficient_over_z_mod_p_power_raises_like_zq(lc):
    Wq = Zq(Zp(5, 3), [2, 0, 1])  # Z_q / 5^3 with q = 25, whose constants are Z/5^3
    with pytest.raises(ZeroDivisionError) as want:
        dense.quorem(Wq, [Wq.from_int(c) for c in (1, 2, 3)], [Wq.one, Wq.from_int(lc)])
    with pytest.raises(ZeroDivisionError) as got:
        dense.quorem(Zp(5, 3), [1, 2, 3], [1, lc])
    assert str(got.value) == str(want.value)


def test_a_unit_leading_coefficient_over_z_mod_p_power_divides():
    W = Zp(5, 3)
    b = [1, 2]  # 2x + 1, 2 a unit mod 125
    a = dense.mul(W, [4, 0, 7], b)
    assert dense.quorem(W, a, b) == ([4, 0, 7], [])


@settings(max_examples=150)
@given(st.sampled_from([prime_field(7), prime_field(101), Zp(3, 4)]),
       st.lists(st.integers(-10**4, 10**4), max_size=7),
       st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=5),
       st.integers(-3, 3))
def test_unreduced_inputs_give_reduced_trimmed_results(R, a, b, k):
    m = R.int_modulus
    b = b + [1 + k * m]  # a leading coefficient = 1 mod m, unreduced
    a_red = dense.trim(R, [c % m for c in a])
    b_red = dense.trim(R, [c % m for c in b])
    generic = _Generic(R)
    cases = [
        (dense.mul, (a, b), (a_red, b_red)),
        (dense.add, (a, b), (a_red, b_red)),
        (dense.sub, (a, b), (a_red, b_red)),
        (dense.sub, (b, a), (b_red, a_red)),
        (dense.scale, (a, k * m + 2), (a_red, 2)),
        (dense.scale, (a, k * m + R.p), (a_red, R.p % m)),
        (dense.monic, (b,), (b_red,)),
        (dense.deriv, (a,), (a_red,)),
        (dense.trim, (list(a),), (list(a_red),)),
        (dense.powmod, (a, abs(k) * 40 + 3, b), (a_red, abs(k) * 40 + 3, b_red)),
        (dense.mulmod, (a, a, b), (a_red, a_red, b_red)),
    ]
    if R.N == 1:  # a gcd needs a field
        cases.append((dense.gcd, (a, b), (a_red, b_red)))
    if a_red and a_red[-1] % R.p:  # a unit leading coefficient
        cases.append((dense.monic, (a,), (a_red,)))
    results = []
    for fn, ours, theirs in cases:
        got = fn(R, *ours)
        assert got == fn(generic, *theirs), fn.__name__
        results.append(got)
    assert dense.quorem(R, a, b) == dense.quorem(generic, a_red, b_red)
    results.extend(dense.quorem(R, a, b))
    for poly in results:
        assert all(0 <= c < m for c in poly) and (not poly or poly[-1])


# ---------------------------------------------------------------------------
# the Hensel lift over Z/p^k


@st.composite
def _lift_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    f = draw(st.lists(st.integers(-60, 60), min_size=2, max_size=7)) + [1]
    F = prime_field(p)
    factors = factor_over(F, degree_blocks(F, [c % p for c in f]))
    assume(all(mult == 1 for _, mult in factors))
    return p, f, [g for g, _ in factors], draw(st.integers(1, 12))


@settings(max_examples=150)
@given(_lift_case())
def test_hensel_lift_over_z_mod_p_power(case):
    p, f, factors, k = case
    W = Zp(p, k)
    lifted = hensel_lift(W, [W.from_int(c) for c in f], factors)
    prod = [1]
    for g in lifted:
        assert g[-1] == 1
        prod = dense.mul(W, prod, g)
    assert prod == dense.trim(W, [c % p**k for c in f])
    assert [[c % p for c in g] for g in lifted] == factors


# ---------------------------------------------------------------------------
# factorization over Q, whose Zassenhaus prime search runs on the int path


@st.composite
def _integer_products(draw):
    """A product of 2-4 nonzero integer polynomials of degree <= 5, each
    new or a repeat of one before: repeated factors occur, and so do primes
    where a squarefree part is not squarefree mod p and candidate primes
    whose distinct-degree factorization the prime search stops early."""
    factors: list = []
    for _ in range(draw(st.integers(2, 4))):
        if factors and draw(st.booleans()):
            factors.append(draw(st.sampled_from(factors)))
        else:
            coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any))
            factors.append(dense.trim(dense.INTEGERS, coeffs))
    f = [1]
    for g in factors:
        f = dense.mul(dense.INTEGERS, f, g)
    return f


@settings(max_examples=100, deadline=None)
@given(_integer_products())
def test_factor_rational_matches_sympy_factor_list(f):
    x = sp.Symbol("x")
    _, pairs = sp.factor_list(sum(c * x**i for i, c in enumerate(f)), x)
    want = sorted((tuple(c / P.LC() for c in reversed(P.all_coeffs())), mult)
                  for P, mult in ((sp.Poly(h, x), mult) for h, mult in pairs))
    got = sorted((tuple(sp.Rational(c.numerator, c.denominator) for c in g.coeffs), mult)
                 for g, mult in factor_rational(UniPoly([Fraction(c) for c in f])))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=9))
def test_the_zassenhaus_prime_is_the_full_ranking_choice(tail):
    # differential: the search, which rejects a prime by gcd(g, g') mod p
    # and stops a distinct-degree factorization that cannot win, picks the
    # prime and blocks that ranking the first four squarefree primes by
    # their full degree blocks picks (stopping at a single factor)
    g = tail + [1]
    G = [Fraction(c) for c in g]
    assume(len(dense.gcd(dense.RATIONALS, G, dense.deriv(dense.RATIONALS, G))) == 1)
    ranked, p = [], 2
    while len(ranked) < 4 and not (ranked and ranked[-1][1] == 1):
        p = sp.nextprime(p)
        blocks = degree_blocks(prime_field(p), [c % p for c in g])
        if all(mult == 1 for _, _, mult in blocks):
            ranked.append((p, sum((len(b) - 1) // r for b, r, _ in blocks), blocks))
    p, count, blocks = min(ranked, key=lambda t: t[1])
    seen = []
    real = nfield.factor_over

    def spy(F, handed):
        seen.append((F.p, handed))
        return real(F, handed)

    nfield.factor_over = spy
    try:
        nfield._zassenhaus_monic_int(g)
    finally:
        nfield.factor_over = real
    assert seen == ([] if count == 1 else [(p, blocks)])
