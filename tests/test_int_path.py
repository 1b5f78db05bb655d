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
from gsl.covers import branch_points, load_cover
from gsl.errors import DomainError, GslError
from gsl.exact import UniPoly
from gsl.modp import Zp, Zq, degree_blocks, factor_over, prime_field
from gsl.nfield import NumberField, factor_rational, hensel_lift
from gsl.padic import local_splitting_type
from gsl.specialize import verify_specialization
from test_covers import _C6, _translate
from test_nfield import _is_canonical

PRIMES = [2, 3, 5, 101, 2**31 - 1]
QX = NumberField(UniPoly([0, 1]))  # Q as Q[x]/(x)


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
            if name in ("add", "sub", "mul", "neg"):
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


def _canonical(R, poly) -> bool:
    """Whether poly is a canonical polynomial over the int ring R: ints of
    [0, m), no trailing zero."""
    return all(0 <= c < R.int_modulus for c in poly) and (not poly or poly[-1] != 0)


@settings(max_examples=150)
@given(st.sampled_from([prime_field(7), prime_field(101), Zp(3, 4)]), st.data())
def test_canonical_inputs_give_canonical_results(R, data):
    # the one contract of `dense`: canonical polynomials in, canonical
    # polynomials out, and the int path agrees with the generic loop
    m = R.int_modulus
    coeff = st.integers(0, m - 1)
    a = dense.trim(R, data.draw(st.lists(coeff, max_size=7)))
    b = data.draw(st.lists(coeff, max_size=5)) + [1]  # monic: a divisor on every ring
    c = data.draw(coeff)
    e = data.draw(st.integers(0, 123))
    cases = [
        (dense.mul, (a, b)),
        (dense.add, (a, b)),
        (dense.sub, (a, b)),
        (dense.sub, (b, a)),
        (dense.scale, (a, c)),
        (dense.scale, (a, R.p % m)),
        (dense.monic, (b,)),
        (dense.deriv, (a,)),
        (dense.trim, (a + [0, 0],)),  # trim and mulmod also take trailing zeros
        (dense.powmod, (a, e, b)),
        (dense.mulmod, (a, a, b)),
        (dense.mulmod, (a + [0], a, b)),
        (dense.quorem, (a, b)),
    ]
    if R.N == 1:  # a gcd needs a field
        cases.append((dense.gcd, (a, b)))
    if a and a[-1] % R.p:  # a unit leading coefficient
        cases += [(dense.monic, (a,)), (dense.quorem, (b, a))]
    for fn, args in cases:
        got, generic = _both(R, fn, *args)
        assert got == generic, fn.__name__
        for poly in got if fn is dense.quorem else [got]:
            assert _canonical(R, poly), fn.__name__


# ---------------------------------------------------------------------------
# every caller holds the contract: no int-path call gets an unreduced
# coefficient, nor a trailing zero outside `trim` and `mulmod`; and no ring
# operation of a number field or of a `Zq` returns an element that is not
# canonical, the premise of testing zero and one with `==`

_ENTRY_POINTS = ["trim", "add", "sub", "mul", "scale", "mulmod", "quorem", "rem", "monic",
                 "gcd", "ext_gcd", "squarefree", "powmod", "deriv", "evaluate", "shift"]
# the ring operations that return an element, of the ring itself or, for
# `residue`, of its residue ring
_ELEMENT_OPS = {
    NumberField: ["from_rat", "from_int", "gen", "from_unipoly", "add", "sub", "neg", "scale",
                  "mul", "inv"],
    Zq: ["add", "sub", "neg", "mul", "embed", "from_int", "inv", "element_by_index", "residue",
         "shift_down"],
}


def _canonical_element(R, a) -> bool:
    """Whether a is in the one form of an element of R: over a number field
    deg M + 1 ints, the last a positive denominator, with gcd 1; over a
    `Zq` d coordinates, each canonical in the ring below; over a `Zp` an
    int of [0, m)."""
    if isinstance(R, NumberField):
        return type(a) is tuple and _is_canonical(R, a)
    if isinstance(R, Zq):
        return (type(a) is tuple and len(a) == R.d
                and all(_canonical_element(R.base, c) for c in a))
    return type(a) is int and 0 <= a < R.int_modulus


@pytest.fixture
def off_contract(monkeypatch):
    """Wrap every `dense` entry point, here and in every caller, to record
    each int-ring call whose polynomial arguments are not canonical (a
    trailing zero is allowed in `trim` and `mulmod`), and each ring seen;
    and wrap the element operations of `NumberField` and `Zq` to fail on
    the first element they return that is not canonical, and note the
    ring classes checked."""
    seen = {"calls": [], "rings": set(), "checked": set()}

    def wrap(name, fn):
        def recording(R, *args):
            seen["rings"].add(repr(R))
            m = getattr(R, "int_modulus", None)
            if m is not None:
                for a in args:
                    if isinstance(a, (list, tuple)) and (
                            any(not 0 <= c < m for c in a)
                            or (a and a[-1] == 0 and name not in ("trim", "mulmod"))):
                        seen["calls"].append((name, R, args))
            return fn(R, *args)
        return recording

    def wrap_op(name, fn):
        def recording(R, *args):
            out = fn(R, *args)
            seen["checked"].add(type(R).__name__)
            if not _canonical_element(R.res if name == "residue" else R, out):
                # at once: a wrong element can make the caller raise first
                pytest.fail(f"{R!r}.{name}{args} returned {out}, which is not canonical")
            return out
        return recording

    for name in _ENTRY_POINTS:
        monkeypatch.setattr(dense, name, wrap(name, getattr(dense, name)))
    for cls, names in _ELEMENT_OPS.items():
        for name in names:
            monkeypatch.setattr(cls, name, wrap_op(name, getattr(cls, name)))
    return seen


def _verify_points():
    """t0 with poles at small primes, t0 = 0 and 1 mod 5^2 and 7^2 (the
    branch points of the bundled quadratic and V4 covers) and the roots of
    T^2 + 3T + 9 mod 7^2 and 13^2 (those of the cubic cover)."""
    plain = [Fraction(n, d) for n in (-7, -2, 1, 3, 4, 11) for d in (1, 3, 5)]
    rooted = [25, 50, 26, 49, 50 + 49, 41, 66]
    poles = [Fraction(1, 25), Fraction(2, 49), Fraction(5, 9), Fraction(-3, 121), Fraction(7, 169)]
    return sorted(set(plain + [Fraction(t) for t in rooted] + poles))


def test_no_caller_hands_the_int_path_a_non_canonical_polynomial(off_contract, covers):
    s, x = sp.symbols("s x")
    for cover in covers.values():
        for t0 in _verify_points():
            try:
                verify_specialization(cover, t0)
            except GslError:  # t0 on a locus is refused, like on the grid
                pass
    for b in (0, 5):
        c6 = load_cover({"name": f"c6_b{b}", "group_order": 6,
                         "P": [[str(c) for c in row] for row in _translate(_C6, b)],
                         "assert_regular_galois": True})
        branch_points(c6)
    for product in [(x - 1)**2 * (x**2 + 2)**3 * (x + 5), (x**3 - 2)**2 * (3 * x - 1)**4,
                    (x**2 - x + 7)**3 * (x**4 + 1)**2]:
        f = [int(c) for c in reversed(sp.Poly(product, x).all_coeffs())]
        factor_rational(UniPoly([Fraction(c) for c in f]))
    # the minimal polynomial of s^4 + 5 s^2 + 25 s, s = 2^(1/8), at 5: its
    # roots cluster around sqrt 2, then around 2^(1/4), each a repeated
    # quadratic residual, so the oracle builds a quadratic extension of
    # Z/5^N and a second one over that
    g = sp.Poly(sp.resultant(s**8 - 2, x - (s**4 + 5 * s**2 + 25 * s), s), x)
    g = UniPoly([int(c) for c in reversed(g.all_coeffs())])
    assert local_splitting_type(g, 5).factors == ((1, 8, 1),)
    assert any(r.startswith("Zq(Zq(") for r in off_contract["rings"])
    assert off_contract["calls"] == []
    assert off_contract["checked"] == {"NumberField", "Zq"}


def test_the_contract_guard_fires_on_an_unreduced_call(off_contract):
    F = prime_field(7)
    dense.add(F, [1, 2], [3, 7])
    dense.mul(F, [3, 1, 0], [2])  # a trailing zero
    dense.mulmod(F, [3, 1, 0], [2], [1, 1])  # allowed here
    assert [name for name, _, _ in off_contract["calls"]] == ["add", "mul"]


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
    G = [QX.from_int(c) for c in g]
    assume(len(dense.gcd(QX, G, dense.deriv(QX, G))) == 1)  # g squarefree over Q
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
