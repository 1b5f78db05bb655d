"""The certified p-adic oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gsl.nfield
import gsl.padic
from gsl import dense
from gsl.covers import bundled_covers, conservative_bad_primes
from gsl.errors import DomainError, GslError, NotSeparable, PrecisionExhausted, WildOrIrregular
from gsl.exact import UniPoly, discriminant, rational_valuation
from gsl.modp import (
    Zp,
    Zq,
    degree_blocks,
    factor_over,
    frobenius_data,
    prime_field,
)
from gsl.nfield import hensel_lift
from gsl.padic import (
    PadicPrecisionCtx,
    _cluster,
    _recenter,
    local_splitting_type,
    quadratic_local_class,
)
from gsl.specialize import specialize_poly


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


def substitute(f, c, u=1):
    """f(uY + c), by Horner over Q[Y]."""
    out, lin = UniPoly(), UniPoly([Fraction(c), Fraction(u)])
    for a in reversed(f.coeffs):
        out = out * lin + UniPoly.const(a)
    return out


def residue_degrees(st):
    """f repeated count times for each factor class (e merged away)."""
    return sorted(f for _, f, c in st.factors for _ in range(c))


def test_quadratic_ramified():
    assert local_splitting_type(upoly(-10, 0, 1), 5).factors == ((2, 1, 1),)
    assert local_splitting_type(upoly(-15, 0, 1), 5).factors == ((2, 1, 1),)


def test_quadratic_split_vs_inert():
    # v_5 even: unramified; f decided by the residue
    assert local_splitting_type(upoly(-4, 0, 1), 5).factors == ((1, 1, 2),)
    assert local_splitting_type(upoly(-2, 0, 1), 5).factors == ((1, 2, 1),)
    assert local_splitting_type(upoly(-50, 0, 1), 5).factors == ((1, 2, 1),)


def test_eisenstein_totally_ramified():
    assert local_splitting_type(upoly(-5, 0, 0, 1), 5).factors == ((3, 1, 1),)
    assert local_splitting_type(upoly(-25, 0, 0, 1), 5).factors == ((3, 1, 1),)
    assert local_splitting_type(upoly(-5, 0, 0, 0, 1), 5).factors == ((4, 1, 1),)


def test_cluster_refinement():
    # roots 2, 7, 57: nested 5-adic clusters force recentering
    f = upoly(-2, 1) * upoly(-7, 1) * upoly(-57, 1)
    assert local_splitting_type(f, 5).factors == ((1, 1, 3),)


def test_mixed_factors_sorted():
    f = upoly(-5, 0, 1) * upoly(-1, 1)
    assert local_splitting_type(f, 5).factors == ((1, 1, 1), (2, 1, 1))


def test_non_integral_input_normalized():
    f = upoly(Fraction(-10, 3), 0, Fraction(1, 3))
    assert local_splitting_type(f, 5).factors == ((2, 1, 1),)


def test_wild_rejected():
    with pytest.raises(WildOrIrregular):
        local_splitting_type(upoly(-3, 0, 0, 1), 3)
    with pytest.raises(WildOrIrregular):
        local_splitting_type(upoly(-9, 0, 0, 1), 3)


def test_domain_guards():
    with pytest.raises(DomainError):
        local_splitting_type(upoly(-2, 0, 1), 2)
    with pytest.raises(DomainError):
        local_splitting_type(upoly(-2, 0, 1), 15)
    with pytest.raises(NotSeparable):
        local_splitting_type(upoly(-1, 1) * upoly(-1, 1), 7)


def test_degree_sum_invariant_random():
    rng = random.Random(0xA5)
    for _ in range(120):
        deg = rng.randint(2, 5)
        f = UniPoly([Fraction(rng.randint(-40, 40)) for _ in range(deg)] + [Fraction(1)])
        if discriminant(f) == 0:
            continue
        p = rng.choice([3, 5, 7, 11, 13])
        try:
            st_ = local_splitting_type(f, p)
        except WildOrIrregular:
            continue
        assert sum(e * fr * c for e, fr, c in st_.factors) == deg


def test_unramified_matches_frobenius_random():
    rng = random.Random(0xBEEF)
    checked = 0
    while checked < 80:
        deg = rng.randint(2, 5)
        f = UniPoly([Fraction(rng.randint(-40, 40)) for _ in range(deg)] + [Fraction(1)])
        d = discriminant(f)
        if d == 0:
            continue
        p = rng.choice([3, 5, 7, 11, 13, 17])
        if rational_valuation(d, p) != 0:
            continue
        st_ = local_splitting_type(f, p)
        fd = frobenius_data(f, p)
        assert st_.is_unramified
        assert residue_degrees(st_) == sorted(fd)
        checked += 1


def test_quadratic_local_class():
    assert quadratic_local_class(4, 5) == "1"
    assert quadratic_local_class(2, 5) == "u"
    assert quadratic_local_class(5, 5) == "p"
    assert quadratic_local_class(10, 5) == "up"
    assert quadratic_local_class(Fraction(1, 5), 5) == "p"
    with pytest.raises(DomainError):
        quadratic_local_class(3, 2)


@given(st.integers(1, 400), st.sampled_from([3, 5, 7, 11]))
def test_quadratic_class_consistent_with_oracle(n, p):
    cls = quadratic_local_class(n, p)
    st_ = local_splitting_type(upoly(-n, 0, 1), p)
    if cls == "1":
        assert st_.factors == ((1, 1, 2),)
    elif cls == "u":
        assert st_.factors == ((1, 2, 1),)
    else:
        assert st_.factors == ((2, 1, 1),)


@st.composite
def _square_roots(draw):
    """(p, [a_1, ..., a_k]) for 1 to 3 distinct nonzero a_i with p-power
    denominators, so that clearing f = prod (x^2 - a_i) takes a power of p
    and the integral model rescales its roots.  Each a_i after the first
    is either drawn afresh or agrees with an earlier one to p^2 through
    p^12, so that their roots share a cluster and the oracle recenters,
    in the unramified quadratic extension when the shared residue is a
    non-square."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    unit = st.integers(1, p**3).filter(lambda c: c % p)

    def fresh():
        num = draw(unit) * draw(st.sampled_from([1, -1])) * p ** draw(st.integers(0, 3))
        return Fraction(num, p ** draw(st.integers(0, 4)))

    a = [fresh()]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            a.append(fresh())
        else:
            a.append(draw(st.sampled_from(a)) + p ** draw(st.integers(2, 12)) * draw(unit))
    assume(0 not in a and len(set(a)) == len(a))
    return p, a


def _quadratic_closed_form(a, p):
    """(e, f) of x^2 - a over Q_p, odd p: e = 2 iff v_p(a) is odd;
    otherwise f = 2 iff the unit part of a is a non-residue mod p."""
    v = rational_valuation(a, p)
    if v % 2:
        return 2, 1
    u = a / Fraction(p) ** v
    residue = u.numerator * pow(u.denominator, -1, p) % p
    return (1, 2) if pow(residue, (p - 1) // 2, p) != 1 else (1, 1)


@settings(max_examples=300, deadline=None)
@given(_square_roots())
def test_products_of_quadratics_match_the_closed_form(data):
    p, a = data
    f = upoly(1)
    want: dict[tuple[int, int], int] = {}
    for ai in a:
        f = f * upoly(-ai, 0, 1)
        e, fr = _quadratic_closed_form(ai, p)
        want[(e, fr)] = want.get((e, fr), 0) + 2 // (e * fr)
    try:
        got = local_splitting_type(f, p).factors
    except WildOrIrregular as exc:
        assert "fractional slope with inseparable residual" in str(exc)
        return
    assert got == tuple((e, fr, c) for (e, fr), c in sorted(want.items()))


# ---------------------------------------------------------------------------
# the rings of the oracle, and the Hensel lift (`nfield`) that the cluster
# test below reads the oracle against


def test_zq_rejects_non_monic_modulus():
    with pytest.raises(DomainError):
        Zq(Zp(5, 4), [1, 0, 2])


def test_zq_shift_down_requires_exact_division():
    W = Zq(Zp(5, 4), [2, 0, 1])
    assert W.shift_down((50, 25), 2) == (2, 1)
    with pytest.raises(DomainError):
        W.shift_down((50, 7), 1)
    assert Zp(5, 4).shift_down(50, 2) == 2
    with pytest.raises(DomainError):
        Zp(5, 4).shift_down(7, 1)


def test_hensel_lift_checks_its_input():
    W = Zp(5, 6)
    f = [W.from_int(-1), 0, 1]  # x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(DomainError):
        hensel_lift(W, f, [[4, 1], [4, 1]])  # x - 1 twice: not coprime
    with pytest.raises(DomainError):
        hensel_lift(W, f, [[4, 1], [2, 1]])  # (x - 1)(x + 2) is not f mod 5
    f3 = [W.from_int(-1), 0, 0, 1]
    with pytest.raises(DomainError):
        hensel_lift(W, f3, [[4, 1], [1, 1]])  # degrees 1 + 1 != 3


def test_hensel_lift_of_a_block_ignores_how_the_rest_is_grouped():
    # f = (x - 1)^2 (x - 2)(x - 3) mod 7; monic lifts of a coprime
    # factorization are unique, so the block's lift cannot depend on whether
    # the other factors are lifted one by one or as their product
    W = Zp(7, 8)
    F = W.res
    f_int = upoly(-6, -2, 1) * upoly(-2, 1) * upoly(-3, 1) + upoly(0, 7**3)
    f = [W.from_rat(c) for c in f_int.coeffs]
    block, g2, g3 = [1, 5, 1], [5, 1], [4, 1]  # (x - 1)^2, x - 2, x - 3 mod 7
    alone = hensel_lift(W, f, [block, g2, g3])[0]
    rest = dense.mul(F, g2, g3)
    assert hensel_lift(W, f, [block, rest])[0] == alone
    assert hensel_lift(W, f, [rest, block])[1] == alone


# ---------------------------------------------------------------------------
# the oracle's checks raise typed errors (they hold under python -O)

# (x^2 + 9)^2 + 3^7 at p = 3: at slope 1 the residual is (y^2 + 1)^2 mod 3,
# a repeated quadratic, so the oracle recenters over F_9
_UPSTAIRS = upoly(81 + 3**7, 0, 18, 0, 1)
# g(x) g'(x) with g = ((x - i)^2 - 9(1 + i))^2 + 3^7 and g' its conjugate
# (i -> -i), at p = 3: mod 3 it is (x^2 + 1)^4, so the oracle recenters from
# Z_3 into Z_9 = Z_3[i] around i.  There, with y = x - i, g is
# (y^2 - 9(1 + i))^2 + 3^7: at slope 1 the residual is (z^2 - (1 + i))^2,
# and 1 + i (of order 8 in F_9^*) is not a square, so the residual is a
# repeated irreducible quadratic over F_9 and the cluster moves to F_81.
# Near y = 3 s, s^2 = 1 + i, the input is 81 (2 s w)^2 + 3^7 in y = 3(s + w),
# so v(w) = 3/2: e = 2 over F_81, one factor (2, 4) over Q_3.
_TWO_STOREYS = UniPoly([Fraction(c) for c in
                        (4898836, -144432, -109472, -1152, 4992, 72, -32, 0, 1)])


def test_splitting_checks_degree_conservation(monkeypatch):
    real = gsl.padic.degree_blocks
    monkeypatch.setattr(gsl.padic, "degree_blocks", lambda F, f: real(F, f)[:-1])
    with pytest.raises(PrecisionExhausted, match="side bookkeeping mismatch"):
        local_splitting_type(upoly(-1, 0, 1), 5)


def test_side_checks_its_residual_polynomial(monkeypatch):
    # every side one unit too low: no coefficient lies on it
    real = dense.newton_sides
    monkeypatch.setattr(dense, "newton_sides", lambda pts: [
        (xa, ya - 1, xb, yb - 1, lam) for xa, ya, xb, yb, lam in real(pts)])
    with pytest.raises(PrecisionExhausted, match="does not span its side"):
        local_splitting_type(upoly(-5, 0, 1), 5)


# Repeated factors of degree >= 2, with their splittings derived by hand.
# (x^2 + 1)^2 - 3 at 3: over Z_9, x^2 + 1 = (x - i)(x + i) and near i the
# input is y^2 (2i + y)^2 - 3 with y = x - i, so y^2 ~ -3/4: e = 2 over the
# residue field F_9.  (x^2 + 2)^2 - 5 at 5 likewise.  x^4 + 1 =
# (x^2 + 3x + 1)(x^2 - 3x + 1) mod 7 gives two such blocks.  With 3*7^2 in
# place of 7, near a root r of x^4 + 1 (in F_49) the input is
# (x - r)^2 (4r^3)^2 - 3*7^2, a side of slope 1 with residual
# z^2 - 3/(4r^3)^2; 3 is a square in F_49, so each of the 8 roots has
# e = 1 and residue field F_49.  At a side: _UPSTAIRS is x^4 mod 3; at
# slope 1, x = 3z, the residual is (z^2 + 1)^2 over F_3, and near z = i the
# input is 81 (z - i)^2 (2i)^2 + 3^7, so v(z - i) = 3/2: e = 2 over F_9.
_X4P1 = upoly(1, 0, 0, 0, 1)
_REPEATED_UPSTAIRS = [
    (upoly(1, 0, 1) * upoly(1, 0, 1) + upoly(-3), 3, ((2, 2, 1),)),
    (upoly(2, 0, 1) * upoly(2, 0, 1) + upoly(-5), 5, ((2, 2, 1),)),
    (_X4P1 * _X4P1 + upoly(-7), 7, ((2, 2, 2),)),
    (_X4P1 * _X4P1 + upoly(-3 * 7**2), 7, ((1, 2, 4),)),
    (_UPSTAIRS, 3, ((2, 2, 1),)),
    (_TWO_STOREYS, 3, ((2, 4, 1),)),
]


def _union(*splittings):
    merged: dict = {}
    for factors in splittings:
        for e, fr, cnt in factors:
            merged[(e, fr)] = merged.get((e, fr), 0) + cnt
    return tuple((e, fr, cnt) for (e, fr), cnt in sorted(merged.items()))


@pytest.mark.parametrize("f, p, want", _REPEATED_UPSTAIRS)
def test_repeated_factor_of_degree_at_least_two(f, p, want):
    assert local_splitting_type(f, p).factors == want
    # f(x + 1) reduces to other repeated factors: two disjoint blocks
    g = substitute(f, 1)
    assert local_splitting_type(f * g, p).factors == _union(want, want)


def test_two_clusters_upstairs_around_one_root():
    (f, p, a), (g, _, b) = _REPEATED_UPSTAIRS[2:4]
    assert local_splitting_type(f * g, p).factors == _union(a, b)


@pytest.mark.parametrize("f, p, want", _REPEATED_UPSTAIRS)
def test_splitting_does_not_reenter_itself(f, p, want, monkeypatch):
    calls = []
    real = gsl.padic._cluster

    def counted(W, g, center, floor, depth):
        if floor == -1:
            calls.append(W.q == W.p)
        return real(W, g, center, floor, depth)

    monkeypatch.setattr(gsl.padic, "_cluster", counted)
    assert local_splitting_type(f, p).factors == want
    assert calls == [True]


# ((x^4 + 1)^2 - 7)(x^2 + 1)(x^3 - 2) at 7: the repeated blocks of
# _X4P1 * _X4P1 + upoly(-7) next to simple factors of degree 2 and 3 mod 7
# (-1 is not a square mod 7, 2 is not a cube)
_MIXED = (_X4P1 * _X4P1 + upoly(-7)) * upoly(1, 0, 1) * upoly(-2, 0, 0, 1)


@pytest.mark.parametrize("f, p, want", _REPEATED_UPSTAIRS[:-1] + [
    (_MIXED, 7, ((1, 2, 1), (1, 3, 1), (2, 2, 2))), _REPEATED_UPSTAIRS[-1]])
def test_only_repeated_factors_are_split_and_no_root_is_searched(f, p, want, monkeypatch):
    # equal-degree splitting runs only on blocks of repeated factors, and
    # recentering builds its extension from the residual factor, from Z_p
    # and from an extension of it (_TWO_STOREYS) alike
    repeated, split, searched = [], [], []
    real_blocks, real_edf = gsl.padic.degree_blocks, gsl.modp._edf

    def blocks(F, g):
        out = real_blocks(F, g)
        repeated.extend(b for b, _, mult in out if mult > 1)
        return out

    monkeypatch.setattr(gsl.padic, "degree_blocks", blocks)
    monkeypatch.setattr(gsl.modp, "_edf", lambda F, g, d: split.append(g) or real_edf(F, g, d))
    monkeypatch.setattr(gsl.modp, "roots_over", lambda *a: searched.append(a))
    assert local_splitting_type(f, p).factors == want
    assert split and all(g in repeated for g in split)
    assert searched == []


@pytest.mark.parametrize("f, p, want", _REPEATED_UPSTAIRS)
def test_repeated_blocks_split_as_factoring_each_block_would(f, p, want, monkeypatch):
    # the oracle splits its repeated residual blocks, over F_p and over the
    # residue fields F_{p^d} of its extensions, by equal-degree splitting
    # alone; factoring each block anew (squarefree decomposition and
    # distinct-degree factorization again) gives the same irreducibles
    calls = []
    real = gsl.padic.factor_over

    def spy(F, blocks):
        out = real(F, blocks)
        calls.append((F, blocks, out))
        return out

    monkeypatch.setattr(gsl.padic, "factor_over", spy)
    assert local_splitting_type(f, p).factors == want
    assert calls
    for F, blocks, out in calls:
        [(block, _, _)] = blocks
        assert out == real(F, degree_blocks(F, block))
    if f is _TWO_STOREYS:
        assert sorted(F.q for F, *_ in calls) == [3, 9, 81]


def test_oracle_does_not_depend_on_the_seed(monkeypatch):
    # the x^4 + 1 inputs split a repeated block into two quadratics at random
    # over F_7
    inputs = [(f, p) for f, p, _ in _REPEATED_UPSTAIRS]
    seen = set()
    for seed in ["1", "12345", "0x7FFF", ""]:
        monkeypatch.setenv("GSL_SEED", seed)
        seen.add(tuple(local_splitting_type(f, p).factors for f, p in inputs))
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# metamorphic properties of the oracle

small_rat = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
monic_int_poly = st.lists(st.integers(-12, 12), min_size=1, max_size=4).map(
    lambda cs: UniPoly([Fraction(c) for c in cs] + [Fraction(1)])
)
odd_prime = st.sampled_from([3, 5, 7, 11, 13])


def _certified(f, p):
    try:
        return local_splitting_type(f, p).factors
    except WildOrIrregular:
        return None


@given(monic_int_poly, small_rat.filter(bool), small_rat, odd_prime)
def test_oracle_invariant_under_affine_substitution(f, u, c, p):
    assume(discriminant(f) != 0)
    g = substitute(f, c, u)
    a, b = _certified(f, p), _certified(g, p)
    assume(a is not None and b is not None)
    assert a == b


@given(monic_int_poly, monic_int_poly, odd_prime)
def test_oracle_splitting_of_product_is_merged_splitting(g, h, p):
    f = g * h
    assume(discriminant(f) != 0)  # g, h separable and coprime
    a, b, c = _certified(g, p), _certified(h, p), _certified(f, p)
    assume(None not in (a, b, c))
    merged: dict = {}
    for e, fr, cnt in a + b:
        merged[(e, fr)] = merged.get((e, fr), 0) + cnt
    assert c == tuple((e, fr, cnt) for (e, fr), cnt in sorted(merged.items()))


def _either(fn, *args):
    """fn's value, or its refusal as (class name, message)."""
    try:
        return fn(*args)
    except GslError as exc:
        return type(exc).__name__, str(exc)


rational_poly = st.lists(small_rat, min_size=1, max_size=5).map(UniPoly).filter(
    lambda f: not f.is_zero)


@settings(max_examples=200)
@given(st.one_of(monic_int_poly, rational_poly), odd_prime,
       st.integers(-30, 30).filter(bool), st.integers(1, 30), st.integers(0, 3), st.integers(0, 3))
def test_oracle_and_its_precision_see_f_and_c_f_alike(f, p, u, w, i, j):
    # c = u p^i / (w p^j): p may divide its numerator and its denominator.
    # The oracle enters on the primitive integer form, which f and c f share
    c = Fraction(u * p**i, w * p**j)
    g = f.scale(c)
    assert _either(local_splitting_type, g, p) == _either(local_splitting_type, f, p)
    assert _either(PadicPrecisionCtx.for_input, g, p) == _either(PadicPrecisionCtx.for_input, f, p)
    if f.degree >= 1 and discriminant(f) != 0:
        assert gsl.padic._prepare(g, p) == gsl.padic._prepare(f.monic(), p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 9, 25])),
                min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0),
       st.sampled_from([2, 3, 5, 7]))
def test_disc_valuation_is_that_of_the_discriminant_of_the_model(coeffs, p):
    # degrees 1 to 6, any leading coefficient: the valuation read off the
    # int Res(A, A') is v_p(disc f.monic()) plus m n (n - 1), m the least
    # exponent making p^(m n) f.monic()(Z / p^m) integral
    f = UniPoly(coeffs)
    disc = discriminant(f.monic())
    if disc == 0:
        with pytest.raises(NotSeparable):
            gsl.padic._prepare(f, p)
        return
    G, ctx = gsl.padic._prepare(f, p)
    n, monic = f.degree, f.monic().coeffs
    m = 0
    while any(c and rational_valuation(c, p) + m * (n - i) < 0 for i, c in enumerate(monic)):
        m += 1
    assert ctx.disc_valuation == rational_valuation(disc, p) + m * n * (n - 1)
    assert ctx.disc_valuation == rational_valuation(discriminant(UniPoly(G)), p) - (
        2 * n - 2) * rational_valuation(G[-1], p)


# clustered inputs prod(x - (c + p^j d)) + p^k g, deg g < deg f
clustered = st.tuples(
    st.sampled_from([3, 5, 7]),
    st.integers(-4, 4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), min_size=2, max_size=4),
    st.integers(1, 6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)


def _clustered_input(data):
    p, c, roots, k, g = data
    f = upoly(1)
    for j, d in roots:
        f = f * upoly(-(c + p**j * d), 1)
    return p, f + upoly(*g[:f.degree]).scale(p**k)


def _outcome(f, p):
    """The oracle's answer, with a refusal as "refused"."""
    try:
        return local_splitting_type(f, p).factors
    except WildOrIrregular:
        return "refused"


# inputs g^2 (x - a) + p^k h whose reduction has a repeated factor g of
# degree 1 to 3, so that the oracle recenters (from Z_p into Z_{p^deg g})
repeated_residual = st.tuples(
    st.sampled_from([3, 5, 7]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(-5, 5),
    st.integers(1, 6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)


def _repeated_residual_input(data):
    p, g, a, k, h = data
    g = upoly(*g, 1)
    f = g * g * upoly(-a, 1)
    return p, f + upoly(*h).scale(p**k)


@settings(max_examples=60, deadline=None)
@given(repeated_residual, small_rat, st.integers(-9, 9), st.sampled_from([1, 2, 4, 8]))
def test_oracle_invariant_under_reversal_translation_and_unit_scaling(data, c, un, ud):
    # x^n f(1/x), f(Y + c) and f(uY) for a p-adic unit u have the same
    # local fields as f
    p, f = _repeated_residual_input(data)
    assume(discriminant(f) != 0 and un % p and ud % p)
    want = _outcome(f, p)
    transformed = [substitute(f, c), substitute(f, 0, Fraction(un, ud))]
    if f.coeffs[0] != 0:
        transformed.append(UniPoly(list(reversed(f.coeffs))))
    for g in transformed:
        assert _outcome(g, p) == want


@settings(max_examples=60, deadline=None)
@given(st.one_of(repeated_residual.map(_repeated_residual_input),
                 clustered.map(_clustered_input)))
def test_base_change_to_the_unramified_quadratic_extension(data):
    # over Q_{p^2} a factor (e, f) of f over Q_p splits into gcd(f, 2)
    # factors (e, f / gcd(f, 2)); the oracle run over W = Z_{p^2} recenters
    # through extensions of Z_{p^2}, the run over Z_p through extensions of
    # Z_p
    p, f = data
    assume(discriminant(f) != 0)
    want = _outcome(f, p)
    assume(want != "refused")
    N = 8 * rational_valuation(discriminant(f), p) + 64
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    W = Zq(Zp(p, N), [-n, 0, 1])  # x^2 - n for the least non-square n mod p
    fw = [W.embed(W.base.from_rat(a)) for a in f.coeffs]
    got = gsl.padic._merge(_cluster(W, fw, W.zero, -1, 0))
    assert got == gsl.padic._merge(
        (e, fr // math.gcd(fr, 2), cnt * math.gcd(fr, 2)) for e, fr, cnt in want)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(bundled_covers())), st.integers(-2, 2), st.integers(0, 3),
       small_rat, st.sampled_from([5, 7, 11, 13, 17, 19, 23]))
def test_specializations_of_bundled_covers_are_isotypic(covers, name, a, k, b, p):
    # the specialization of a Galois cover off its branch locus is a
    # Galois algebra: every local factor at a good prime has one (e, f);
    # t0 = a + p^k b meets the branch points 0 and 1 at p when k >= 1
    cover = covers[name]
    t0 = a + p**k * b
    assume(p not in conservative_bad_primes(cover))
    assume(cover.analysis.disc_sf(t0) != 0)
    f = specialize_poly(cover, t0)
    assume(f.degree == cover.degree and discriminant(f) != 0)
    try:
        split = local_splitting_type(f, p)
    except WildOrIrregular:
        assume(False)
    assert len(split.factors) == 1, split.factors  # one (e, f) class
    [(e, fr, count)] = split.factors
    assert e * fr * count == cover.degree


# ---------------------------------------------------------------------------
# the precision ladder: start at 2 v_p(disc) + 1, double when a check fails


def test_hensel_zone_root_needs_twice_the_derivative_valuation():
    # x^2 + 9x + 27 at 3, mod 3^3: the center 0 is a root mod p^N, but
    # v(G'(0)) = 2 and 2*2 >= 3, so Hensel's lemma does not apply.  The
    # roots have valuation 3/2: one ramified quadratic, not two roots in Z_3.
    W = Zp(3, 3)
    with pytest.raises(PrecisionExhausted, match="Hensel zone"):
        _cluster(W, [W.from_int(c) for c in (27, 9, 1)], W.zero, -1, 0)
    assert local_splitting_type(upoly(27, 9, 1), 3).factors == ((2, 1, 1),)


def _record_rungs(monkeypatch, fail_first):
    """Record the precision of every oracle run (a first cluster, floor -1);
    the first `fail_first` runs raise PrecisionExhausted."""
    real = gsl.padic._cluster
    rungs = []

    def cluster(W, f, center, floor, depth):
        if floor == -1:
            rungs.append(W.N)
            if len(rungs) <= fail_first:
                raise PrecisionExhausted("forced")
        return real(W, f, center, floor, depth)

    monkeypatch.setattr(gsl.padic, "_cluster", cluster)
    return rungs


def test_first_rung_is_the_certified_floor(monkeypatch):
    f = upoly(27, 9, 1)  # disc = -27, v_3 = 3
    assert PadicPrecisionCtx.for_input(f, 3).precision == 7
    rungs = _record_rungs(monkeypatch, 0)
    assert local_splitting_type(f, 3).factors == ((2, 1, 1),)
    assert rungs == [7]


def test_forced_retry_leaves_the_answer_unchanged(monkeypatch):
    want = {f: local_splitting_type(f, p) for f, p, _ in _REPEATED_UPSTAIRS}
    rungs = _record_rungs(monkeypatch, 1)
    for f, p, _ in _REPEATED_UPSTAIRS:
        rungs.clear()
        assert local_splitting_type(f, p) == want[f]
        first = PadicPrecisionCtx.for_input(f, p).precision
        assert rungs == [first, 2 * first]


def test_integral_model_adds_its_exponent_to_the_disc_valuation():
    # x^2 - 1/9 at 3: the model is Z^2 - 1 (m = 1), and v_3(disc) = -2 + 2
    f = upoly(Fraction(-1, 9), 0, 1)
    ctx = PadicPrecisionCtx.for_input(f, 3)
    assert (ctx.disc_valuation, ctx.precision) == (0, 1)
    assert local_splitting_type(f, 3).factors == ((1, 1, 2),)


def test_exhausted_ladder_reports_precision_not_wildness(monkeypatch):
    rungs = _record_rungs(monkeypatch, gsl.padic.LADDER_RUNGS)
    with pytest.raises(PrecisionExhausted,
                       match=r"at precisions 7, 14, 28, 56, 112, 224, 448, 896: forced"):
        local_splitting_type(upoly(27, 9, 1), 3)
    assert rungs == [7 << k for k in range(gsl.padic.LADDER_RUNGS)]
    # the last rung is at least twice max(50, 2v + 10), v = 3
    assert rungs[-1] >= 2 * max(50, 2 * 3 + 10)


def _deep_pair(k):
    """(x - a)(x - a - 3^k), a = (3^76 - 1)/2 = 11...1 in base 3: the roots
    share their first k digits, so at 3 their cluster tree is k levels
    deep, one digit a level."""
    a = (3**76 - 1) // 2
    return upoly(-a, 1) * upoly(-a - 3**k, 1)


def test_cluster_tree_deeper_than_the_cap_is_refused_on_the_first_rung(monkeypatch):
    # the depth of the tree does not depend on N: no rung above would help
    assert local_splitting_type(_deep_pair(60), 3).factors == ((1, 1, 2),)
    rungs = _record_rungs(monkeypatch, 0)
    with pytest.raises(WildOrIrregular, match="MAX_DEPTH = 64"):
        local_splitting_type(_deep_pair(66), 3)
    assert rungs == [PadicPrecisionCtx.for_input(_deep_pair(66), 3).precision]


@settings(max_examples=60, deadline=None)
@given(clustered)
def test_oracle_matches_a_run_far_above_the_floor(data):
    p, f = _clustered_input(data)
    disc = discriminant(f)
    assume(disc != 0)
    v = rational_valuation(disc, p)
    W = Zp(p, 8 * v + 64)
    try:
        want = gsl.padic._merge(_cluster(W, [W.from_rat(a) for a in f.coeffs], W.zero, -1, 0))
    except WildOrIrregular:
        with pytest.raises(WildOrIrregular):
            local_splitting_type(f, p)
        return
    assert local_splitting_type(f, p).factors == want


def test_discriminant_computed_once_per_polynomial(monkeypatch):
    # a specialization is checked at each of its meeting primes with the same
    # polynomial; its discriminant is computed once
    calls = []
    real = gsl.padic._disc_ints
    monkeypatch.setattr(gsl.padic, "_disc_ints", lambda A, a: calls.append(A) or real(A, a))
    gsl.padic._model.cache_clear()
    f = upoly(-1001, 0, 0, 1)
    for p in (5, 7, 11, 13):
        local_splitting_type(f, p)
        local_splitting_type(f.scale(5), p)  # the same monic input
    assert calls == [(-1001, 0, 0, 1)]
    gsl.padic._model.cache_clear()


def test_precision_context_rejects_a_composite_modulus():
    with pytest.raises(DomainError):
        PadicPrecisionCtx.for_input(upoly(-2, 0, 1), 9)


# ---------------------------------------------------------------------------
# each cluster is read on the whole f: no Hensel lift


def _splitting_through_lifted_blocks(W, f):
    """The oracle with the clusters read on lifted blocks: the block
    factorization of f mod p (one block per g^m, one for all simple
    factors) is Hensel-lifted over W and each g^m cluster is read on its
    own lift."""
    F = W.res
    out, simple, repeated = [], [], []
    for block, r, mult in degree_blocks(F, dense.trim(F, [W.residue(c) for c in f])):
        if mult == 1:
            out.append((1, r, (len(block) - 1) // r))
            simple.append(block)
        else:
            repeated.extend((g, mult) for g, _ in factor_over(F, degree_blocks(F, block)))
    repeated.sort(key=lambda t: (len(t[0]), t[0]))
    blocks = []
    for g, m in repeated:
        blocks.append([F.one])
        for _ in range(m):
            blocks[-1] = dense.mul(F, blocks[-1], g)
    if simple:
        rest = [F.one]
        for g in simple:
            rest = dense.mul(F, rest, g)
        blocks.append(rest)
    for (g, _), lifted in zip(repeated, hensel_lift(W, f, blocks)):
        out.extend(_recenter(W, lifted, W.zero, g, 0, Fraction(0), 0))
    if sum(e * fr * c for e, fr, c in out) != len(f) - 1:
        raise PrecisionExhausted("degree bookkeeping mismatch")
    return out


def _ladder(split, f, p):
    """What `split` gives at each rung of the oracle's ladder for f at p,
    merged as the oracle's answer, up to the first answer or refusal (a
    failed rung as its error's name)."""
    G, ctx = gsl.padic._prepare(f.monic(), p)
    out = []
    for k in range(gsl.padic.LADDER_RUNGS):
        W = Zp(p, ctx.precision << k)
        try:
            out.append(gsl.padic._merge(split(W, dense.monic(W, [W.from_int(c) for c in G]))))
            break
        except PrecisionExhausted:
            out.append("PrecisionExhausted")
        except WildOrIrregular:
            out.append("WildOrIrregular")
            break
    return out


@settings(max_examples=80, deadline=None)
@example((3, _REPEATED_UPSTAIRS[0][0]))  # (x^2 + 1)^2 - 3: a quadratic block
@example((7, _MIXED))  # two quadratic blocks next to simple factors
@given(st.one_of(repeated_residual.map(_repeated_residual_input),
                 clustered.map(_clustered_input)))
def test_clusters_read_on_the_whole_f_match_clusters_read_on_lifted_blocks(data):
    # the factors of f away from a cluster are units there: they add a
    # slope-0 side and a unit factor to each residual, so the emissions,
    # and the rungs at which they are certified, are those of the lift
    p, f = data
    assume(discriminant(f) != 0)
    F = prime_field(p)
    fbar = dense.monic(F, [F.from_int(c) for c in gsl.padic._prepare(f.monic(), p)[0]])
    degrees = {len(g) - 1 for block, _, mult in degree_blocks(F, fbar)
               if mult > 1 for g, _ in factor_over(F, degree_blocks(F, block))}
    assume(degrees and degrees <= {1, 2})
    assert (_ladder(lambda W, g: _cluster(W, g, W.zero, -1, 0), f, p)
            == _ladder(_splitting_through_lifted_blocks, f, p))


@pytest.mark.parametrize("f, p, want", _REPEATED_UPSTAIRS + [
    (_MIXED, 7, ((1, 2, 1), (1, 3, 1), (2, 2, 2)))])
def test_oracle_lifts_nothing(f, p, want, monkeypatch):
    # the one Hensel lift of the package is nfield's, which padic never binds
    assert not {"hensel_lift", "nfield"} & set(vars(gsl.padic))
    monkeypatch.setattr(gsl.nfield, "hensel_lift",
                        lambda *a: pytest.fail("the oracle lifted a factorization"))
    assert local_splitting_type(f, p).factors == want
