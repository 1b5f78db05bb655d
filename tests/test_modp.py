"""Finite-field factorization and Frobenius data."""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gsl.modp
from gsl import dense
from gsl.errors import DomainError, NotSeparable
from gsl.exact import UniPoly
from gsl.modp import (
    Zp,
    Zq,
    degree_blocks,
    factor_mod_p,
    factor_over,
    frobenius_data,
    prime_field,
    reduce_relative,
    reduce_unipoly,
    roots_mod_p,
    roots_over,
)


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


def _conv_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def test_factor_quadratic_split_vs_inert():
    split = factor_mod_p(upoly(1, 0, 1), 5)  # x^2+1, 5 = 1 mod 4
    assert sorted(g for g, _ in split) == [[2, 1], [3, 1]]
    inert = factor_mod_p(upoly(1, 0, 1), 7)
    assert len(inert) == 1 and inert[0][0] == [1, 0, 1]


def test_factor_multiplicity():
    f = upoly(-1, 1) * upoly(-1, 1) * upoly(2, 1)
    fac = factor_mod_p(f, 7)
    assert sorted(fac) == [([2, 1], 1), ([6, 1], 2)]


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=6),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_factor_reconstructs_product(coeffs, p):
    coeffs = coeffs + [1]  # monic
    if not any(c % p for c in coeffs[:-1]) and len(coeffs) == 1:
        return
    fac = factor_mod_p(upoly(*coeffs), p)
    lead = [1]
    for g, m in fac:
        for _ in range(m):
            lead = _conv_mod(lead, g, p)
    assert lead == [c % p for c in coeffs]
    # all factors monic
    assert all(g[-1] == 1 for g, _ in fac)


def test_roots_mod_p():
    assert roots_mod_p(upoly(0, -1, 0, 1), 3) == [0, 1, 2]  # x^3 - x
    assert roots_mod_p(upoly(1, 0, 1), 5) == [2, 3]
    assert roots_mod_p(upoly(1, 0, 1), 7) == []


def test_frobenius_cycle_types():
    x4p1 = upoly(1, 0, 0, 0, 1)
    fd3 = frobenius_data(x4p1, 3)  # two quadratics mod 3
    assert fd3 == (2, 2) and math.lcm(*fd3) == 2
    fd17 = frobenius_data(x4p1, 17)  # 17 = 1 mod 8: splits
    assert fd17 == (1, 1, 1, 1) and math.lcm(*fd17) == 1


def test_frobenius_rejects_inseparable():
    f = upoly(-1, 1) * upoly(-1, 1)
    with pytest.raises(NotSeparable):
        frobenius_data(f, 7)


@given(st.lists(st.fractions(min_value=-10**4, max_value=10**4, max_denominator=60), max_size=6),
       st.sampled_from([2, 3, 5, 7, 11, 13, 59, 101, 10007]))
def test_reduce_unipoly_denominator_guard(cs, p):
    # the reduction of each Fraction coefficient, refused exactly when p
    # divides one of their denominators
    f = upoly(Fraction(1, 5), 1)
    assert reduce_unipoly(f, 7) == [3, 1]  # 1/5 = 3 mod 7
    with pytest.raises(DomainError, match="^element is not p-integral$"):
        reduce_unipoly(f, 5)
    f = UniPoly(cs)
    if any(c.denominator % p == 0 for c in cs):
        with pytest.raises(DomainError, match="^element is not p-integral$"):
            reduce_unipoly(f, p)
        return
    want = [c.numerator * pow(c.denominator, -1, p) % p for c in cs]
    while want and not want[-1]:
        want.pop()
    assert reduce_unipoly(f, p) == want


def test_reduce_relative_quadratic_residue_field():
    # residue polynomial Z^2 + 1 over Q[tau]/(tau), evaluated at tau = 0 mod 5
    rel = [upoly(1), upoly(0), upoly(1)]
    base = upoly(0, 1)
    red = reduce_relative(rel, base, (5, 0))
    assert red == [1, 0, 1]
    with pytest.raises(DomainError):
        reduce_relative(rel, base, (5, 2))  # 2 is not a root of tau mod 5


def test_factor_rejects_zero():
    with pytest.raises(DomainError):
        factor_mod_p(upoly(0), 5)
    with pytest.raises(DomainError):
        degree_blocks(prime_field(5), [0, 0])


def test_ext_field_rejects_non_monic_modulus():
    with pytest.raises(DomainError):
        Zq(prime_field(5), [2, 0, 3])


# ---------------------------------------------------------------------------
# the residue rings: a unit times its inverse is one


def _irreducible(F, d):
    """The first monic polynomial of degree d = 2 or 3 over the finite field
    F, with coefficients enumerated in the order of `F.element_by_index`
    (least significant first), that has no root in F: irreducible, since
    a factorization of it would have a linear factor."""
    elements = [F.element_by_index(i) for i in range(F.q)]
    for i in range(F.q**d):
        f = [elements[i // F.q**k % F.q] for k in range(d)] + [F.one]
        if not any(dense.evaluate(F, f, a) == F.zero for a in elements):
            return f
    raise AssertionError(f"no irreducible of degree {d} over {F}")


def _elements(R):
    """The elements of a Zp, or of a tower of Zq over one."""
    if isinstance(R, Zp):
        return st.integers(0, R.int_modulus - 1)
    return st.tuples(*[_elements(R.base)] * R.d)


@st.composite
def _ring(draw):
    """Zp(p, N) with up to two Zq storeys over it, each Zq(R, Phi) for a
    random monic lift Phi of an irreducible of degree 2 or 3 over R.res."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.sampled_from([1, 2, 5]))
    R = Zp(p, N)
    for d in draw(st.lists(st.sampled_from([2, 3]), max_size=2)):
        chi, pz = _irreducible(R.res, d), R.from_int(p)
        Phi = [R.add(c, R.mul(pz, draw(_elements(R)))) for c in chi[:-1]] + [R.one]
        R = Zq(R, Phi)
    return R


def _ring_and_element():
    return _ring().flatmap(lambda R: st.tuples(st.just(R), _elements(R)))


F9 = Zq(prime_field(3), [1, 0, 1])  # F_3[x]/(x^2 + 1)


def _every_element_of_f9(test):
    for i in range(9):
        test = example((F9, F9.element_by_index(i)))(test)
    return test


@settings(max_examples=300)
@_every_element_of_f9
@given(_ring_and_element())
def test_a_unit_times_its_inverse_is_one(case):
    R, a = case
    if R.residue(a) == R.res.zero:
        with pytest.raises(ZeroDivisionError):
            R.inv(a)
    else:
        assert R.mul(a, R.inv(a)) == R.mul(R.inv(a), a) == R.one


@settings(max_examples=200)
@given(_ring().flatmap(lambda R: st.tuples(st.just(R), _elements(R), _elements(R))),
       st.integers(0, 5))
def test_valuation_shift_and_residue_laws(case, k):
    # on Zp and on towers of Zq over it: the residue map is a ring map, the
    # valuation is that of an unramified ring (it adds up on products) and
    # shift_down undoes multiplication by p^k
    R, a, b = case
    F = R.res
    assert R.residue(R.mul(a, b)) == F.mul(R.residue(a), R.residue(b))
    assert R.residue(R.add(a, b)) == F.add(R.residue(a), R.residue(b))
    va, vb = R.val(a), R.val(b)
    assert (va is None) == (a == R.zero)
    if va is not None and vb is not None and va + vb < R.N:
        assert R.val(R.mul(a, b)) == va + vb
    pk = R.from_int(R.p**k)
    x = R.mul(pk, a)
    assert R.val(x) == (va + k if va is not None and va + k < R.N else None)
    assert R.mul(pk, R.shift_down(x, k)) == x


def test_gsl_seed_accepts_any_int_literal(monkeypatch):
    # x^2 - 4 mod 65537 and x^2 - 1 mod 5: every split reads the seed
    monkeypatch.setenv("GSL_SEED", "0x5EED")
    hex_seed = factor_mod_p(upoly(65533, 0, 1), 65537)
    monkeypatch.setenv("GSL_SEED", str(0x5EED))
    assert factor_mod_p(upoly(65533, 0, 1), 65537) == hex_seed
    assert [g for g, _ in hex_seed] == [[2, 1], [65535, 1]]
    monkeypatch.setenv("GSL_SEED", "seed")
    with pytest.raises(DomainError):
        factor_mod_p(upoly(65533, 0, 1), 65537)
    with pytest.raises(DomainError):
        factor_mod_p(upoly(4, 0, 1), 5)


# ---------------------------------------------------------------------------
# equal-degree splitting over extension fields, against brute force


def _ext(p, d):
    F = prime_field(p)
    return Zq(F, _irreducible(F, d))


SMALL_EXT = {q: _ext(p, d) for q, p, d in
             [(8, 2, 3), (9, 3, 2), (25, 5, 2), (49, 7, 2), (121, 11, 2)]}


def _rabin_irreducible(F, g):
    """Rabin's test, independent of `degree_blocks`: x^(q^n) = x mod g and
    gcd(x^(q^(n/r)) - x, g) = 1 for every prime r dividing n = deg g."""
    n, x = len(g) - 1, [F.zero, F.one]

    def frob_minus_x(k):
        return dense.rem(F, dense.sub(F, dense.powmod(F, x, F.q**k, g), x), g)

    return not frob_minus_x(n) and all(
        len(dense.gcd(F, frob_minus_x(n // r), g)) == 1 for r in sp.primefactors(n))


@given(st.sampled_from(sorted(SMALL_EXT)),
       st.lists(st.integers(0, 120), min_size=1, max_size=6))
def test_factor_and_roots_over_small_extensions(q, idx):
    F = SMALL_EXT[q]
    assert _rabin_irreducible(prime_field(F.p), F.Phi)  # the modulus from _irreducible
    f = [F.element_by_index(i % q) for i in idx] + [F.one]  # monic
    prod = [F.one]
    for g, m in factor_over(F, degree_blocks(F, f)):
        assert g[-1] == F.one and _rabin_irreducible(F, g)
        for _ in range(m):
            prod = dense.mul(F, prod, g)
    assert prod == f
    zeros = [a for a in map(F.element_by_index, range(q))
             if dense.evaluate(F, f, a) == F.zero]
    assert sorted(roots_over(F, f)) == sorted(zeros)


@pytest.mark.parametrize("seed", range(5))
def test_split_in_characteristic_2_separates_every_root(monkeypatch, seed):
    # every element of F_8 is a root of x^8 + x; 3 of the 7 nonzero
    # differences have trace 0, and no candidate x + c separates such a pair
    monkeypatch.setenv("GSL_SEED", str(seed))
    F = SMALL_EXT[8]
    f = [F.zero, F.one] + [F.zero] * 6 + [F.one]
    tries = []
    real = dense.gcd

    def gcd(*args):  # one gcd per try: fail, rather than hang, past 200
        tries.append(1)
        if len(tries) > 200:
            raise RuntimeError("equal-degree splitting made no progress")
        return real(*args)

    monkeypatch.setattr(dense, "gcd", gcd)
    assert roots_over(F, f) == sorted(map(F.element_by_index, range(8)))


@pytest.mark.parametrize("seed", range(10))
def test_split_over_quadratic_extension_takes_few_tries(monkeypatch, seed):
    # x^2 - 2 is irreducible mod 83 and splits over F_{83^2}; its roots are
    # Frobenius conjugates, so a candidate x + c with c in F_83 never
    # separates them: only candidates drawn from all of F_{83^2} do
    monkeypatch.setenv("GSL_SEED", str(seed))
    F = _ext(83, 2)
    calls = []
    real = dense.powmod
    monkeypatch.setattr(dense, "powmod", lambda *a: calls.append(1) or real(*a))
    f = [F.from_int(-2), F.zero, F.one]
    fac = factor_over(F, degree_blocks(F, f))
    assert [len(g) for g, _ in fac] == [2, 2]
    assert len(calls) <= 8


@pytest.mark.parametrize("F", [prime_field(65537), _ext(83, 2), _ext(2, 3)],
                         ids=repr)
def test_splitting_results_do_not_depend_on_the_seed(monkeypatch, F):
    f = [F.from_int(c) for c in [-6, 11, -6, 1]]  # (x - 1)(x - 2)(x - 3)
    f = dense.mul(F, f, [F.from_int(c) for c in [1, 0, 1, 0, 1]])
    seen = set()
    for seed in ["1", "12345", "0x7FFF", ""]:
        monkeypatch.setenv("GSL_SEED", seed)
        seen.add(repr((factor_over(F, degree_blocks(F, f)), roots_over(F, f))))
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# F_p once per prime


def test_prime_field_tests_each_prime_once(monkeypatch):
    calls = []
    real = gsl.modp.is_prime
    monkeypatch.setattr(gsl.modp, "is_prime", lambda n: calls.append(n) or real(n))
    prime_field.cache_clear()
    f = upoly(-2, 0, 1)
    for _ in range(3):
        factor_mod_p(f, 10007)
        roots_mod_p(f, 10007)
        frobenius_data(f, 10007)
        reduce_unipoly(f, 10007)
    assert prime_field(10007) is prime_field(10007)
    assert calls == [10007]
    prime_field.cache_clear()


# the last two: the least strong pseudoprimes to all the prime bases up to
# 37 and up to 41 (Sorenson & Webster, Math. Comp. 86 (2017))
@pytest.mark.parametrize("n", [1, 9, 15, 561, 10007 * 10009, 318665857834031151167461,
                               3317044064679887385961981])
def test_prime_field_rejects_a_composite_modulus(n):
    for _ in range(2):  # a failure is not cached
        with pytest.raises(DomainError, match="not prime"):
            prime_field(n)
    with pytest.raises(DomainError, match="not prime"):
        factor_mod_p(upoly(1, 0, 1), n)


# ---------------------------------------------------------------------------
# degree blocks: squarefree and distinct-degree factorization, no EDF


def _count_roots_by_brute_force(p, k, f):
    """Distinct roots of f (ints mod p) in F_{p^k}, by evaluation at every
    element."""
    F = _ext(p, k) if k > 1 else prime_field(p)
    fk = [F.from_int(c) for c in f]
    return sum(dense.evaluate(F, fk, F.element_by_index(i)) == F.zero
               for i in range(p**k))


@given(st.sampled_from([3, 5, 7]),
       st.lists(st.tuples(st.lists(st.integers(0, 6), min_size=1, max_size=3),
                          st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(1, 6))
def test_degree_blocks_against_brute_force_root_counts(p, parts, lc):
    F = prime_field(p)
    # a product of powers of small monic polynomials, with a unit in front
    f = [lc % p or 1]
    for cs, m in parts:
        g = [c % p for c in cs] + [1]
        for _ in range(m):
            f = dense.mul(F, f, g)
    blocks = degree_blocks(F, f)
    # prod block^mult is monic(f); each block has degree a multiple of r
    prod = [1]
    for block, r, mult in blocks:
        assert block[-1] == 1 and (len(block) - 1) % r == 0
        for _ in range(mult):
            prod = dense.mul(F, prod, block)
    assert prod == dense.monic(F, f)
    # a degree-r irreducible has r distinct roots in F_{p^k} when r | k
    for k in (1, 2, 3):
        want = sum((len(block) - 1) for block, r, _ in blocks if k % r == 0)
        assert _count_roots_by_brute_force(p, k, f) == want
    # and the blocks are the products of factor_over's irreducibles
    grouped: dict = {}
    for g, mult in factor_over(F, blocks):
        key = (len(g) - 1, mult)
        grouped[key] = dense.mul(F, grouped.get(key, [1]), g)
    assert grouped == {(r, mult): block for block, r, mult in blocks}


@pytest.mark.parametrize("F, f", [
    (prime_field(7), [3, 2]),
    (prime_field(7), [0, 5, 0]),  # 5x, with a vanished leading coefficient
    (F9, [(0, 1), (1, 1)]),  # (1 + i) x + i over F_9
])
def test_degree_blocks_of_a_linear_input_skip_the_squarefree_pass(F, f, monkeypatch):
    monic = dense.monic(F, dense.trim(F, list(f)))
    monkeypatch.setattr(dense, "squarefree",
                        lambda *a: pytest.fail("squarefree pass on a linear input"))
    assert degree_blocks(F, f) == [(monic, 1, 1)]


def test_frobenius_data_reads_reduced_coefficients():
    # x^4 + 1 mod 3 = (x^2 + x + 2)(x^2 + 2x + 2): two quadratics
    assert frobenius_data(upoly(1, 0, 0, 0, 1), 3) == (2, 2)
    assert frobenius_data(upoly(4, 0, 0, 0, 7), 3) == (2, 2)
    with pytest.raises(NotSeparable):
        frobenius_data(upoly(1, 2, 1), 3)  # (x + 1)^2
    with pytest.raises(NotSeparable):
        frobenius_data(upoly(2), 3)  # a constant has no cycle type
    with pytest.raises(DomainError):
        frobenius_data(upoly(3, 6), 3)  # zero mod 3: the degree drops
