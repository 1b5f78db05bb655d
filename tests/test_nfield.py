"""Number-field arithmetic: factorization over Q and over number fields,
adjoining roots, relative minimal polynomials."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gsl import dense, nfield
from gsl.errors import DomainError, PrecisionExhausted
from gsl.exact import UniPoly
from gsl.nfield import (
    NumberField,
    adjoin_root,
    factor_nf,
    factor_rational,
    is_irreducible_rational,
    nf_roots,
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
    roots = nf_roots(K, [K.from_rat(Fraction(1)), K.zero, K.from_rat(Fraction(1))])
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


def test_degree_one_field_fast_path():
    K = NumberField(upoly(0, 1))  # Q presented as Q[x]/(x)
    assert K.degree == 1
    fac = factor_nf(K, [K.from_rat(Fraction(-1)), K.zero, K.from_rat(Fraction(1))])
    assert len(fac) == 2


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


@settings(max_examples=30)
@given(st.lists(st.integers(-20, 20), max_size=7).filter(lambda cs: cs and cs[-1]))
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
        f = dense.mul(K, f, [(Fraction(a), Fraction(b)) for a, b in fac] + [K.one])
        expr *= sum((a + b * gen) * _y**i for i, (a, b) in enumerate(fac)) + _y ** len(fac)
    ours = sorted((tuple(g), m) for g, m in factor_nf(K, f))
    assert ours == _sympy_factors(expr, gen, gen)
