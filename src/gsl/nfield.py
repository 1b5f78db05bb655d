"""Exact number-field arithmetic and certified factorization over Q and
over number fields.

Everything here is exact integer and rational arithmetic; no floating
point, no randomness.  The pieces:

  * NumberField -- Q[x]/(M) for a monic irreducible M, each element one
    integer vector over one positive denominator, (c_0, ..., c_(n-1), den),
    kept with gcd 1 (as FLINT's fmpq_poly stores Q[x]), so the ring
    operations run on Python ints with one gcd normalization per result;
    inverses by fraction-free (Bareiss) elimination on the matrix of
    multiplication.  Polynomials over a number field are `dense` lists of
    elements; their gcds are `dense.gcd`, Euclid with monic remainders.
  * factor_rational -- complete factorization in Q[x]: squarefree part
    (`exact.squarefree_part`, on the stored ints), then multiplicities,
    each the number of exact divisions of f.monic() by its factor.  The
    squarefree part goes through one Zassenhaus step.  It is first
    rescaled to a monic integer polynomial by the least integer D that
    makes it integral (D^n g(x/D); D is built prime by prime from the
    denominators, not as their lcm), which keeps coefficients, the
    Landau-Mignotte bound and the Hensel precision small.  The Zassenhaus
    prime is the first of four squarefree candidates with the fewest
    factors mod p: a prime where g mod p is not squarefree is rejected by
    gcd(g, g') mod p, the factors of the others are counted from the
    blocks of distinct-degree factorization (`modp._ddf`, which reads a
    quadratic's blocks off its discriminant) as it yields them, and a
    candidate that cannot beat the best count so far is dropped there.
    Only the chosen prime's blocks are split into factors, by
    equal-degree splitting alone (`modp.factor_over` given those
    blocks).  They are lifted by the multifactor Hensel lift
    `hensel_lift` over Z/p^k (`modp.Zp`, whose polynomials are int lists)
    past the Landau-Mignotte bound, and subsets are recombined over Z.
    Every returned factor is irreducible by construction: recombination
    tries subsets in increasing size, so the first subset whose product
    divides over Z cannot split further.
  * factor_nf -- factorization in K[y], for K of every degree (Q
    itself included): squarefree split (`dense.squarefree`, Musser's),
    then Trager's norm method on each squarefree part.  The norm
    polynomial of h(z - s theta), one Taylor shift (`dense.shift`) read in the coordinates of K as H(z, x),
    is the bivariate resultant Res_x(M(x), H(z, x)) of `exact`, which is
    prod_k h(z - s alpha_k) because M is monic.  One factor per
    norm factor comes from a gcd with what is left of h; the last is that
    rest, by exact division.  The norm is proved squarefree once, and its
    factors come from the same per-part Zassenhaus step as factor_rational's
    (`_factor_squarefree`), with no second squarefree decomposition.
  * adjoin_root -- build K(beta) for a root beta of an irreducible
    rho in K[y], flattened to an absolute field Q(gamma) with
    gamma = beta + c*theta; irreducibility of the new modulus is certified
    by squarefreeness of the norm (Trager's lemma).
  * relative_min_poly -- minimal polynomial of a generator of the field
    over an embedded subfield Q(tau): one square integer system, solved
    by Bareiss elimination.

Every check on the way raises a typed error (`DomainError`,
`NotSeparable`, `PrecisionExhausted`), so none depends on `assert`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import dense
from .errors import DomainError, NotSeparable, PrecisionExhausted
from .exact import (
    UniPoly,
    _resultant_rows,
    _valuation,
    discriminant,
    factor_int,
    is_prime,
    squarefree_part,
)
from .modp import Zp, _ddf, factor_over, prime_field


# ---------------------------------------------------------------------------
# number fields


class NumberField:
    """Q[x]/(M(x)) for monic irreducible M.  An element is a tuple of ints
    (c_0, ..., c_(n-1), den) standing for sum c_i x^i / den, n = deg M, kept
    canonical: den > 0 and gcd(c_0, ..., c_(n-1), den) = 1, so equal
    elements are equal tuples.  The modulus is kept as the integer vector
    D (M - x^n) for the least D > 0 that makes it integral, and x^n
    reduces to minus that vector over D.  The ring operations run on
    Python ints with one gcd normalization per result; `coords` gives the
    rational coordinates, and `from_unipoly` the class of a polynomial
    over Q.  Irreducibility of M is the caller's responsibility -- every
    modulus built inside this module is certified at construction time
    (factor_rational output, or a squarefree norm via Trager's lemma)."""

    __slots__ = ("modulus", "degree", "zero", "one", "_red", "_red_den", "_pad")

    def __init__(self, modulus: UniPoly):
        if modulus.degree < 1:
            raise DomainError("number field modulus must have degree >= 1")
        if modulus.lc != 1:
            raise DomainError("number field modulus must be monic")
        n = modulus.degree
        set_ = object.__setattr__
        set_(self, "modulus", modulus)
        set_(self, "degree", n)
        set_(self, "_red", modulus.num[:n])
        set_(self, "_red_den", modulus.den)
        set_(self, "_pad", (0,) * (n - 1))
        set_(self, "zero", (0,) * n + (1,))
        set_(self, "one", (1,) + self._pad + (1,))

    def __setattr__(self, *a):
        raise AttributeError("NumberField is immutable")

    def __repr__(self):
        return f"NumberField({self.modulus!r})"

    # -- element construction and coordinates

    def from_rat(self, c) -> tuple:
        return (c.numerator,) + self._pad + (c.denominator,)

    from_int = from_rat

    def gen(self) -> tuple:
        """The class of x, i.e. the distinguished root of the modulus."""
        if self.degree == 1:
            # x = -M[0] is rational.
            return self.from_rat(-self.modulus.coeff(0))
        return (0, 1) + self._pad[1:] + (1,)

    @staticmethod
    def coords(a) -> list[Fraction]:
        """The rational coordinates of a, low to high."""
        den = a[-1]
        return [Fraction(c, den) for c in a[:-1]]

    def from_unipoly(self, u: UniPoly) -> tuple:
        """The class of u: the stored form of u mod M, padded to deg M
        coordinates, is already canonical (den > 0, gcd 1)."""
        r = u % self.modulus
        return r.num + (0,) * (self.degree - len(r.num)) + (r.den,)

    # -- arithmetic

    def add(self, a, b) -> tuple:
        return _combine(a, b, 1)

    def sub(self, a, b) -> tuple:
        return _combine(a, b, -1)

    def neg(self, a) -> tuple:
        return tuple([-x for x in a[:-1]]) + a[-1:]

    def scale(self, a, c) -> tuple:
        """c a for a rational c."""
        num = c.numerator
        if not num:
            return self.zero
        v = [x * num for x in a]
        v[-1] = a[-1] * c.denominator
        return _canonical(v)

    def mul(self, a, b) -> tuple:
        n = self.degree
        raw = [0] * (2 * n - 1)
        for i in range(n):
            x = a[i]
            if x:
                for j in range(n):
                    y = b[j]
                    if y:
                        raw[i + j] += x * y
        den = a[n] * b[n]
        # reduce mod M: x^k = -x^(k-n) D (M - x^n) / D, each step scaled by
        # the least factor of D that keeps the numerators integral
        red, D = self._red, self._red_den
        for k in range(2 * n - 2, n - 1, -1):
            c = raw.pop()
            if c:
                if D != 1:
                    g = math.gcd(c, D)
                    if g != D:
                        s = D // g
                        raw = [r * s for r in raw]
                        den *= s
                    c //= g
                base = k - n
                for i, m in enumerate(red):
                    if m:
                        raw[base + i] -= c * m
        raw.append(den)
        return _canonical(raw)

    def inv(self, a) -> tuple:
        """Inverse by fraction-free (Bareiss) elimination on the matrix of
        multiplication by a, whose columns are a x^j; raises DomainError
        when it is singular (a shares a factor with M, then reducible)."""
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in a number field")
        n = self.degree
        x = self.gen()
        cols = [a]
        for _ in range(n - 1):
            cols.append(self.mul(cols[-1], x))
        # sum_j w_j num(a x^j) = 1 with w_j = v_j / den(a x^j), v the answer
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
        sol = _solve_bareiss(rows)
        if sol is None:
            raise DomainError("a non-zero element is not invertible: the modulus is reducible")
        y, det = sol
        v = [yj * col[n] for yj, col in zip(y, cols)]
        if det < 0:
            v, det = [-c for c in v], -det
        v.append(det)
        return _canonical(v)


def _solve_bareiss(rows: list[list[int]]) -> tuple[list[int], int] | None:
    """(y, d) with A (y / d) = b for the n x (n + 1) integer matrix [A | b],
    A nonsingular: Bareiss's fraction-free elimination, whose last pivot d
    is det A up to sign, then back substitution, in which every division
    is exact because d A^-1 is integral.  Changes rows in place; None when
    A is singular."""
    n = len(rows)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        rk = rows[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            c = ri[k]
            rows[i] = ri[:k + 1] + [(pk * ri[j] - c * rk[j]) // prev for j in range(k + 1, n + 1)]
        prev = pk
    d = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        t = d * ri[n] - sum(ri[j] * y[j] for j in range(i + 1, n))
        y[i] = t // ri[i]
    return y, d


def _combine(a, b, sign: int) -> tuple:
    """a + sign b over the lcm of the two denominators."""
    da, db = a[-1], b[-1]
    g = math.gcd(da, db)
    sa, sb = db // g, sign * (da // g)
    v = [x * sa + y * sb for x, y in zip(a, b)]
    v[-1] = da * sa
    return _canonical(v)


def _canonical(v: list[int]) -> tuple:
    """v, numerators then a positive denominator, as the canonical element:
    every entry divided by their gcd."""
    g = math.gcd(*v)
    if g != 1:
        v = [c // g for c in v]
    return tuple(v)


# ---------------------------------------------------------------------------
# polynomials over a number field


def nf_from_unipoly(K, u: UniPoly) -> list:
    return dense.trim(K, [K.from_rat(u.coeff(i)) for i in range(u.degree + 1)])


def nf_poly_key(K, f):
    """Deterministic sort key: (degree, flattened rational coefficients)."""
    flat = []
    for el in f:
        for c in K.coords(el):
            flat.append((c.numerator, c.denominator))
    return (len(f), tuple(flat))


# ---------------------------------------------------------------------------
# factorization over Q: squarefree + Zassenhaus


def _to_int_monic(g: UniPoly) -> tuple[int, list[int]]:
    """Rescale monic g over Q to a monic integer polynomial: returns
    (D, coeffs of D^n g(x/D)); roots scale by D.  D is the least positive
    integer with D^i a_(n-i) integral for every i: for each prime q of the
    denominators, q enters D to the largest ceil(v_q(den a_(n-i)) / i)."""
    n = g.degree
    if n < 0 or g.lc != 1:
        raise DomainError("integral rescaling needs a monic polynomial")
    dens = [g.coeff(n - i).denominator for i in range(1, n + 1)]
    D = 1
    for q in factor_int(math.lcm(*dens)):
        D *= q ** max(-(-_valuation(den, q) // i) for i, den in enumerate(dens, 1))
    out = [g.coeff(j) * D ** (n - j) for j in range(n + 1)]
    if any(c.denominator != 1 for c in out):
        raise DomainError(f"rescaling by {D} leaves a non-integral coefficient")
    return D, [c.numerator for c in out]


def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def hensel_lift(W: Zp, f: list[int], factors: list[list[int]]) -> list[list[int]]:
    """Monic lifts over W = Zp(p, N) of a factorization of the monic f mod p
    into monic, pairwise coprime factors over F_p, in input order.

    A factor tree (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 15): split the factors into two halves, lift that pair with
    quadratic Hensel steps at precision p^2, p^4, ..., p^N, and recurse
    into each half.  Raises DomainError when the factors do not multiply
    to f mod p or two of them share a root, and PrecisionExhausted when a
    lifted pair does not multiply back to its product over W."""
    rings = []
    k = 1
    while k < W.N:
        k = min(2 * k, W.N)
        rings.append(Zp(W.p, k))
    return _lift_tree(W, rings, f, factors)


def _lift_tree(W: Zp, rings, f, factors):
    if len(factors) == 1:
        return [f]
    F = W.res
    half = len(factors) // 2
    a, b = [1], [1]
    for g in factors[:half]:
        a = dense.mul(F, a, g)
    for g in factors[half:]:
        b = dense.mul(F, b, g)
    if dense.mul(F, a, b) != dense.trim(F, [c % W.p for c in f]):
        raise DomainError("Hensel factors do not multiply to f mod p")
    s, t = dense.ext_gcd(F, a, b)
    g, h = _lift_pair(rings, f, a, b, s, t)
    if dense.sub(W, f, dense.mul(W, g, h)):
        raise PrecisionExhausted("Hensel product check failed")
    return _lift_tree(W, rings, g, factors[:half]) + _lift_tree(W, rings, h, factors[half:])


def _lift_pair(rings, f, g, h, s, t):
    """Quadratic Hensel steps (MCA Algorithm 15.10) from f = g*h and
    s*g + t*h = 1 mod p to f = g*h over the last ring, h monic; each ring
    in turn has at most twice the precision of the one before."""
    for i, R in enumerate(rings):
        e = dense.sub(R, [c % R.int_modulus for c in f], dense.mul(R, g, h))
        q, r = dense.quorem(R, dense.mul(R, s, e), h)
        g = dense.add(R, g, dense.add(R, dense.mul(R, t, e), dense.mul(R, q, g)))
        h = dense.add(R, h, r)
        if i + 1 < len(rings):
            # Bezout update for the next step
            b = dense.sub(R, dense.add(R, dense.mul(R, s, g), dense.mul(R, t, h)), [1])
            c, d = dense.quorem(R, dense.mul(R, s, b), h)
            s = dense.sub(R, s, d)
            t = dense.sub(R, dense.sub(R, t, dense.mul(R, t, b)), dense.mul(R, c, g))
    return g, h


def _zassenhaus_monic_int(g: list[int]) -> list[list[int]]:
    """Irreducible monic integer factors of a monic squarefree integer
    polynomial; NotSeparable when g is not squarefree."""
    n = len(g) - 1
    if n <= 1:
        return [list(g)]
    # The prime: among the first four that keep g squarefree, the first
    # with the fewest factors mod p (stop early at one).  A prime where g
    # mod p is not squarefree is rejected by gcd(g, g') mod p, before any
    # distinct-degree factorization (DDF).  The factor count is read off the
    # degree blocks as DDF yields them, and a candidate's DDF stops once its
    # running count reaches the best count so far: such a prime cannot be
    # picked.  The chosen prime's blocks are whole; they are split by
    # equal-degree splitting alone (`factor_over` given them), so no block
    # is factored twice.  The primes where g mod p is not squarefree divide
    # disc g, so once their product passes the Hadamard bound
    # ||g||^(n-1) (n ||g||)^n of that determinant, disc g = 0.
    norm2 = math.isqrt(sum(c * c for c in g)) + 1
    disc_bound = norm2 ** (n - 1) * (n * norm2) ** n
    best: tuple[int, int, list] | None = None
    tried, skipped, p = 0, 1, 2
    while tried < 4:
        p += 1
        while not is_prime(p):
            p += 1
        F = prime_field(p)
        gp = [c % p for c in g]
        if len(dense.gcd(F, gp, dense.deriv(F, gp))) > 1:
            skipped *= p
            if skipped > disc_bound:
                raise NotSeparable("Zassenhaus needs a squarefree polynomial")
            continue
        tried += 1
        blocks, count = [], 0
        for block, r in _ddf(F, gp):
            blocks.append((block, r, 1))
            count += (len(block) - 1) // r
            if best is not None and count >= best[1]:
                break
        else:
            best = (p, count, blocks)
            if count == 1:
                break
    p, count, blocks = best
    if count == 1:
        return [list(g)]
    facs = [f for f, _ in factor_over(prime_field(p), blocks)]
    # Landau-Mignotte: any monic factor has |coeff| <= 2^n * ||g||_2
    target = 2 * ((1 << n) * norm2) + 1
    k = 1
    while p**k < target:
        k += 1
    W = Zp(p, k)
    pk = W.int_modulus
    lifted = hensel_lift(W, [c % pk for c in g], facs)
    # subset recombination, smallest subsets first
    remaining = list(range(len(lifted)))
    gcur = list(g)
    out: list[list[int]] = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            h = [W.one]
            for i in combo:
                h = dense.mul(W, h, lifted[i])
            cand = [_sym(c, pk) for c in h]
            if gcur[0] != 0 and cand[0] != 0 and gcur[0] % cand[0] != 0:
                continue
            q, r = dense.quorem(dense.INTEGERS, gcur, cand)
            if not r:
                out.append(cand)
                gcur = q
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if len(gcur) > 1:
        out.append(gcur)
    prod = [1]
    for h in out:
        prod = dense.mul(dense.INTEGERS, prod, h)
    if prod != list(g):
        raise PrecisionExhausted("Zassenhaus recombination lost a factor")
    return out


def _factor_squarefree(g: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors over Q of a monic squarefree g, sorted
    deterministically: Zassenhaus on the integral rescaling of g, then
    the root scaling undone."""
    if g.degree == 1:
        return [g]
    den, gz = _to_int_monic(g)
    out = []
    for h in _zassenhaus_monic_int(gz):
        d = len(h) - 1
        out.append(UniPoly._of_int([c * den**i for i, c in enumerate(h)], den**d))
    out.sort(key=_rational_key)
    return out


def _rational_key(g: UniPoly):
    return (g.degree, tuple((c.numerator, c.denominator) for c in g.coeffs))


def factor_rational(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Complete factorization of f over Q: a list of (monic irreducible,
    multiplicity), sorted deterministically.  The leading coefficient is
    dropped; the product of factor^mult is the monic part of f.  The
    factors are those of the squarefree part of f, and each multiplicity
    is the number of times its factor divides f.monic() exactly."""
    if f.is_zero:
        raise DomainError("factorization of the zero polynomial")
    if f.degree == 0:
        return []
    rest = f.monic()
    out = []
    for g in _factor_squarefree(squarefree_part(f)):
        mult = 0
        while (qr := divmod(rest, g))[1].is_zero:
            rest, mult = qr[0], mult + 1
        out.append((g, mult))
    return out


def is_irreducible_rational(f: UniPoly) -> bool:
    if f.degree < 1:
        return False
    fac = factor_rational(f)
    return len(fac) == 1 and fac[0][1] == 1


# ---------------------------------------------------------------------------
# norms as resultants


def _norm_poly(K: NumberField, h: list, s: int) -> UniPoly:
    """N(z) = Res_x(M(x), H(z, x)) for the modulus M: the norm from K to Q
    of g(z) = h(z - s*theta), one `dense.shift`, whose coefficients'
    coordinates are the rows of H, of x-degree < deg(M).  M is monic, so
    the resultant is prod_k H(z, alpha_k) over the roots alpha_k of M and
    depends on H mod M alone.  H is read as integer rows over one
    denominator L, and K keeps its modulus cleared, as a M for the least
    a > 0, so `_resultant_rows` computes Res_x(a M, L H) =
    a^deg_x(H) L^deg(M) N directly on them, from deg(M)*deg(h) + 1 integer
    points, the Sylvester bound plus one."""
    d = len(h) - 1
    if d < 1 or h[-1] != K.one:
        raise DomainError("the norm needs a monic h of degree >= 1")
    D = K.degree * d
    g = dense.shift(K, h, K.scale(K.gen(), -s))
    L = math.lcm(*(c[-1] for c in g))
    rows = [dense.trim(dense.INTEGERS, [L // c[-1] * c[j] for c in g]) for j in range(K.degree)]
    while not rows[-1]:
        rows.pop()
    a = K._red_den
    res = _resultant_rows([[c] if c else [] for c in K._red + (a,)], rows)
    den = a ** (len(rows) - 1) * L**K.degree
    N = UniPoly._of_int(res, den)
    if N.degree != D or N.lc != 1:
        raise DomainError(f"the norm has degree {N.degree}, not {D}, or is not monic")
    return N


def _squarefree_norm(K: NumberField, h: list, first: int) -> tuple[int, UniPoly]:
    """The least shift s >= first for which the norm N of h(z - s theta) is
    squarefree, and that N.  In characteristic 0, N is squarefree exactly
    when disc N != 0, a subresultant over Z with no gcd over Q."""
    for s in itertools.count(first):
        N = _norm_poly(K, h, s)
        if discriminant(N) != 0:
            return s, N


# ---------------------------------------------------------------------------
# factorization over a number field (Trager)


def _trager_squarefree(K: NumberField, h: list) -> list[list]:
    """Irreducible monic factors of a squarefree monic h in K[y].

    With N(z) the norm of h(z - s theta) squarefree, each irreducible
    factor N_i of N gives the factor gcd(h, N_i(y + s theta)) of h, of
    degree deg N_i / [K : Q] (Trager).  The gcds run on what is left of h,
    and the last factor is that rest, by exact division."""
    d = len(h) - 1
    if d == 1:
        return [h]
    s, N = _squarefree_norm(K, h, 0)
    factors_q = _factor_squarefree(N)
    if len(factors_q) == 1:
        return [h]
    out = []
    rest = h
    stheta = K.scale(K.gen(), s)
    for hq in factors_q[:-1]:
        g = dense.gcd(K, rest, dense.shift(K, nf_from_unipoly(K, hq), stheta))
        rest, r = dense.quorem(K, rest, g)
        if r:
            raise DomainError("a gcd with h does not divide h")
        out.append(g)
    out.append(rest)
    for g, hq in zip(out, factors_q):
        if (len(g) - 1) * K.degree != hq.degree:
            raise DomainError(
                f"a factor of degree {len(g) - 1} does not match its norm "
                f"factor of degree {hq.degree}"
            )
    return out


def factor_nf(K: NumberField, f: list) -> list[tuple[list, int]]:
    """Complete factorization in K[y]: [(monic irreducible, multiplicity)],
    sorted deterministically.  The leading coefficient is dropped."""
    f = dense.trim(K, list(f))
    if not f:
        raise DomainError("factorization of the zero polynomial")
    if len(f) == 1:
        return []
    fm = dense.monic(K, f)
    out = [(g, i) for a, i in dense.squarefree(K, fm) for g in _trager_squarefree(K, a)]
    out.sort(key=lambda t: nf_poly_key(K, t[0]))
    if sum((len(g) - 1) * m for g, m in out) != len(fm) - 1:
        raise DomainError("factor degrees do not add up to the degree of f")
    return out


# ---------------------------------------------------------------------------
# adjoining a root: flattened absolute extension with embedding


@dataclass(frozen=True)
class Adjunction:
    """K(beta) for rho(beta) = 0, flattened to the absolute field `field`.
    `theta` is the image of K's generator, `root` the image of beta;
    embed() maps K-elements in."""

    field: NumberField
    theta: tuple
    root: tuple

    def embed(self, a: tuple) -> tuple:
        L = self.field
        return dense.evaluate(L, [L.from_rat(c) for c in NumberField.coords(a)], self.theta)


def adjoin_root(K: NumberField, rho: list) -> Adjunction:
    """A field containing K and a root of rho, for rho monic irreducible
    in K[y].  Degree-1 rho stays inside K.  The new modulus is a squarefree
    norm, hence irreducible by Trager's lemma (rho irreducible over K and
    its norm squarefree imply the norm is irreducible over Q)."""
    rho = dense.trim(K, list(rho))
    d = len(rho) - 1
    if d < 1:
        raise DomainError("adjoin_root needs degree >= 1")
    if rho[-1] != K.one:
        raise DomainError("adjoin_root needs a monic rho")
    if d == 1:
        return Adjunction(field=K, theta=K.gen(), root=K.neg(rho[0]))
    if K.degree == 1:
        a = K.coords(K.gen())[0]
        M = UniPoly([K.coords(c)[0] for c in rho])
        L = NumberField(M)
        return Adjunction(field=L, theta=L.from_rat(a), root=L.gen())
    c, N = _squarefree_norm(K, rho, 1)
    L = NumberField(N)
    gamma = L.gen()
    # theta inside L: the unique common root of M(x) and
    # T(x) = sum_i rho_i(x) (gamma - c x)^i; squarefreeness of the norm
    # makes it unique, so the gcd is linear.
    lin = [gamma, L.from_rat(-c)]
    T: list = []
    for coeff in reversed(rho):
        T = dense.add(L, dense.mul(L, T, lin), nf_from_unipoly(L, UniPoly(K.coords(coeff))))
    ML = nf_from_unipoly(L, K.modulus)
    g = dense.gcd(L, ML, T)
    if len(g) != 2:
        raise DomainError("the modulus and its transform must share exactly one root")
    theta = L.neg(g[0])
    root = L.sub(gamma, L.scale(theta, c))
    return Adjunction(field=L, theta=theta, root=root)


# ---------------------------------------------------------------------------
# relative minimal polynomials by linear algebra


def relative_min_poly(
    L: NumberField, tau: tuple, el: tuple, base_degree: int
) -> list[UniPoly]:
    """Minimal polynomial of el over the subfield Q(tau) of L, where tau
    generates a subfield of degree base_degree over Q and el generates L
    over it.  Returned as monic coefficient polynomials in tau (each a
    UniPoly over Q of degree < base_degree, low to high Z-degree).

    With d = [L : Q] / base_degree, the tau^a el^b (a < base_degree,
    b < d) are a basis of L over Q, and the coordinates of -el^d in that
    basis are the coefficients: one square system, solved by Bareiss
    elimination as in `inv`.  DomainError when it is singular, that is
    when el does not generate L over Q(tau)."""
    nL = L.degree
    if nL % base_degree != 0:
        raise DomainError("subfield degree must divide the field degree")
    d = nL // base_degree
    tau_pows = [L.one]
    for _ in range(base_degree - 1):
        tau_pows.append(L.mul(tau_pows[-1], tau))
    cols = []
    el_pow = L.one
    for _ in range(d):
        cols.extend(L.mul(t, el_pow) for t in tau_pows)
        el_pow = L.mul(el_pow, el)
    # sum_j w_j num(col_j) / den(col_j) = -num(el^d) / den(el^d) with
    # w_j = y_j den(col_j) / (det den(el^d)), y / det the integer solution
    rows = [[col[i] for col in cols] + [-el_pow[i]] for i in range(nL)]
    sol = _solve_bareiss(rows)
    if sol is None:
        raise DomainError("the element does not generate the field over the subfield")
    y, det = sol
    den = det * el_pow[nL]
    x = [Fraction(yj * col[nL], den) for yj, col in zip(y, cols)]
    return [
        UniPoly(x[b * base_degree:(b + 1) * base_degree]) for b in range(d)
    ] + [UniPoly.const(1)]
