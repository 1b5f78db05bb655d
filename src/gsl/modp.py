"""Residue rings of Z_p, and factorization over finite fields.

Two residue rings serve every layer; polynomials over them are `dense`
lists:

  * `Zp(p, N)`, Z/p^N with int elements.  F_p is Zp(p, 1), which
    `prime_field(p)` builds, after testing p for primality, once per
    prime.  Its `int_modulus` puts F_p and Z/p^N polynomials on the int
    path of `dense`: plain int lists, reduced once per coefficient.
  * `Zq(W, chi)`, the unramified extension W[x]/(chi) of either ring W,
    with tuples of W elements, for a monic chi of degree d >= 2 whose
    residue is irreducible over W.res.  F_{p^d} is Zq(F_p, chi); over a
    Zq it builds a tower, one storey per extension.

Both carry the p-adic members the oracle reads (`res`, `residue`, `val`,
`shift_down`), and `nfield` lifts over Zp.  The functions over F_p
(`factor_mod_p`, `roots_mod_p`, `frobenius_data`) take a `UniPoly`,
reduce it with `reduce_unipoly` and return plain trimmed int lists.

Every layer reads a cover at a prime through the same three pieces:
`prime_field(p)` is the one primality gate (it raises DomainError "{p}
is not prime"), `Zp.from_rat` the one reduction of a rational mod p^N
(`reduce_unipoly`, the residues of `specialize` and the square classes
of `padic` go through it; the oracle itself reduces the integer model
that `padic._prepare` returns), and `exact._int_val` the one integer
valuation loop (`Zp.val`, `Zq.val`, `exact._valuation`, every
multiplicity of `specialize.meetings` and the oracle's integral model).
A branch residue field is read at p by one table,
`covers.frobenius_orders`, asked once per (branch, p): at each root of
the locus mod p, the Frobenius order read off one degree block, the
degree r of the one block (., r, 1) of the reduced relative minimal
polynomial, for the predictions and the obstruction search alike.

Factorization runs in three steps (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 14): squarefree decomposition (`dense.squarefree`,
the one for every field), distinct-degree factorization (DDF) and
equal-degree splitting (EDF).  The first two give `degree_blocks`: for
each multiplicity m and degree r, the product of the irreducible factors
of degree r and multiplicity m.  That answers every question about the
degrees of the factors: a cycle type (`frobenius_data`, a sorted tuple)
and the (e, f) of a simple factor in the p-adic oracle.  DDF (`_ddf`)
yields each block as it finds it, degree by degree, so the Zassenhaus
prime search of `nfield` reads a candidate's factor count off the blocks
found so far and stops once the prime cannot win; it tests each prime
for squarefreeness by gcd(g, g') mod p first.  EDF runs in one place:
`factor_over` splits the blocks it is handed.  `factor_mod_p` hands it
every block of `degree_blocks`, `roots_over` the degree-one blocks, the
oracle its repeated residual blocks and the Zassenhaus search its chosen
prime's blocks, so no block is factored twice.

Equal-degree splitting draws its candidates at random over every field,
from a PRNG seeded by the GSL_SEED environment variable (fixed default
otherwise).  Results are sorted, so they never depend on the seed; the seed
only makes each run's work reproducible.
"""

from __future__ import annotations

import functools
import os
import random
from typing import Optional, Sequence

from . import dense
from .errors import DomainError, NotSeparable
from .exact import Rat, UniPoly, _int_val, is_prime

_DEFAULT_SEED = 0x5EED


def seed_from_env() -> int:
    """The GSL_SEED environment variable as an integer in any Python
    literal base (0x5EED, 24301, ...); the default when it is unset or
    empty."""
    env = os.environ.get("GSL_SEED")
    if not env:
        return _DEFAULT_SEED
    try:
        return int(env, 0)
    except ValueError:
        raise DomainError(f"GSL_SEED={env!r} is not an integer") from None


# ---------------------------------------------------------------------------
# residue rings


class Zp:
    """Z/p^N with int elements in [0, p^N): F_p when N = 1 (`prime_field`
    builds it once per prime), the ring of the Hensel lift over Q
    (`nfield`) and the oracle's base ring (`padic`) when N > 1.  Its
    `int_modulus` p^N puts its polynomials on the int path of `dense`:
    plain int lists, reduced once per coefficient.  `res` is the residue
    field F_p, the ring itself when N = 1, and `q = p` its size."""

    __slots__ = ("p", "N", "q", "int_modulus", "res")

    zero, one = 0, 1

    def __init__(self, p: int, N: int = 1):
        self.p = self.q = p
        self.N = N
        self.int_modulus = p**N
        self.res = self if N == 1 else prime_field(p)

    def add(self, a, b):
        return (a + b) % self.int_modulus

    def sub(self, a, b):
        return (a - b) % self.int_modulus

    def mul(self, a, b):
        return a * b % self.int_modulus

    def neg(self, a):
        return -a % self.int_modulus

    def is_zero(self, a):
        return a % self.int_modulus == 0

    def from_int(self, n: int):
        return n % self.int_modulus

    def from_rat(self, c: Rat):
        """c mod p^N for a p-integral rational (or int): the one reduction
        of Q into a residue ring."""
        if c.denominator % self.p == 0:
            raise DomainError("element is not p-integral")
        return c.numerator * pow(c.denominator, -1, self.int_modulus) % self.int_modulus

    def inv(self, a):
        """Inverse of a unit (a prime to p)."""
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of a non-unit")
        return pow(a, -1, self.int_modulus)

    def element_by_index(self, i: int):
        return i % self.p

    def residue(self, a):
        return a % self.p

    def val(self, a) -> Optional[int]:
        """v_p(a); None when a = 0 mod p^N (v >= N)."""
        return _int_val(a, self.p) if a else None

    def shift_down(self, a, k: int):
        """a / p^k, requiring exact divisibility."""
        q, r = divmod(a, self.p**k)
        if r:
            raise DomainError(f"inexact division by {self.p}^{k}")
        return q

    def __repr__(self):
        return f"F_{self.p}" if self.N == 1 else f"Zp(p={self.p}, N={self.N})"


@functools.lru_cache(maxsize=256)
def prime_field(p: int) -> Zp:
    """F_p = Zp(p, 1), for the last few hundred primes asked for: p is
    tested for primality once per prime, not once per use.  This is the
    package's one primality gate: a composite p raises DomainError("{p}
    is not prime") on every call (errors are not cached)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return Zp(p)


class Zq:
    """The unramified extension W[x]/(chi) of a residue ring W, a `Zp` or
    a `Zq`, for a monic chi of degree d >= 2 over W whose residue is
    irreducible over W.res: F_{p^k} when W is a field (N = 1), the
    oracle's unramified extensions when N > 1, each built over the ring it
    starts from.  Elements are tuples of d elements of W, the coefficients
    of 1, x, ..., x^(d-1); `embed` makes the constants.  p and N are
    W's, `q = W.q^d` is the size of the residue field `res` = Zq(W.res,
    chi mod p), the ring itself when N = 1.  Every operation goes through
    W, coordinate by coordinate or, for products, through `dense.mulmod`
    over W (one int loop when W is a `Zp`)."""

    __slots__ = ("base", "p", "N", "d", "q", "Phi", "res", "zero", "one")

    def __init__(self, W, chi: Sequence):
        self.base = W
        self.p, self.N = W.p, W.N
        self.Phi = [W.add(W.zero, c) for c in chi]  # reduced
        self.d = len(chi) - 1
        if self.d < 2 or self.Phi[-1] != W.one:
            raise DomainError("an unramified extension needs a monic modulus of degree >= 2")
        self.q = W.q**self.d
        self.res = self if W.N == 1 else Zq(W.res, [W.residue(c) for c in chi])
        self.zero = (W.zero,) * self.d
        self.one = (W.one,) + self.zero[1:]

    def add(self, a, b):
        return tuple(map(self.base.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.base.sub, a, b))

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    def mul(self, a, b):
        """a b as polynomials in x over W, reduced by Phi (`dense.mulmod`:
        one int loop when W is a `Zp`)."""
        c = dense.mulmod(self.base, a, b, self.Phi)
        return tuple(c) + self.zero[len(c):]

    def is_zero(self, a):
        return all(map(self.base.is_zero, a))

    def embed(self, c):
        """The constant c of W."""
        return (c,) + self.zero[1:]

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def inv(self, a):
        """Inverse of a unit: the residue inverted by ext_gcd over W.res,
        then Newton steps x <- x (2 - a x), each doubling the correct
        digits (none when N = 1).  The coefficients of the residue inverse
        lie in W.res, so they are elements of W already."""
        F = self.base.res
        r = dense.trim(F, list(self.residue(a)))
        if not r:
            raise ZeroDivisionError("inverse of a non-unit")
        _, t = dense.ext_gcd(F, self.res.Phi, r)
        x = tuple(t) + self.zero[len(t):]
        two = self.from_int(2)
        k = 1
        while k < self.N:
            x = self.mul(x, self.sub(two, self.mul(a, x)))
            k *= 2
        return x

    def element_by_index(self, i: int):
        W = self.base
        digits = []
        for _ in range(self.d):
            digits.append(W.element_by_index(i % W.q))
            i //= W.q
        return tuple(digits)

    def residue(self, a):
        return tuple(map(self.base.residue, a))

    def val(self, a) -> Optional[int]:
        """The least valuation of a coordinate; None when a = 0 mod p^N
        (v >= N).  This is the valuation of a, because 1, x, ..., x^(d-1)
        is a basis over W with unit discriminant."""
        return min((v for v in map(self.base.val, a) if v is not None), default=None)

    def shift_down(self, a, k: int):
        """a / p^k, requiring exact divisibility of every coordinate."""
        return tuple(self.base.shift_down(c, k) for c in a)

    def __repr__(self):
        if self.N == 1:
            return f"F_{self.p}^{_int_val(self.q, self.p)}"
        return f"Zq({self.base!r}, d={self.d})"


# ---------------------------------------------------------------------------
# factorization over F (squarefree / distinct-degree / equal-degree)


def _ddf(F, f):
    """Distinct-degree factorization of a squarefree monic f: yields each
    (product-of-degree-r-factors, r) as it is found, r ascending, so a
    caller that needs only a share of the blocks (the Zassenhaus prime
    search) stops the work there."""
    h = [F.zero, F.one]  # x
    v = list(f)
    r = 0
    while len(v) - 1 >= 2 * (r + 1):
        r += 1
        h = dense.powmod(F, h, F.q, v)
        g = dense.gcd(F, dense.sub(F, h, [F.zero, F.one]), v)
        if len(g) > 1:
            yield g, r
            v = dense.quorem(F, v, g)[0]
            h = dense.rem(F, h, v)
    if len(v) > 1:
        yield v, len(v) - 1


def _edf(F, f, d):
    """Split a squarefree monic f, all of whose irreducible factors have
    degree d, into those factors (Cantor-Zassenhaus, von zur Gathen &
    Gerhard, Modern Computer Algebra, Alg. 14.8).

    Each try draws a nonconstant u of degree < 2d, every coefficient (the
    leading one too: x + c cannot separate roots whose difference has trace
    0 in characteristic 2) from all of F, so a constant share of tries
    splits however small F is.  The PRNG is seeded by `seed_from_env()` for
    each call, so a factorization does not depend on call order."""
    n = len(f) - 1
    if n == d:
        return [list(f)]
    q = F.q
    rng = random.Random(seed_from_env())
    factors = []
    work = [list(f)]
    while work:
        g = work.pop()
        if len(g) - 1 == d:
            factors.append(g)
            continue
        while True:
            u = [F.element_by_index(rng.randrange(q)) for _ in range(2 * d)]
            u = dense.trim(F, u)
            if len(u) < 2:
                continue
            if F.p == 2:
                # trace splitting: v = u + u^2 + u^4 + ... (k*d terms, q=2^k)
                k = d * (q.bit_length() - 1)
                v = dense.rem(F, u, g)
                acc = list(v)
                for _ in range(k - 1):
                    v = dense.rem(F, dense.mul(F, v, v), g)
                    acc = dense.add(F, acc, v)
                h = dense.gcd(F, acc, g)
            else:
                e = (q**d - 1) // 2
                v = dense.powmod(F, u, e, g)
                h = dense.gcd(F, dense.sub(F, v, [F.one]), g)
            if 0 < len(h) - 1 < len(g) - 1:
                work.append(h)
                work.append(dense.quorem(F, g, h)[0])
                break
    return factors


def degree_blocks(F, f) -> list[tuple[list, int, int]]:
    """[(block, r, mult)] for a nonzero f over the finite field F: the
    squarefree decomposition of monic(f), each part split by distinct-degree
    factorization.  A block is the product of the monic irreducible factors
    of f that have degree r and multiplicity mult, so there are
    deg(block) / r of them and prod block^mult = monic(f).  The factors
    themselves are not split apart (no EDF).  A linear f is its own
    block."""
    f = dense.trim(F, list(f))
    if not f:
        raise DomainError("factorization of the zero polynomial")
    if len(f) == 2:
        return [(dense.monic(F, f), 1, 1)]
    return [
        (block, r, mult)
        for g, mult in dense.squarefree(F, dense.monic(F, f))
        for block, r in _ddf(F, g)
    ]


def factor_over(F, blocks) -> list[tuple[list, int]]:
    """The second stage of factoring over the finite field F: the first,
    `degree_blocks(F, f)`, gives the distinct-degree blocks, and this
    splits each block it is handed (all of them or a share) by EDF.
    [(monic irreducible, multiplicity)], sorted by degree then
    coefficient index tuple."""
    out = [(irr, mult) for block, r, mult in blocks for irr in _edf(F, block, r)]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def roots_over(F, f) -> list:
    """Distinct roots of f in F, sorted: the linear factors that
    `factor_over` splits out of the degree-one blocks of `degree_blocks`."""
    f = dense.trim(F, list(f))
    if not f:
        raise DomainError("roots of the zero polynomial")
    blocks = [b for b in degree_blocks(F, f) if b[1] == 1]
    return sorted(F.neg(g[0]) for g, _ in factor_over(F, blocks))


def reduce_unipoly(f: UniPoly, p: int) -> list[int]:
    """Coefficients of f mod p; errors when a denominator is divisible by p
    (the reduction would not be defined)."""
    F = prime_field(p)
    return dense.trim(F, [F.from_rat(c) for c in f.coeffs])


def factor_mod_p(f: UniPoly, p: int) -> list[tuple[list[int], int]]:
    """Full factorization of f mod p (p = 2 allowed): list of
    (monic irreducible int list, multiplicity), sorted by degree then
    lexicographic coefficient order.  Errors on the zero polynomial and on
    composite p."""
    coeffs = reduce_unipoly(f, p)
    if not coeffs:
        raise DomainError("factorization of the zero polynomial mod p")
    F = prime_field(p)
    return factor_over(F, degree_blocks(F, coeffs))


def frobenius_data(f: UniPoly, p: int) -> tuple[int, ...]:
    """The cycle type of Frobenius at p acting on the roots of f: the
    sorted degrees of the irreducible factors of f mod p, read off
    `degree_blocks` (no equal-degree splitting).  Its order is their lcm.

    Requires p to preserve the degree of f and f mod p to be squarefree of
    degree >= 1 (for monic integral f: p does not divide disc(f)); raises
    DomainError (degree drop, zero polynomial) or NotSeparable (a repeated
    factor, a constant) otherwise.
    """
    coeffs = reduce_unipoly(f, p)
    if len(coeffs) - 1 != f.degree:
        raise DomainError(f"degree of f drops mod {p} (p divides the leading coefficient)")
    blocks = degree_blocks(prime_field(p), coeffs)
    if len(coeffs) < 2 or any(mult > 1 for _, _, mult in blocks):
        raise NotSeparable(f"f mod {p} is not squarefree")
    parts = []
    for block, r, _ in blocks:
        parts.extend([r] * ((len(block) - 1) // r))
    return tuple(sorted(parts))


def roots_mod_p(f: UniPoly, p: int) -> list[int]:
    """Sorted distinct roots of f mod p in [0, p)."""
    coeffs = reduce_unipoly(f, p)
    if not coeffs:
        raise DomainError("roots of the zero polynomial mod p")
    return roots_over(prime_field(p), coeffs)


def reduce_relative(
    r: Sequence[UniPoly], m: UniPoly, place: tuple[int, int]
) -> list[int]:
    """Reduce a polynomial r(Z) with coefficients in Q[t]/(m) at the
    degree-one place (p, a), where a is a root of m mod p: substitute
    t -> a and reduce mod p.

    r is given as its coefficient sequence (each a UniPoly in t, ascending
    Z-degree); the result is a trimmed int list.  Errors when m(a) is not 0 mod p or a coefficient fails to
    be p-integral.
    """
    p, a = place
    F = prime_field(p)
    if dense.evaluate(F, reduce_unipoly(m, p), a % p) != 0:
        raise DomainError(f"{a} is not a root of the locus mod {p}")
    return dense.trim(F, [dense.evaluate(F, reduce_unipoly(c, p), a % p) for c in r])

