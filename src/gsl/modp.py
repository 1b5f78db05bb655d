"""Residue rings of Z_p, and factorization over finite fields.

Two residue rings serve every layer; polynomials over them are `dense`
lists:

  * `Zp(p, N)`, Z/p^N with int elements.  F_p is Zp(p, 1), which
    `prime_field(p)` builds, after testing p for primality, once per
    prime.  Its `int_modulus` puts F_p and Z/p^N polynomials on the int
    path of `dense`: plain int lists, reduced once per coefficient.
  * `Zq(p, N, chi)`, Z_p[x]/(chi) mod p^N with int tuple elements, for a
    monic chi that is irreducible of degree d >= 2 mod p.  F_{p^d} is
    Zq(p, 1, chi).

Both carry the p-adic members the oracle reads (`res`, `residue`, `val`,
`shift_down`), and `nfield` lifts over Zp.  The functions over F_p that
take a `UniPoly` or a sequence of ints return plain trimmed int lists.

Every layer reads a cover at a prime through the same three pieces:
`prime_field(p)` is the one primality gate (it raises DomainError "{p}
is not prime"), `Zp.from_rat` the one reduction of a rational mod p^N
(`reduce_unipoly` and the residues of `specialize` and `padic` go
through it), and `exact._int_val` the one integer valuation loop
(`Zp.val`, `Zq.val` and `exact._valuation`).  A branch residue field
is read at p by one question, the Frobenius order of `frobenius_data`,
for the predictions and the obstruction search alike.

Factorization runs in three steps (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 14): squarefree decomposition (`dense.squarefree`,
the one for every field), distinct-degree factorization (DDF) and
equal-degree splitting (EDF).  The first two give `degree_blocks`: for
each multiplicity m and degree r, the product of the irreducible factors
of degree r and multiplicity m.  That answers every question about the
degrees of the factors: a cycle type (`frobenius_data`, a sorted tuple),
the (e, f) of a simple factor in the p-adic oracle, irreducibility
(`find_irreducible`) and the Zassenhaus prime's factor count.  Only
`factor_over`, `roots_over` and their wrappers run EDF.  A caller that
already has the blocks (the oracle's repeated residual blocks, the
Zassenhaus prime's blocks) hands them to `factor_over`, which then runs
EDF alone, so no block is factored twice.

Equal-degree splitting draws its candidates at random over every field,
from a PRNG seeded by the GSL_SEED environment variable (fixed default
otherwise).  Results are sorted, so they never depend on the seed; the seed
only makes each run's work reproducible.
"""

from __future__ import annotations

import functools
import math
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
    `int_modulus` p^N makes `dense` multiply and divide its polynomials as
    plain int lists, reduced once per coefficient.  `res` is the residue
    field F_p, the ring itself when N = 1; `q = p` is its size and `d = 1`
    the degree of the ring over Z_p."""

    __slots__ = ("p", "N", "q", "int_modulus", "res")

    zero, one, d = 0, 1, 1

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
    """Z_q / p^N = Z_p[x]/(chi) truncated at p^N, for a monic chi of degree
    d >= 2 that is irreducible mod p (`Phi` is chi mod p^N): F_{p^d} when
    N = 1, the oracle's unramified extensions of Z_p when N > 1.  Elements
    are int tuples of length d, the coefficients of 1, x, ..., x^(d-1) mod
    p^N.  `res` is the residue field F_{p^d} = Zq(p, 1, chi), the ring
    itself when N = 1, and `q = p^d` its size."""

    __slots__ = ("p", "N", "d", "q", "pN", "Phi", "res", "zero", "one")

    def __init__(self, p: int, N: int, chi: Sequence[int]):
        self.p = p
        self.N = N
        self.pN = p**N
        self.Phi = [c % self.pN for c in chi]
        self.d = len(chi) - 1
        if self.Phi[-1] != 1 or self.d < 2:
            raise DomainError("an unramified extension needs a monic modulus of degree >= 2")
        self.q = p**self.d
        self.res = self if N == 1 else Zq(p, 1, chi)
        self.zero = (0,) * self.d
        self.one = (1,) + self.zero[1:]

    def add(self, a, b):
        pN = self.pN
        return tuple((x + y) % pN for x, y in zip(a, b))

    def sub(self, a, b):
        pN = self.pN
        return tuple((x - y) % pN for x, y in zip(a, b))

    def neg(self, a):
        pN = self.pN
        return tuple(-x % pN for x in a)

    def mul(self, a, b):
        """a b as polynomials in x, reduced by Phi and mod p^N once per
        coefficient."""
        d, Phi, pN = self.d, self.Phi, self.pN
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k] % pN
            if c:
                for j in range(d):
                    out[k - d + j] -= c * Phi[j]
        return tuple(c % pN for c in out[:d])

    def is_zero(self, a):
        return not any(a)

    def from_int(self, n: int):
        return (n % self.pN,) + self.zero[1:]

    def inv(self, a):
        """Inverse of a unit: the residue inverted by ext_gcd over F_p, then
        Newton steps x <- x (2 - a x), each doubling the correct digits
        (none when N = 1)."""
        F = prime_field(self.p)
        r = dense.trim(F, [c % self.p for c in a])
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
        digits = []
        for _ in range(self.d):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def residue(self, a):
        return tuple(c % self.p for c in a)

    def val(self, a) -> Optional[int]:
        """The least valuation of a coordinate; None when a = 0 mod p^N
        (v >= N).  This is the valuation of a, because 1, x, ..., x^(d-1)
        is a basis of Z_q with unit discriminant."""
        return min((_int_val(c, self.p) for c in a if c), default=None)

    def shift_down(self, a, k: int):
        """a / p^k, requiring exact divisibility of every coordinate."""
        pk = self.p**k
        if any(c % pk for c in a):
            raise DomainError(f"inexact division by {self.p}^{k}")
        return tuple(c // pk for c in a)

    def __repr__(self):
        if self.N == 1:
            return f"F_{self.p}^{self.d}"
        return f"Zq(p={self.p}, d={self.d}, N={self.N})"


# ---------------------------------------------------------------------------
# factorization over F (squarefree / distinct-degree / equal-degree)


def _ddf(F, f):
    """Distinct-degree factorization of a squarefree monic f:
    [(product-of-degree-r-factors, r)]."""
    out = []
    h = [F.zero, F.one]  # x
    v = list(f)
    r = 0
    while len(v) - 1 >= 2 * (r + 1):
        r += 1
        h = dense.powmod(F, h, F.q, v)
        g = dense.gcd(F, dense.sub(F, h, [F.zero, F.one]), v)
        if len(g) > 1:
            out.append((g, r))
            v = dense.quorem(F, v, g)[0]
            h = dense.rem(F, h, v)
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


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
                k = d * int(math.log2(q))
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


def factor_over(F, f, blocks=None) -> list[tuple[list, int]]:
    """Full factorization of a nonzero polynomial over the finite field F:
    [(monic irreducible, multiplicity)], plus the unit is discarded.
    Sorted by degree then coefficient index tuple.  EDF on each of
    `degree_blocks(F, f)`, or of `blocks` when the caller has computed
    them already."""
    if blocks is None:
        blocks = degree_blocks(F, f)
    out = [(irr, mult) for block, r, mult in blocks for irr in _edf(F, block, r)]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def roots_over(F, f) -> list:
    """Distinct roots of f in F.

    gcd(x^q - x, f) is squarefree and splits into exactly the linear
    factors of f, so one equal-degree split finishes the job.
    """
    f = dense.trim(F, list(f))
    if not f:
        raise DomainError("roots of the zero polynomial")
    if len(f) == 1:
        return []
    xq = dense.powmod(F, [F.zero, F.one], F.q, f)
    lin = dense.gcd(F, dense.sub(F, xq, [F.zero, F.one]), f)
    return sorted(F.neg(g[0]) for g in _edf(F, lin, 1)) if len(lin) > 1 else []


def find_irreducible(F_p: Zp, degree: int) -> list[int]:
    """Deterministically find a monic irreducible of the given degree over
    F_p (ascending enumeration): the first candidate that is one degree
    block of that degree."""
    p = F_p.p
    if degree == 1:
        return [0, 1]
    count = p**degree
    for idx in range(count):
        coeffs = []
        i = idx
        for _ in range(degree):
            coeffs.append(i % p)
            i //= p
        f = coeffs + [1]
        if [(r, m) for _, r, m in degree_blocks(F_p, f)] == [(degree, 1)]:
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


def reduce_unipoly(f: UniPoly, p: int) -> list[int]:
    """Coefficients of f mod p; errors when a denominator is divisible by p
    (the reduction would not be defined)."""
    F = prime_field(p)
    return dense.trim(F, [F.from_rat(c) for c in f.coeffs])


def _reduce(f: UniPoly | Sequence[int], p: int) -> list[int]:
    """f mod p, for a UniPoly or a sequence of ints."""
    if isinstance(f, UniPoly):
        return reduce_unipoly(f, p)
    return dense.trim(prime_field(p), [c % p for c in f])


def factor_mod_p(f: UniPoly | Sequence[int], p: int) -> list[tuple[list[int], int]]:
    """Full factorization of f mod p (p = 2 allowed): list of
    (monic irreducible int list, multiplicity), sorted by degree then
    lexicographic coefficient order.  Errors on the zero polynomial and on
    composite p."""
    coeffs = _reduce(f, p)
    if not coeffs:
        raise DomainError("factorization of the zero polynomial mod p")
    return factor_over(prime_field(p), coeffs)


def frobenius_data(f: UniPoly | Sequence[int], p: int) -> tuple[int, ...]:
    """The cycle type of Frobenius at p acting on the roots of f: the
    sorted degrees of the irreducible factors of f mod p, read off
    `degree_blocks` (no equal-degree splitting).  Its order is their lcm.

    Requires p to preserve the degree of a UniPoly f and f mod p to be
    squarefree of degree >= 1 (for monic integral f: p does not divide
    disc(f)); raises DomainError (degree drop, zero polynomial) or
    NotSeparable (a repeated factor, a constant) otherwise.
    """
    coeffs = _reduce(f, p)
    if isinstance(f, UniPoly) and len(coeffs) - 1 != f.degree:
        raise DomainError(f"degree of f drops mod {p} (p divides the leading coefficient)")
    blocks = degree_blocks(prime_field(p), coeffs)
    if len(coeffs) < 2 or any(mult > 1 for _, _, mult in blocks):
        raise NotSeparable(f"f mod {p} is not squarefree")
    parts = []
    for block, r, _ in blocks:
        parts.extend([r] * ((len(block) - 1) // r))
    return tuple(sorted(parts))


def roots_mod_p(f: UniPoly | Sequence[int], p: int) -> list[int]:
    """Sorted distinct roots of f mod p in [0, p)."""
    coeffs = _reduce(f, p)
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

