"""Exact rational, univariate and bivariate polynomial arithmetic.

Conventions used throughout the package:

* rationals are `fractions.Fraction` (aliased `Rat`);
* a univariate polynomial over Q is stored as its integer form: a tuple
  of ints, ascending degree, with no trailing zeros, over one positive
  denominator, the least that makes them integral; the zero polynomial
  has an empty tuple, denominator 1 and degree -1;
* a bivariate polynomial P(T, Y) is stored as a tuple of such int rows,
  indexed by Y-degree, over one least denominator;
* JSON form of a `UniPoly` is a list of decimal strings (``"-82"``,
  ``"3/4"``), ascending degree; a `BiPoly` is a list of such lists;
* a result record (a frozen dataclass deriving `JsonRecord`) is a JSON
  object of its fields in declaration order, each value encoded by
  `_json_value`.

The integer form (ints over one denominator, as FLINT's fmpq_poly stores
them) is the only state of a `UniPoly` or `BiPoly`, canonical, so
equality and both hashes read it; a polynomial built from integers (a
specialization P(t0, Y), a resultant, the oracle's monic model) makes no
`Fraction` at all.  `UniPoly` arithmetic is the `dense` kernel's over
`dense.INTEGERS`, on those ints, with one gcd normalization per result
(`_of_int`): sums over the lcm of the two denominators, division by
pseudo-division (`_pquorem`), and the gcd by the primitive remainder
sequence (`_primitive`), so no ring operation makes a `Fraction`.
`_cleared`, evaluation, `resultant`, `discriminant` and `disc_y` read the
stored ints too.  The value of a `UniPoly` at a rational n/d, and P(n/d,
Y) for a `BiPoly` P (`BiPoly.at`), are computed by one homogeneous Horner
pass per integer row (`_horner`), with the Fractions made only at the
end.  The resultant of two `UniPoly` runs the subresultant PRS on their
integer forms, over Z, where every division is exact; the discriminant
runs it once on the integer form and its derivative.  The resultant of
two `BiPoly` (Res_Y, as in `disc_y` and the Trager norms of `nfield`) is
never computed over Q[T]: on integer rows the resultant lies in Z[T]; its
values at integer points T = t are subresultants over Z, and it is
recovered from as many of them as the degree bound needs by Newton
interpolation over Z (`dense.interpolate`), whose divisions are exact and
checked.  `_resultant_rows` is that loop on integer rows, which the
Trager norms build directly; the result is stored over the clearing's
denominator, and `disc_y` runs it on the integer rows of P and on their
Y-derivative.  No factorization over Q is exposed here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from . import dense
from .dense import INTEGERS
from .errors import DomainError

Rat = Fraction

# ---------------------------------------------------------------------------
# rationals


_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat_from_str(s: str) -> Rat:
    """Parse "n" or "n/d" (decimal digits, n with an optional minus sign,
    n/d not necessarily reduced) into a Rat.  Raises ValueError on any
    other string and ZeroDivisionError on d = 0."""
    if not _RAT.fullmatch(s):
        raise ValueError(f"{s!r} is not a rational string 'n' or 'n/d'")
    return Fraction(s)


def rat_to_str(x: Rat) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_JSON_SCALARS = (int, str, bool, type(None))


def _json_value(v):
    """The JSON form of one field value: None, bools, ints and strings as
    they are, a Fraction as its decimal string, a tuple as an array, a dict
    with its keys as strings, anything else by its own `to_json`."""
    if isinstance(v, _JSON_SCALARS):
        return v
    if isinstance(v, Fraction):
        return rat_to_str(v)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    return v.to_json()


class JsonRecord:
    """Base of the frozen result dataclasses: `to_json` is the object of the
    fields, in declaration order, each value by `_json_value`."""

    def to_json(self) -> dict:
        values = vars(self)
        return {name: _json_value(values[name]) for name in self.__dataclass_fields__}


def rational_valuation(x: Rat | int, p: int) -> int:
    """v_p(x) for a nonzero rational x and a prime p.

    Errors on x = 0 (the valuation would be +infinity) and on p composite.
    """
    if not is_prime(p):
        raise DomainError(f"modulus {p} is not prime")
    return _valuation(x, p)


def _valuation(x: Rat | int, p: int) -> int:
    """`rational_valuation` without the primality test, for callers that
    have validated p once at their own entry."""
    if x == 0:
        raise DomainError("valuation of 0 requested")
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


def _int_val(c: int, p: int) -> int:
    """v_p of a nonzero int: the one valuation loop of the package."""
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


_PSI_12 = 318665857834031151167461  # see is_prime


def is_prime(n: int) -> bool:
    """Primality of n.  Below psi_12 = 318665857834031151167461 the strong
    (Miller-Rabin) tests to the 12 prime bases 2, ..., 37 prove it
    (Sorenson & Webster, Math. Comp. 86 (2017)): no composite below psi_12
    passes them all.  From psi_12 on, a strong Lucas test is added, which
    makes the Baillie-PSW test: no composite is known to pass it, but that
    is not proven, so a large n it accepts is a probable prime."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for an odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of an odd n > 37 with no prime factor up to
    37, with Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D / n) = -1, P = 1, Q = (1 - D) / 4.  With n + 1 = d 2^s, n passes
    when U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.  A square n has no
    such D and is composite."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k, Q^k mod n from k = 1 along the bits of d (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def crt_combine(pairs: Sequence[tuple[int, int]]) -> int:
    """Least non-negative solution of x = r_i mod m_i for pairwise coprime
    moduli; pairs are (modulus, residue).  Errors when moduli share a factor.

    crt_combine([(9, 1), (25, 2)]) == 127
    """
    if not pairs:
        raise DomainError("empty congruence system")
    M, X = 1, 0
    for m, r in pairs:
        if m <= 0:
            raise DomainError(f"modulus {m} must be positive")
        g = math.gcd(M, m)
        if g != 1:
            raise DomainError(f"moduli not pairwise coprime (gcd {g})")
        # x = X mod M, x = r mod m  ->  x = X + M*k, k = (r-X)/M mod m
        k = (r - X) * pow(M, -1, m) % m
        X = X + M * k
        M *= m
    return X % M


def _pollard_brent(n: int) -> int:
    """A proper divisor of an odd composite n, by Brent's cycle variant of
    Pollard rho; deterministic (parameters scanned in fixed order)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise DomainError(f"failed to split {n}")  # unreachable in practice


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: multiplicity}; n must be
    non-zero.  Trial division for small primes, then Pollard-Brent."""
    if n == 0:
        raise DomainError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 10_000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# univariate polynomials over Q


class UniPoly:
    """Dense univariate polynomial over Q, immutable, stored as its integer
    form: `num`, the trimmed int coefficients (ascending), over `den`, the
    least positive integer that makes them integral, so gcd(den, *num) = 1
    (FLINT's fmpq_poly layout).  `coeffs`, `coeff(i)` and `lc` make their
    `Fraction`s on demand.  Arithmetic runs in the `dense` kernel over
    `dense.INTEGERS` on (num, den), and `_of_int` normalizes each result.
    Equality and the hash read (num, den), which is canonical, so they
    agree however the polynomial was built."""

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable = ()):
        return cls._of([Fraction(c) for c in coeffs])

    def __setattr__(self, *a):  # immutable
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):  # pickle through _of_int, not __setattr__
        return UniPoly._of_int, (self.num, self.den)

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([c])

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "UniPoly":
        return cls._of([rat_from_str(s) for s in data])

    def to_json(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

    @classmethod
    def _of(cls, cs) -> "UniPoly":
        """The polynomial of a list of Fractions, such as the kernel
        returns, brought over the lcm of their denominators."""
        a = math.lcm(*(c.denominator for c in cs))
        return cls._of_int([c.numerator * (a // c.denominator) for c in cs], a)

    @classmethod
    def _of_int(cls, B: Sequence[int], b: int) -> "UniPoly":
        """B / b for ints B (ascending, trailing zeros allowed) and b != 0,
        stored with B and b divided by their gcd, signed so that the
        denominator is positive; no `Fraction` is made."""
        B = list(B)
        while B and not B[-1]:
            B.pop()
        g = math.gcd(b, *B)
        if b < 0:
            g = -g
        if g != 1:
            B = [c // g for c in B]
            b //= g
        out = object.__new__(cls)
        object.__setattr__(out, "num", tuple(B))
        object.__setattr__(out, "den", b)
        return out

    # -- structure ---------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Rat, ...]:
        b = self.den
        return tuple(Fraction(c, b) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self) -> Rat:
        if self.is_zero:
            raise DomainError("leading coefficient of the zero polynomial")
        return Fraction(self.num[-1], self.den)

    def coeff(self, i: int) -> Rat:
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{rat_to_str(c)}*x^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"

    # -- arithmetic (the `dense` kernel over Z, on the stored ints) ----------
    def __add__(self, other: "UniPoly") -> "UniPoly":
        (A, B), a = _cleared(self, other)
        return UniPoly._of_int(dense.add(INTEGERS, A, B), a)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        (A, B), a = _cleared(self, other)
        return UniPoly._of_int(dense.sub(INTEGERS, A, B), a)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of_int(dense.mul(INTEGERS, self.num, other.num), self.den * other.den)

    def scale(self, c) -> "UniPoly":
        n, d = Fraction(c).as_integer_ratio()
        return UniPoly._of_int(dense.scale(INTEGERS, self.num, n), self.den * d)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """By pseudo-division of the stored ints: s A = Q B + R gives
        A / a = (b Q / (s a)) (B / b) + R / (s a)."""
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        Q, R, s = _pquorem(self.num, other.num)
        sa = s * self.den
        return UniPoly._of_int(dense.scale(INTEGERS, Q, other.den), sa), UniPoly._of_int(R, sa)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DomainError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise DomainError("monic normalization of the zero polynomial")
        return UniPoly._of_int(self.num, self.num[-1])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd, by the primitive remainder sequence of the stored
        ints; the zero polynomial when both are."""
        A, B = _primitive(self.num), _primitive(other.num)
        while B:
            A, B = B, _primitive(_pquorem(A, B)[1])
        return UniPoly._of_int(A, A[-1] if A else 1)

    def derivative(self) -> "UniPoly":
        return UniPoly._of_int(dense.deriv(INTEGERS, self.num), self.den)

    def __call__(self, x) -> Rat:
        """The value at a rational x = n/d, on the stored ints: d^deg
        num(x) by one `_horner` pass, over den d^deg, one `Fraction` in
        all."""
        n, d = Fraction(x).as_integer_ratio()
        acc, dk = _horner(self.num, n, d)
        return Fraction(acc * d, self.den * dk)  # dk = d^(deg + 1)


def _horner(A: Sequence[int], n: int, d: int, dk: int = 1) -> tuple[int, int]:
    """Homogeneous Horner on ints, the one evaluation loop of `UniPoly` and
    `BiPoly.at`: for A (ascending, degree m) and x = n/d it returns
    (dk d^m A(x), dk d^(m+1)), both ints, with no `Fraction` on the way."""
    acc = 0
    for c in reversed(A):
        acc = acc * n + c * dk
        dk *= d
    return acc, dk


def squarefree_part(f: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise DomainError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.const(1)
    g = f.gcd(f.derivative())
    return f.divexact(g).monic()


# ---------------------------------------------------------------------------
# pseudo-division, primitive parts and the subresultant PRS over Z


def _primitive(A: Sequence[int]) -> Sequence[int]:
    """The primitive part of the int list A: A over its content, with a
    positive leading coefficient; A itself when it is primitive or
    empty."""
    if not A:
        return A
    c = math.gcd(*A)
    if A[-1] < 0:
        c = -c
    return A if c == 1 else [x // c for x in A]


def _pquorem(A: Sequence[int], B: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of int lists (no trailing zeros, B nonzero): (Q, R,
    s) with s A = Q B + R, deg R < deg B and s = lc(B)^max(deg A - deg B +
    1, 0) (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R): at each step the
    remainder is multiplied by lc(B), and the quotient term is its leading
    coefficient times lc(B)^k, k the step's degree."""
    dB = len(B) - 1
    lcB = B[-1]
    e = max(len(A) - dB, 0)
    R = list(A)
    Q = [0] * e
    for k in range(e - 1, -1, -1):
        c = R.pop()  # the coefficient of x^(dB + k)
        Q[k] = c * lcB**k
        if lcB != 1:
            R = [r * lcB for r in R]
        if c:
            for i in range(dB):
                R[k + i] -= c * B[i]
    return dense.trim(INTEGERS, Q), dense.trim(INTEGERS, R), lcB**e


def _subresultant(A: list[int], B: list[int]) -> int:
    """Resultant of A, B (non-zero integer coefficient lists) by the
    subresultant PRS; every intermediate division is exact over Z."""
    dA, dB = len(A) - 1, len(B) - 1
    s = 1
    if dA < dB:
        A, B, dA, dB = B, A, dB, dA
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
    if dA == 0:
        return 1  # two constants
    if dB == 0:
        return s * B[0] ** dA
    divexact = INTEGERS.divexact
    g = h = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _pquorem(A, B)[1]
        if not R:
            return 0
        A = B
        denom = g * h**delta
        B = [divexact(c, denom) for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = divexact(g**delta, h ** (delta - 1))
        if len(B) == 1:
            dA = len(A) - 1
            return s * divexact(B[0] ** dA, h ** (dA - 1))


# ---------------------------------------------------------------------------
# bivariate polynomials, resultants, discriminants


class BiPoly:
    """P(T, Y), stored as its integer form: `num`, the rows R_i = den P_i
    (R_i the trimmed int coefficients in T of Y^i, no zero row on top),
    over `den`, the least positive integer that makes them all integral.
    `rows` and `coeff(i)` make their `UniPoly`s on demand, with no
    `Fraction`.  The covers this package handles are monic in Y."""

    __slots__ = ("num", "den")

    def __init__(self, rows: Iterable[UniPoly]):
        R, a = _cleared(*(r if isinstance(r, UniPoly) else UniPoly(r) for r in rows))
        while R and not R[-1]:
            R.pop()
        object.__setattr__(self, "num", tuple(R))
        object.__setattr__(self, "den", a)

    def __setattr__(self, *a):
        raise AttributeError("BiPoly is immutable")

    def __reduce__(self):
        return BiPoly, (self.rows,)

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "BiPoly":
        return cls([UniPoly.from_json(row) for row in data])

    def to_json(self) -> list[list[str]]:
        return [row.to_json() for row in self.rows]

    @property
    def rows(self) -> tuple[UniPoly, ...]:
        return tuple(UniPoly._of_int(r, self.den) for r in self.num)

    @property
    def degree_y(self) -> int:
        return len(self.num) - 1

    @property
    def is_monic_in_y(self) -> bool:
        return bool(self.num) and self.num[-1] == (self.den,)

    def coeff(self, i: int) -> UniPoly:
        return UniPoly._of_int(self.num[i], self.den) if 0 <= i < len(self.num) else UniPoly()

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def at(self, t0) -> UniPoly:
        """P(t0, Y) for a rational t0 = n/d, on the integer rows: with D
        the largest T-degree, each row takes one homogeneous Horner pass
        (`_horner`), h_i = d^D R_i(t0), over the one common denominator
        den d^D."""
        n, d = t0.as_integer_ratio()
        R = self.num
        top = max(map(len, R), default=1)
        return UniPoly._of_int(
            [_horner(r, n, d, d ** (top - len(r)))[0] for r in R], self.den * d ** (top - 1)
        )

    def __repr__(self):
        return f"BiPoly(deg_y={self.degree_y})"


def _cleared(*polys: UniPoly) -> tuple[list[tuple[int, ...]], int]:
    """([a p as an integer tuple for each p], a) for the least positive a:
    each p's stored ints brought to the common denominator a, the lcm of
    theirs."""
    a = math.lcm(*(p.den for p in polys))
    return [p.num if p.den == a else tuple(c * (a // p.den) for c in p.num) for p in polys], a


def _sample_points():
    """0, 1, -1, 2, -2, ...: the evaluation points of every interpolation
    in this package."""
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _resultant_rows(F: list[list[int]], G: list[list[int]]) -> list[int]:
    """Res_Y(F, G) in Z[T] for F and G in Z[T][Y], each given as its rows
    (F[i] the trimmed int list in T multiplying Y^i, the last row
    nonzero), by evaluation at integer points and Newton interpolation
    over Z.  At a point t where neither leading row vanishes the resultant
    is Res(F(t, Y), G(t, Y)), a subresultant over Z.  Its T-degree is at
    most the Sylvester bound deg_Y G * deg_T F + deg_Y F * deg_T G, and at
    most totdeg F * totdeg G (Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, ch. 8 sec. 7); the smaller bound plus one points determine
    it.  Points where a leading row vanishes are skipped."""
    m, n = len(F) - 1, len(G) - 1
    bound = min(
        n * (max(map(len, F)) - 1) + m * (max(map(len, G)) - 1),
        max(i + len(r) - 1 for i, r in enumerate(F) if r)
        * max(i + len(r) - 1 for i, r in enumerate(G) if r),
    )
    xs, ys = [], []
    for t in _sample_points():
        if len(xs) > bound:
            break
        ft = [_horner(r, t, 1)[0] for r in F]
        gt = [_horner(r, t, 1)[0] for r in G]
        if ft[-1] and gt[-1]:
            xs.append(t)
            ys.append(_subresultant(ft, gt))
    return dense.interpolate(xs, ys)


def resultant(f, g):
    """Resultant over the shared coefficient domain.

    (UniPoly, UniPoly) -> Rat; (BiPoly, BiPoly), both in Y over Q[T],
    -> UniPoly in T.  Errors on zero input.
    """
    if isinstance(f, UniPoly) and isinstance(g, UniPoly):
        if f.is_zero or g.is_zero:
            raise DomainError("resultant with a zero polynomial")
        # Res(f, g) = Res(a f, b g) / (a^deg g b^deg f), with a f and b g in Z[x]
        d = f.den**g.degree * g.den**f.degree
        return Fraction(_subresultant(f.num, g.num), d)
    if isinstance(f, BiPoly) and isinstance(g, BiPoly):
        if not f.num or not g.num:
            raise DomainError("resultant with a zero polynomial")
        # Res_Y(f, g) = Res_Y(a f, b g) / (a^deg_Y g b^deg_Y f), on integer rows
        d = f.den**g.degree_y * g.den**f.degree_y
        return UniPoly._of_int(_resultant_rows(f.num, g.num), d)
    raise DomainError("resultant arguments must be two UniPoly or two BiPoly")


def discriminant(f: UniPoly) -> Rat:
    """Discriminant of a univariate f of degree n >= 1 over Q, computed on
    Z (Collins, J. ACM 18, 1971): with A = a f integral for the least
    a > 0 and A' its derivative, Res(A, A') = a^(2n-1) Res(f, f'), so
    disc f = (-1)^(n(n-1)/2) Res(A, A') / (lc(A) a^(2n-2)): one
    subresultant PRS and one `Fraction`."""
    n = f.degree
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    A = f.num
    r = _subresultant(A, dense.deriv(INTEGERS, A))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return Fraction(sign * r, A[-1] * f.den ** (2 * n - 2))


def disc_y(P: BiPoly) -> UniPoly:
    """Discriminant of P(T, Y) with respect to Y, a UniPoly in T.

    Requires P monic in Y of Y-degree n >= 1.  With A = a P cleared once
    and A_Y its Y-derivative, Res_Y(A, A_Y) = a^(2n-1) Res_Y(P, P_Y), as
    in `discriminant`.
    """
    n = P.degree_y
    if n < 1:
        raise DomainError("disc_y needs Y-degree >= 1")
    if not P.is_monic_in_y:
        raise DomainError("disc_y requires a polynomial monic in Y")
    if n == 1:
        return UniPoly.const(1)
    A = P.num
    r = _resultant_rows(A, [[i * c for c in row] for i, row in enumerate(A)][1:])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return UniPoly._of_int([sign * c for c in r], P.den ** (2 * n - 1))
