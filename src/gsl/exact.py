"""Exact rational, univariate and bivariate polynomial arithmetic.

Conventions used throughout the package:

* rationals are `fractions.Fraction` (aliased `Rat`);
* univariate polynomials are dense coefficient tuples, ascending degree,
  with no trailing zeros; the zero polynomial has an empty tuple and
  degree -1;
* bivariate polynomials P(T, Y) are stored as a tuple of rows indexed by
  Y-degree, each row a `UniPoly` in T;
* JSON form of a `UniPoly` is a list of decimal strings (``"-82"``,
  ``"3/4"``), ascending degree; a `BiPoly` is a list of such lists;
* a result record (a frozen dataclass deriving `JsonRecord`) is a JSON
  object of its fields in declaration order, each value encoded by
  `_json_value`.

`UniPoly` is the Q face of the `dense` kernel: its arithmetic is the
kernel's over `dense.RATIONALS`, kept in an immutable tuple.  Each
`UniPoly` and `BiPoly` also has an integer form, its coefficients times
the least positive common denominator (ints over one denominator, as
FLINT's fmpq_poly stores them).  It is computed once per polynomial, on
first use, and kept in a slot; a polynomial built from integers (a
specialization P(t0, Y), the oracle's monic model) has it set at
construction.  `_cleared`, evaluation, `resultant`, `discriminant`,
`disc_y` and both hashes read it there.  The value of a `UniPoly` at a
rational n/d, and P(n/d, Y) for a `BiPoly` P (`BiPoly.at`), are computed
by one homogeneous Horner pass per integer row (`_horner`), with the
Fractions made only at the end.  The resultant of two `UniPoly` runs the
subresultant PRS on their integer forms, over Z, where every division is
exact; the discriminant runs it once on the integer form and its
derivative.  The resultant of two `BiPoly` (Res_Y, as in `disc_y` and the
Trager norms of `nfield`) is never computed over Q[T]: on integer rows
the resultant lies in Z[T]; its values at integer points T = t are
subresultants over Z, and it is recovered from as many of them as the
degree bound needs by Newton interpolation over Z (`dense.interpolate`),
whose divisions are exact and checked.  `_resultant_rows` is that loop on
integer rows, which the Trager norms build directly; one `Fraction` per
output coefficient undoes the clearing, and `disc_y` runs it on the
integer rows of P and on their Y-derivative.  No factorization over Q is
exposed here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import dense
from .dense import INTEGERS, RATIONALS
from .errors import DomainError

Rat = Fraction

# ---------------------------------------------------------------------------
# rationals


def rat_from_str(s: str) -> Rat:
    """Parse "p" or "p/q" (decimal strings) into a Rat."""
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


def _norm(coeffs: Iterable) -> tuple[Rat, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class UniPoly:
    """Dense univariate polynomial over Q, immutable; arithmetic runs in the
    `dense` kernel over `dense.RATIONALS`.  Its integer form (A, a), with a
    the least positive integer making A = a f integral, is computed once,
    on first use, and kept in a slot: evaluation, `resultant`,
    `discriminant`, `_cleared` and the hash read it there.  The hash is
    that of (A, a), a function of the coefficients, so it agrees with
    `__eq__` however the polynomial was built."""

    __slots__ = ("coeffs", "_int")

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _norm(coeffs))
        object.__setattr__(self, "_int", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):  # pickle through __init__, not __setattr__
        return UniPoly, (self.coeffs,)

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([Fraction(c)])

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "UniPoly":
        return cls([rat_from_str(s) for s in data])

    def to_json(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Rat:
        if self.is_zero:
            raise DomainError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Rat:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self._form())

    def _form(self) -> tuple[tuple[int, ...], int]:
        """The integer form (A, a), computed on the first call and then
        read from the slot."""
        form = self._int
        if form is None:
            a = math.lcm(*(c.denominator for c in self.coeffs))
            form = tuple(c.numerator * (a // c.denominator) for c in self.coeffs), a
            object.__setattr__(self, "_int", form)
        return form

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{rat_to_str(c)}*x^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"

    # -- arithmetic (the `dense` kernel over Q) -----------------------------
    @classmethod
    def _of(cls, cs) -> "UniPoly":
        """Wrap a trimmed list of Fractions returned by the kernel."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(cs))
        object.__setattr__(out, "_int", None)
        return out

    @classmethod
    def _of_int(cls, B: list[int], b: int) -> "UniPoly":
        """B / b for ints B (ascending, trailing zeros allowed) and b > 0,
        with its integer form set: B and b divided by their gcd."""
        B = list(B)
        while B and not B[-1]:
            B.pop()
        g = math.gcd(b, *B)
        if g > 1:
            B = [c // g for c in B]
            b //= g
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(Fraction(c, b) for c in B))
        object.__setattr__(out, "_int", (tuple(B), b))
        return out

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(dense.add(RATIONALS, self.coeffs, other.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(dense.sub(RATIONALS, self.coeffs, other.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(dense.mul(RATIONALS, self.coeffs, other.coeffs))

    def scale(self, c) -> "UniPoly":
        return UniPoly._of(dense.scale(RATIONALS, self.coeffs, Fraction(c)))

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        q, r = dense.quorem(RATIONALS, self.coeffs, other.coeffs)
        return UniPoly._of(q), UniPoly._of(r)

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
        return UniPoly._of(dense.monic(RATIONALS, self.coeffs))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd (Euclid over Q); the zero polynomial when both are."""
        return UniPoly._of(dense.gcd(RATIONALS, self.coeffs, other.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly._of(dense.deriv(RATIONALS, self.coeffs))

    def __call__(self, x) -> Rat:
        """The value at a rational x = n/d, on the integer form (A, L):
        d^deg A(x) by one `_horner` pass, over L d^deg, one `Fraction` in
        all."""
        n, d = Fraction(x).as_integer_ratio()
        A, L = self._form()
        acc, dk = _horner(A, n, d)
        return Fraction(acc * d, L * dk)  # dk = d^(deg + 1)


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
# subresultant PRS over Z


def _prem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A mod B (integer
    coefficient lists, no trailing zeros)."""
    dB = len(B) - 1
    lcB = B[-1]
    e = len(A) - dB
    R = list(A)
    while len(R) - 1 >= dB:
        lcR = R[-1]
        k = len(R) - 1 - dB
        R = [c * lcB for c in R]
        for i, c in enumerate(B):
            R[k + i] -= lcR * c
        R.pop()
        dense.trim(INTEGERS, R)
        e -= 1
        if not R:
            break
    f = lcB**e
    return [c * f for c in R]


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
        R = _prem(A, B)
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
    """P(T, Y) as a tuple of rows: rows[i] is the UniPoly in T multiplying
    Y^i.  The covers this package handles are monic in Y.  Its integer
    form (R, a), the rows R_i = a P_i over the least positive a that makes
    them all integral, is computed once, on first use, and kept in a slot:
    `resultant`, `disc_y`, `at` and the hash read it there."""

    __slots__ = ("rows", "_int")

    def __init__(self, rows: Iterable[UniPoly]):
        rs = [r if isinstance(r, UniPoly) else UniPoly(r) for r in rows]
        while rs and rs[-1].is_zero:
            rs.pop()
        object.__setattr__(self, "rows", tuple(rs))
        object.__setattr__(self, "_int", None)

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
    def degree_y(self) -> int:
        return len(self.rows) - 1

    @property
    def is_monic_in_y(self) -> bool:
        return bool(self.rows) and self.rows[-1] == UniPoly.const(1)

    def coeff(self, i: int) -> UniPoly:
        return self.rows[i] if 0 <= i < len(self.rows) else UniPoly()

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.rows == other.rows

    def __hash__(self):
        return hash(self._form())

    def _form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The integer form (R, a), computed on the first call and then
        read from the slot."""
        form = self._int
        if form is None:
            R, a = _cleared(*self.rows)
            form = tuple(R), a
            object.__setattr__(self, "_int", form)
        return form

    def at(self, t0) -> UniPoly:
        """P(t0, Y) for a rational t0 = n/d, on the integer rows: with D
        the largest T-degree, each row takes one homogeneous Horner pass
        (`_horner`), h_i = d^D R_i(t0), over the one common denominator
        a d^D; the result's integer form is set from (h, a d^D)."""
        n, d = Fraction(t0).as_integer_ratio()
        R, a = self._form()
        top = max(map(len, R), default=1)
        return UniPoly._of_int(
            [_horner(r, n, d, d ** (top - len(r)))[0] for r in R], a * d ** (top - 1)
        )

    def __repr__(self):
        return f"BiPoly(deg_y={self.degree_y})"


def _cleared(*polys: UniPoly) -> tuple[list[tuple[int, ...]], int]:
    """([a p as an integer tuple for each p], a) for the least positive a:
    each p's integer form is read from its slot (computed once per
    polynomial) and brought to the common denominator a, the lcm of theirs."""
    forms = [p._form() for p in polys]
    a = math.lcm(*(b for _, b in forms))
    return [A if b == a else tuple(c * (a // b) for c in A) for A, b in forms], a


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
        ft = [dense.evaluate(INTEGERS, r, t) for r in F]
        gt = [dense.evaluate(INTEGERS, r, t) for r in G]
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
        A, a = f._form()
        B, b = g._form()
        return Fraction(_subresultant(A, B), a**g.degree * b**f.degree)
    if isinstance(f, BiPoly) and isinstance(g, BiPoly):
        if not f.rows or not g.rows:
            raise DomainError("resultant with a zero polynomial")
        # Res_Y(f, g) = Res_Y(a f, b g) / (a^deg_Y g b^deg_Y f), on integer rows
        F, a = f._form()
        G, b = g._form()
        d = a**g.degree_y * b**f.degree_y
        return UniPoly._of([Fraction(c, d) for c in _resultant_rows(F, G)])
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
    A, a = f._form()
    r = _subresultant(A, dense.deriv(INTEGERS, A))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return Fraction(sign * r, A[-1] * a ** (2 * n - 2))


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
    A, a = P._form()
    r = _resultant_rows(A, [[i * c for c in row] for i, row in enumerate(A)][1:])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return UniPoly._of([Fraction(sign * c, a ** (2 * n - 1)) for c in r])
