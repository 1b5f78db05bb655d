"""Seeded input generators for the benchmark workloads.

Standard library only: the inputs must not depend on the code under test,
so translates are computed here with Fraction arithmetic rather than with
gsl's polynomial classes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Numerators of drawn t0 lie in [-HEIGHT, HEIGHT]; denominators are 1 with
# probability 3/5 and otherwise one of 2..5, so some draws meet the point
# at infinity at the primes of their denominator.
HEIGHT = 100
DENOMINATORS = (1,) * 6 + (2, 3, 4, 5)
# Shifts b of the translates P(T + b, Y).  The range keeps coefficient
# sizes, and with them the cost of one item, close to each other.
SHIFTS = range(-30, 31)


def rat_key(x: Fraction) -> str:
    """Canonical string of a rational, as gsl prints it ("a" or "a/b")."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def t0_domain() -> list[Fraction]:
    """Every t0 that `draw_t0` can return, in ascending order."""
    return sorted({Fraction(n, d) for n in range(-HEIGHT, HEIGHT + 1)
                   for d in set(DENOMINATORS)})


def draw_t0(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-HEIGHT, HEIGHT), rng.choice(DENOMINATORS))


def shift(coeffs, b: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of m(T + b), by binomial expansion."""
    out = [Fraction(0)] * len(coeffs)
    for j, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            for k in range(j + 1):
                out[k] += c * math.comb(j, k) * Fraction(b) ** (j - k)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def translate_rows(rows: list[list[str]], b: int) -> list[list[str]]:
    """Rows of P(T + b, Y) from the rows of P(T, Y) (cover JSON layout:
    by Y-degree, T-coefficients ascending)."""
    return [[rat_key(c) for c in shift(row, b)] for row in rows]


def specialize_rows(rows: list[list[str]], t: Fraction) -> list[Fraction]:
    """Coefficients in Y of P(t, Y), for P given as cover JSON rows."""
    return [sum((Fraction(c) * t**j for j, c in enumerate(row)), Fraction(0)) for row in rows]


def is_rational_square(x: Fraction) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def v4_irreducible_at(s: Fraction) -> bool:
    """Whether Y^4 - 2(2s - 1)Y^2 + 1 is irreducible over Q.

    Its roots are +-sqrt(s) +- sqrt(s - 1), so it is irreducible exactly
    when none of s, s - 1 and s(s - 1) is a rational square (and s is off
    the branch loci 0 and 1)."""
    return s not in (0, 1) and not any(
        is_rational_square(x) for x in (s, s - 1, s * (s - 1)))
