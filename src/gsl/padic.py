"""Certified p-adic splitting oracle for tame odd primes.

Given a separable univariate f over Q and an odd prime p, compute the
multiset of (ramification index, residue degree) of the factors of f over
Q_p, together with multiplicities — independently of any global prediction
machinery, so that predictions can be *verified* against this module.

Method: one Newton-polygon recursion over clusters of roots, as in Montes'
algorithm.  It works in W = Z/p^N (`modp.Zp`, int elements) and its
unramified extensions W[x]/(rho) (`modp.Zq`, tuples of W elements), each
built over the ring the oracle is in; polynomials over W are `dense`
lists of elements, and p and N are read off W.  The input enters on
integers G (`_prepare`), with g = G / G_n the monic integral model.  G is
read off the primitive integer form A of f, which f and every c f share
and which is the integer form of f.monic(), so f.monic() is never built
over Q; the discriminant is computed once per A.  N starts at the floor
2*v_p(disc)+1 of g and doubles, for at most LADDER_RUNGS rungs, whenever
a check raises PrecisionExhausted; each rung reduces G mod p^N and
divides by the unit G_n.

1. `_cluster(W, g, center, floor, depth)` reads the factors of g whose
   roots y have v(y - center) > floor off the sides of the Newton polygon
   of g(x + center) steeper than floor.  Every root of g is integral, so
   the first cluster, around 0 above floor -1, holds all of them: its
   slope-0 side carries the unit roots, with residual g mod p without its
   factor x^k, and its sides of positive slope the roots = 0 mod p;
2. `_side` reads one side of slope h/e: its residual polynomial over the
   residue field is split into degree blocks (`modp.degree_blocks`:
   squarefree decomposition, then distinct-degree factorization).  A
   simple block of degree r is read off as (e, r) factors and never split
   apart; a repeated block, already squarefree with every factor of one
   degree, is split into irreducibles rho by equal-degree splitting alone
   (`modp.factor_over` given that block) on an integer slope and refused
   on a fractional one;
3. `_recenter` reads, above the side's slope, the cluster of the whole g
   around center + p^h r for a root r of rho.  Nothing is lifted: the
   factors of g whose roots do not reduce there are units at the new
   center, so they add a slope-0 side, which the floor skips, and a unit
   factor to each residual.  A root of degree d >= 2 lives in an
   unramified W' of degree d over W; only its conjugate family is
   analyzed there, and its residue degrees are multiplied by d (the base
   change splits each factor into d conjugates with identical invariants,
   exactly one of which reduces to that root).  The root costs nothing:
   W' = W[x]/(rho), whose generator x is a root of rho, from Z_p and from
   any extension of it alike (the coefficients of rho, residues over W,
   are elements of W), so the extensions stack up as a tower and no root
   is ever searched for.

Each emission rests on an explicit check, so a low N can make the oracle
move up a rung but never answer wrongly:

* Hensel-zone root, (1, 1) when G(c) = 0 mod p^N at a cluster center c:
  2 v(G'(c)) < N, so by Hensel's lemma one root lies in W, above every
  other root of the cluster.
* Side of slope h/e, (e, deg rho) for a simple residual factor rho: the
  polygon is read from coefficients of valuation < N (those that vanish
  mod p^N lie above it), none lies below its side, the residual spans the
  side, and the degrees each cluster emits add up to the lengths of its
  sides.  On the first cluster those lengths add up to deg g, so every
  root is accounted for; on its slope-0 side, whose residual is g mod p,
  these checks hold at any N.

Anything wild (p divides a candidate ramification index) or outside the
certified scope (a *fractional* slope whose residual is inseparable, or a
cluster tree deeper than MAX_DEPTH levels) raises WildOrIrregular: the
oracle refuses rather than guesses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import dense
from .errors import (
    DomainError,
    NotSeparable,
    PrecisionExhausted,
    WildOrIrregular,
)
from .exact import Rat, UniPoly, _disc_ints, _int_val, _primitive, _valuation
from .modp import Zp, Zq, degree_blocks, factor_over, prime_field

__all__ = [
    "LocalSplittingType",
    "PadicPrecisionCtx",
    "local_splitting_type",
    "quadratic_local_class",
]


# ---------------------------------------------------------------------------
# precision bookkeeping

# Rungs of the precision ladder N = (2v+1) 2^k.
LADDER_RUNGS = 8


@dataclass(frozen=True)
class PadicPrecisionCtx:
    """The starting precision of one oracle input.

    Invariant: precision >= 2*v_p(disc of the monic integral model) + 1.
    `for_input` returns exactly that floor, the first rung of the ladder
    in `local_splitting_type`.  The floor is where the oracle starts, not
    what makes it right: every emission rests on its own check, which
    raises PrecisionExhausted when N is too low, and the oracle then
    doubles N.
    """

    p: int
    precision: int
    disc_valuation: int

    def __post_init__(self):
        if self.precision < 2 * self.disc_valuation + 1:
            raise DomainError(
                "precision below the certification threshold "
                f"2*{self.disc_valuation}+1"
            )

    @classmethod
    def for_input(cls, f: UniPoly, p: int) -> "PadicPrecisionCtx":
        prime_field(p)
        return _prepare(f, p)[1]


def _prepare(f: UniPoly, p: int) -> tuple[list[int], PadicPrecisionCtx]:
    """The integral model of f at the prime p (its primality is the
    caller's to test), and its precision context.  f enters by its
    primitive integer form A = sign(B_n) B / content(B) (`_primitive`),
    B = b f the ints it is stored as (`UniPoly.num`, over b =
    `UniPoly.den`); A = a f.monic() with a = A_n > 0 the least integer
    making it integral.  Then m = max ceil((v_p(a) - v_p(A_i)) / (n - i)),
    at least 0, is the least m that makes g(Z) = p^(m n) f.monic()(Z / p^m)
    integral, and g = G / G_n for the integers G_i = p^(m (n - i)) A_i /
    p^v_p(a), G_n a p-unit.  g multiplies every root of f by p^m, so
    v_p(disc g) = v_p(disc f.monic()) + m n (n - 1), read on the ints
    N / D = disc f.monic() of `_model`."""
    B = f.num
    if len(B) < 2:
        raise DomainError("need a polynomial of degree >= 1")
    A = tuple(_primitive(B))
    N, D = _model(A)
    if N == 0:
        raise NotSeparable("input polynomial is not separable")
    n = len(A) - 1
    va = _int_val(A[-1], p)
    m = max([0] + [-((_int_val(c, p) - va) // (n - i)) for i, c in enumerate(A[:-1]) if c])
    G = [c * p ** (m * (n - i)) // p**va for i, c in enumerate(A)]
    v = _int_val(N, p) - _int_val(D, p) + m * n * (n - 1)
    return G, PadicPrecisionCtx(p=p, precision=2 * v + 1, disc_valuation=v)


@functools.lru_cache(maxsize=32)
def _model(A: tuple[int, ...]) -> tuple[int, int]:
    """disc f.monic() = disc(A / A_n) for the f whose primitive integer form
    is A, as the ints (N, D) of `exact._disc_ints`, kept for the last few
    inputs and keyed on A, so f and every c f share one entry: a
    specialization is checked at each of its meeting primes with the same
    polynomial.  `_prepare` reads only their valuations, so neither a
    `UniPoly` nor a `Fraction` is built; N = 0 exactly when f is not
    separable."""
    return _disc_ints(A, A[-1])


# ---------------------------------------------------------------------------
# the cluster recursion

# Levels of the cluster tree below the first cluster.  The depth of the
# tree does not depend on N, so a cluster below this cap is refused on the
# first rung rather than retried at every precision of the ladder.  Each
# level takes three Python frames (`_cluster`, `_side`, `_recenter`).
MAX_DEPTH = 64


def _cluster(W, f, center, floor, depth: int) -> list[tuple[int, int, int]]:
    """(e, f_rel, count) of the factors of f (monic over W, separable over
    Frac(W)) whose roots y have v(y - center) > floor, an int or a
    `Fraction`, compared with each side's slope h/e on ints.  Around center
    0 above floor -1 that is every root of an integral f."""
    if depth > MAX_DEPTH:
        raise WildOrIrregular(
            f"cluster tree deeper than MAX_DEPTH = {MAX_DEPTH} levels: "
            "outside the certified scope of this oracle"
        )
    G = f if center == W.zero else dense.shift(W, f, center)
    vals = [W.val(c) for c in G]
    out: list[tuple[int, int, int]] = []
    expected = 0
    start = 0
    if vals[0] is None:
        # v(G(0)) >= N > 2 v(G'(0)): by Hensel's lemma one root of G lies
        # in W, an (e, f) = (1, 1) factor, of valuation above every other
        # root's (the side (0, v(G(0))) - (1, v(G'(0))) is the steepest)
        if vals[1] is None or 2 * vals[1] >= W.N:
            raise PrecisionExhausted(
                f"Hensel zone: G(c) = 0 mod p^{W.N} needs 2 v(G'(c)) < {W.N}"
            )
        out.append((1, 1, 1))
        expected += 1
        start = 1
    pts = [(i, v) for i, v in enumerate(vals) if v is not None and i >= start]
    fh, fe = floor.numerator, floor.denominator
    for xa, ya, xb, _, (h, e) in dense.newton_sides(pts):
        if h * fe <= fh * e:  # h / e <= floor
            continue
        expected += xb - xa
        out.extend(_side(W, G, xa, ya, xb, h, e, f, center, depth))
    # every root strictly inside the floor-ball is accounted for
    emitted = sum(e * fr * c for e, fr, c in out)
    if emitted != expected:
        raise PrecisionExhausted(
            f"side bookkeeping mismatch ({emitted} != {expected})"
        )
    return out


def _side(W, G, xa, ya, xb, h: int, e: int, f, center, depth: int) -> list[tuple[int, int, int]]:
    """The factors through the side of G = f(x + center) from xa to xb, of
    slope h/e (reduced, e > 0).  Each simple block of degree deg of its
    residual polynomial is read as (e, deg) factors; each repeated block
    (e = 1: others are refused) is split into irreducibles rho by
    equal-degree splitting alone, and for a root r of each, the cluster of
    f around center + p^h r is read above h/e."""
    if e % W.p == 0:
        raise WildOrIrregular(
            f"wild ramification candidate: p={W.p} divides e={e}"
        )
    F = W.res
    r = (xb - xa) // e
    res = []
    for j in range(r + 1):
        vline = ya - j * h
        c = G[xa + j * e]
        v = W.val(c)
        if v is None or v > vline:
            res.append(F.zero)
        else:
            if v < vline:
                raise PrecisionExhausted("coefficient below its side")
            res.append(W.residue(W.shift_down(c, vline)))
    res = dense.trim(F, res)
    if len(res) - 1 != r or res[0] == F.zero:
        raise PrecisionExhausted("residual polynomial does not span its side")
    out: list[tuple[int, int, int]] = []
    repeated = []
    for block, deg, mu in degree_blocks(F, res):
        if mu == 1:
            out.append((e, deg, (len(block) - 1) // deg))
        elif e > 1:
            raise WildOrIrregular(
                "fractional slope with inseparable residual: outside the "
                "certified scope of this oracle"
            )
        else:
            # block is squarefree with every factor of degree deg: it is
            # its own one degree block
            repeated.extend(rho for rho, _ in factor_over(F, [(block, deg, 1)]))
    for rho in sorted(repeated, key=lambda g: (len(g), g)):
        out.extend(_recenter(W, f, center, rho, h, Fraction(h, e), depth + 1))
    return out


def _recenter(W, f, center, rho, h: int, floor: Fraction, depth: int) -> list[tuple[int, int, int]]:
    """The cluster of f around center + p^h r, for one root r of the
    irreducible rho over W.res, above floor.  A linear rho has its root in
    W.res.  Any other rho gives the unramified extension W' = W[x]/(rho)
    of degree deg rho, whose generator x is a root: the coefficients of
    rho lie in W.res, so they are elements of W already, and nothing is
    searched for.  The cluster is analyzed over W', and residue degrees
    are multiplied by deg rho (the base change splits each factor into
    deg rho conjugates with identical invariants, exactly one of which
    reduces to r)."""
    drho = len(rho) - 1
    if drho == 1:
        root = W.res.neg(rho[0])
    else:
        W = Zq(W, rho)
        center = W.embed(center)
        f = [W.embed(c) for c in f]
        root = W.zero[:1] + (W.base.one,) + W.zero[2:]
    center = W.add(center, W.mul(W.from_int(W.p**h), root))
    return [
        (e, fr * drho, cnt)
        for e, fr, cnt in _cluster(W, f, center, floor, depth)
    ]


# ---------------------------------------------------------------------------
# public results


@dataclass(frozen=True)
class LocalSplittingType:
    """Multiset of local invariants of f over Q_p: factors is a sorted
    tuple of (ramification index e, residue degree f, count), and
    sum(e*f*count) = deg f."""

    p: int
    factors: tuple[tuple[int, int, int], ...]
    certified: bool

    def to_json(self) -> dict:
        # not a JsonRecord: each factor class is an {e, f, count} object
        return {
            "p": self.p,
            "factors": [
                {"e": e, "f": f, "count": c} for (e, f, c) in self.factors
            ],
            "certified": self.certified,
        }

    @property
    def is_unramified(self) -> bool:
        return all(e == 1 for e, _, _ in self.factors)


def _merge(emissions) -> tuple[tuple[int, int, int], ...]:
    merged: dict[tuple[int, int], int] = {}
    for e, f, c in emissions:
        merged[(e, f)] = merged.get((e, f), 0) + c
    return tuple((e, f, c) for (e, f), c in sorted(merged.items()))


def local_splitting_type(f: UniPoly, p: int) -> LocalSplittingType:
    """Certified (e, f) multiset of f over Q_p for an odd prime p.

    f must be separable of degree >= 1 (any nonzero leading coefficient and
    any rational coefficients: it enters by its primitive integer form, so
    f and every c f give one answer, from one cache entry).  Works
    at N = (2v+1) 2^k for k = 0, 1, ..., LADDER_RUNGS - 1, v = v_p(disc) of
    the integral model g, moving up a rung only when a check raises
    PrecisionExhausted; each rung reads the first cluster of g, around 0
    above floor -1.  Raises WildOrIrregular when the configuration is
    wild or outside the certified scope (at once: no rung would change
    that), PrecisionExhausted (naming the
    rungs and the last failed check) when no rung certifies, NotSeparable
    for inseparable input, DomainError for p = 2 or composite p.
    """
    if p == 2:
        raise DomainError("p = 2 is outside the tame oracle's domain")
    prime_field(p)
    G, ctx = _prepare(f, p)
    rungs = [ctx.precision << k for k in range(LADDER_RUNGS)]
    last_exc: Exception | None = None
    for N in rungs:
        W = Zp(p, N)
        try:
            emissions = _cluster(W, dense.monic(W, [W.from_int(c) for c in G]), W.zero, -1, 0)
            return LocalSplittingType(p=p, factors=_merge(emissions), certified=True)
        except PrecisionExhausted as exc:
            last_exc = exc
    raise PrecisionExhausted(
        f"could not certify the splitting at p={p} at precisions "
        f"{', '.join(map(str, rungs))}: {last_exc}"
    )


def quadratic_local_class(c: Rat | int, p: int) -> str:
    """Class of a nonzero rational in Q_p^* / (Q_p^*)^2 for odd p:
    one of "1", "u", "p", "up" (u = a non-residue unit)."""
    if p == 2:
        raise DomainError("p = 2 not supported")
    F = prime_field(p)
    c = Fraction(c)
    if c == 0:
        raise DomainError("0 has no square class")
    v = _valuation(c, p)
    qr = pow(F.from_rat(c / Fraction(p) ** v), (p - 1) // 2, p) == 1
    if v % 2 == 0:
        return "1" if qr else "u"
    return "p" if qr else "up"
