"""Dense univariate polynomials over a coefficient ring: the one polynomial
kernel shared by every layer.

The contract, on every ring: canonical polynomials in, canonical
polynomials out.  A canonical polynomial is a list of canonical ring
elements, constant term first, with no trailing zero; over a ring with an
`int_modulus` m the elements are the ints of [0, m).  An element has one
canonical form, so `==` decides equality in R: a zero or a leading 1 is
tested with `==`, on every ring.  Two functions also take trailing zeros:
`trim`, which drops them in place, and `mulmod`, whose products `modp.Zq`
hands in padded to its degree.

The coefficient ring R is any object with

    R.zero, R.one            canonical elements
    R.add, R.sub, R.mul      (a, b) -> element
    R.neg(a)
    R.from_int(n)            the image of an integer (derivatives only)
    R.inv(a)                 inverse of a unit (division by a divisor that
                             is not monic, monic normalization, ext_gcd)
    R.p, R.q                 the characteristic and the size of a finite
                             field (`squarefree` over F_q only)
    R.int_modulus            optional: m when the elements are the ints
                             of [0, m) and the operations are those of Z/m

Rings with an `int_modulus` (`modp.Zp`: F_p and Z/p^N) have polynomials
that are plain int lists, and `add`, `sub`, `scale`, `mul`, `quorem`,
`deriv`, `gcd`, `mulmod` and `power` run on them as such: each reduces
only what it computes, with one `% m` per output coefficient.  Products
and division updates accumulate unreduced; `mulmod` multiplies and
reduces by a monic modulus with nothing reduced in between, and `powmod`
makes its modulus monic once and runs on `mulmod`.  `trim` and `monic`
have one path on every ring, `monic` through `scale`.  The rest (`rem`,
`powmod`, `ext_gcd`, `squarefree`, and through them the
finite-field factorization of `modp`) reach only those, so that work over
F_p and Z/p^N makes no ring method call per coefficient; `evaluate` and
`shift` keep the generic loop on every ring.
The rings without it go through the generic loop, one method call per
element operation: `modp.Zq` (F_{p^d} and the unramified extensions
of Z/p^N, tuples of elements of the ring below, whose products come back
here over that ring, through `mulmod`),
`nfield.NumberField` (integer vectors over one positive denominator), and
`INTEGERS` below.  There is no ring of rationals: a polynomial over Q is
an `exact.UniPoly`, ints over one denominator, whose arithmetic runs here
over `INTEGERS`, and Q itself is the degree-1 number field.
`INTEGERS.divexact` (exact division, `DomainError` otherwise) serves the
subresultant PRS, which computes rational resultants over Z.  Element
arithmetic stays in those types; this module only combines elements.

Over a field, `gcd` is Euclid, the gcd of F_q and of number fields.
Over F_p it divides by each remainder as it comes (the int `quorem` takes
a divisor that is not monic with one inverse) and normalizes once, the
result; elsewhere every remainder is made monic.
`interpolate` is Newton's divided differences over Z, the one
interpolation: the resultants of `exact` (in `disc_y` and the Trager norms
of `nfield`) lie in Z[T] and are evaluated at integer points, and the
divided differences of an integer polynomial at integer nodes are
integers, so every division is exact and checked.
`shift` is the one Taylor shift a(x + c): the branch coordinate and the
Duval step of `covers`, the Trager norms of `nfield`, and the oracle's
cluster centres.
`squarefree` is Musser's squarefree decomposition, over number fields
and F_q, where the part whose multiplicities p divides is a p-th power
decomposed through its p-th root (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 14).  Newton-polygon sides, used by
the p-adic oracle and by the Puiseux expansions, live here too.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError


class _Integers:
    """Z as a coefficient ring; its only units are 1 and -1."""

    zero, one = 0, 1
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    from_int = staticmethod(int)

    @staticmethod
    def inv(a):
        if a in (1, -1):
            return a
        raise DomainError(f"{a} is not a unit of Z: divide by monic polynomials only")

    @staticmethod
    def divexact(a, b):
        """a / b for integers b | a; raises DomainError otherwise."""
        q, r = divmod(a, b)
        if r:
            raise DomainError(f"{b} does not divide {a}")
        return q

    def __repr__(self):
        return "Z"


INTEGERS = _Integers()


# ---------------------------------------------------------------------------
# ring operations


def trim(R, a: list) -> list:
    """Drop the trailing zeros of a list of canonical elements in place;
    returns a."""
    while a and a[-1] == R.zero:
        a.pop()
    return a


def add(R, a, b):
    m = getattr(R, "int_modulus", None)
    if m is not None:
        if len(a) < len(b):
            a, b = b, a
        return trim(R, [(x + y) % m for x, y in zip(a, b)] + a[len(b):])
    out = list(a) + [R.zero] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = R.add(out[i], c)
    return trim(R, out)


def sub(R, a, b):
    m = getattr(R, "int_modulus", None)
    if m is not None:
        out = [(x - y) % m for x, y in zip(a, b)]
        if len(a) > len(b):
            out += a[len(b):]
        else:
            out += [-c % m for c in b[len(a):]]
        return trim(R, out)
    out = list(a) + [R.zero] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = R.sub(out[i], c)
    return trim(R, out)


def _product(a, b):
    """The product of two nonzero int lists, unreduced: the one
    multiplication loop of the int path."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            k = i
            for y in b:
                out[k] += x * y
                k += 1
    return out


def mul(R, a, b):
    if not a or not b:
        return []
    m = getattr(R, "int_modulus", None)
    if m is not None:
        return trim(R, [c % m for c in _product(a, b)])
    zero = R.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = R.add(out[i + j], R.mul(x, y))
    return trim(R, out)


def scale(R, a, c):
    """c * a for an element c."""
    m = getattr(R, "int_modulus", None)
    if m is not None:
        return trim(R, [x * c % m for x in a])
    return trim(R, [R.mul(x, c) for x in a])


def mulmod(R, a, b, m):
    """a * b mod m for a monic m.  Over ints mod M, with nothing reduced
    in between: the product accumulates unreduced, its high coefficients
    are reduced one at a time and cancelled against m (monic: no
    inverse), and each remaining coefficient is reduced once.  Elsewhere
    `rem` of `mul`."""
    M = getattr(R, "int_modulus", None)
    if M is None:
        return rem(R, mul(R, a, b), m)
    if not a or not b:
        return []
    out = _product(a, b)
    low = m[:-1]
    for k in range(len(out) - len(m), -1, -1):
        c = out.pop() % M
        if c:
            j = k
            for v in low:
                out[j] -= c * v
                j += 1
    return trim(R, [c % M for c in out])


def quorem(R, a, b):
    """(q, r) with a = q*b + r and deg r < deg b.

    A monic b needs no inverse, so over rings that are not fields (Z,
    Z_q / p^N) the divisor must be monic or have a unit leading
    coefficient; R.inv raises otherwise.  Over ints mod m the updates
    accumulate unreduced: each coefficient is reduced once, when it becomes
    a quotient term or a remainder coefficient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    il = None if b[-1] == R.one else R.inv(b[-1])
    r = list(a)
    db = len(b) - 1
    m = getattr(R, "int_modulus", None)
    if m is not None:
        n = len(r) - db
        if n <= 0:
            return [], r
        q = [0] * n
        for k in range(n - 1, -1, -1):
            c = r.pop() % m
            if c:
                if il is not None:
                    c = c * il % m
                q[k] = c
                for i in range(db):
                    r[k + i] -= c * b[i]
        return trim(R, q), trim(R, [c % m for c in r])
    q = [R.zero] * max(0, len(r) - db)
    while len(r) > db:
        c = r.pop()
        if il is not None:
            c = R.mul(c, il)
        k = len(r) - db
        q[k] = c
        for i in range(db):
            r[k + i] = R.sub(r[k + i], R.mul(c, b[i]))
        trim(R, r)
    return trim(R, q), r


def rem(R, a, b):
    return quorem(R, a, b)[1]


def monic(R, a):
    """a divided by its leading coefficient (the zero polynomial stays)."""
    if not a or a[-1] == R.one:
        return list(a)
    return scale(R, a, R.inv(a[-1]))


def gcd(R, a, b):
    """Monic gcd over a field.  Over ints mod p, Euclid on the remainders
    as they come (`quorem` divides by a divisor that is not monic with one
    inverse), and only the result is made monic.  Elsewhere every
    remainder is made monic before it becomes a divisor, so each division
    step needs no inverse and, over Q and number fields, the remainders
    stay normalized."""
    m = getattr(R, "int_modulus", None)
    if m is not None:
        while b:
            a, b = b, rem(R, a, b)
        return monic(R, a)
    a, b = monic(R, a), monic(R, b)
    while b:
        a, b = b, monic(R, rem(R, a, b))
    return a


def ext_gcd(R, a, b):
    """(s, t) with s*a + t*b = 1 over a field, for coprime a and b; then
    deg s < deg b and deg t < deg a.  Raises DomainError when a and b have
    a common factor."""
    r0, r1 = a, b
    s0, s1 = [R.one], []
    t0, t1 = [], [R.one]
    while r1:
        q, r = quorem(R, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(R, s0, mul(R, q, s1))
        t0, t1 = t1, sub(R, t0, mul(R, q, t1))
    if len(r0) != 1:
        raise DomainError("ext_gcd arguments are not coprime")
    il = R.inv(r0[0])
    return scale(R, s0, il), scale(R, t0, il)


def squarefree(R, f):
    """Musser's squarefree decomposition of a monic f over a field: [(a, i)]
    with f = prod a^i, each a monic, squarefree and of degree >= 1, the a
    pairwise coprime, i ascending.

    c = gcd(f, f') holds each irreducible factor once less than f does,
    except those whose multiplicity the characteristic divides, which it
    holds whole; w = f / c holds each of the others once.  Step i splits
    off those of multiplicity i.  In characteristic p what is left of c is
    a p-th power, whose p-th root is decomposed the same way with
    multiplicities times p; over F_q the p-th root of an element a is
    a^(q/p).  A unit c answers at once: f is squarefree (or constant, with
    no parts)."""
    c = gcd(R, f, deriv(R, f))
    if len(c) == 1:
        return [(f, 1)] if len(f) > 1 else []
    out = []
    w = quorem(R, f, c)[0]
    i = 1
    while len(w) > 1:
        y = gcd(R, w, c)
        z = quorem(R, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = quorem(R, c, y)[0]
        i += 1
    if len(c) > 1:
        root = [power(R, a, R.q // R.p) for a in c[:: R.p]]
        out.extend((a, j * R.p) for a, j in squarefree(R, root))
        out.sort(key=lambda t: t[1])
    return out


def powmod(R, a, e: int, m):
    """a^e mod m for an integer e >= 0; DomainError for e < 0."""
    if e < 0:
        raise DomainError(f"negative exponent {e}")
    m = monic(R, m)  # the same remainders, and no inverse per step
    out = [R.one]
    b = rem(R, a, m)
    while e:
        if e & 1:
            out = mulmod(R, out, b, m)
        e >>= 1
        if e:
            b = mulmod(R, b, b, m)
    return out


def deriv(R, a):
    m = getattr(R, "int_modulus", None)
    if m is not None:
        return trim(R, [a[i] * i % m for i in range(1, len(a))])
    return trim(R, [R.mul(a[i], R.from_int(i)) for i in range(1, len(a))])


def evaluate(R, a, x):
    """a(x) by Horner."""
    out = R.zero
    for c in reversed(a):
        out = R.add(R.mul(out, x), c)
    return out


def shift(R, a, c):
    """The Taylor shift a(x + c), by repeated synthetic division."""
    out = list(a)
    n = len(out) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] = R.add(out[j], R.mul(c, out[j + 1]))
    return trim(R, out)


def interpolate(xs, ys):
    """The integer polynomial of degree < len(xs) taking the value ys[i] at
    the distinct integer xs[i], by Newton divided differences and Horner,
    on ints.  The divided differences of an integer polynomial at integer
    nodes are integers, as (x^m - y^m) / (x - y) lies in Z[x, y]: each
    division is exact, and one that is not raises DomainError."""
    c = list(ys)
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if r:
                raise DomainError("the values are not those of an integer polynomial")
            c[i] = q
    out = c[-1:]
    for i in range(n - 2, -1, -1):
        # out <- out * (x - xs[i]) + c[i]
        x = xs[i]
        out = [c[i] - x * out[0]] + [u - x * v for u, v in zip(out, out[1:])] + out[-1:]
    return trim(INTEGERS, out)


def power(R, a, e: int):
    """a^e for a ring element a and an integer e >= 0; DomainError for
    e < 0."""
    if e < 0:
        raise DomainError(f"negative exponent {e}")
    m = getattr(R, "int_modulus", None)
    if m is not None:
        return pow(a, e, m)
    out = R.one
    b = a
    while e:
        if e & 1:
            out = R.mul(out, b)
        b = R.mul(b, b)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# Newton polygons


def newton_sides(points):
    """Sides of the lower convex hull of (i, v) points with i strictly
    increasing: (xa, ya, xb, yb, (h, e)), the slope (ya - yb) / (xb - xa)
    as the reduced pair of ints h / e with e > 0, the common valuation of
    the roots belonging to that side."""
    hull: list = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it sits on or above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    sides = []
    for (xa, ya), (xb, yb) in zip(hull, hull[1:]):
        g = math.gcd(ya - yb, xb - xa)
        sides.append((xa, ya, xb, yb, ((ya - yb) // g, (xb - xa) // g)))
    return sides
