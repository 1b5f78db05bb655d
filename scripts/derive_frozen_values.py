#!/usr/bin/env python3
"""Independent derivation of every frozen constant used in the test suite.

This script is the reference oracle: it recomputes, with sympy and direct
congruence arithmetic (no imports from ``gsl``), each numeric expectation
that the tests assert against.  Run it whenever a frozen value looks
suspicious; the tests must agree with what it prints.

Usage:  python scripts/derive_frozen_values.py
"""

import itertools
import json
from fractions import Fraction

import sympy
from sympy import Poly, Rational, Symbol, ZZ, QQ

T = Symbol("T")
Y = Symbol("Y")
Z = Symbol("Z")

OUT = {}


def sec(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


# ---------------------------------------------------------------- covers ---

C2 = Poly(Y**2 - T, Y)
V4 = Poly(Y**4 - 2 * (2 * T - 1) * Y**2 + 1, Y)
C3 = Poly(Y**3 - T * Y**2 - (T + 3) * Y - 1, Y)

COVERS = {"c2": (C2, 2), "v4": (V4, 4), "c3": (C3, 3)}


def spec_poly(cover, t0):
    p, _ = COVERS[cover]
    return Poly(p.as_expr().subs(T, Rational(t0)), Y)


sec("exact-core worked examples")
r = sympy.resultant(Y**2 - 2, Y**2 - 3, Y)
print("resultant(Y^2-2, Y^2-3) =", r)
OUT["res_q2_q3"] = int(r)

for name, (P, n) in COVERS.items():
    d = sympy.discriminant(P.as_expr(), Y)
    df = sympy.factor(d)
    print(f"disc_y({name}) = {sympy.expand(d)}  = {df}")
    OUT[f"disc_{name}"] = str(sympy.expand(d))

# CRT examples
x = sympy.ntheory.modular.crt([9, 25], [1, 2], symmetric=False)
print("crt [(9,1),(25,2)] ->", x[0])
OUT["crt_9_25"] = int(x[0])
x = sympy.ntheory.modular.crt([25, 49], [10, 7], symmetric=False)
print("crt [(5^2,10),(7^2,7)] ->", x[0], " (approximate_specialization_point)")
OUT["approx_point"] = int(x[0])


def factor_mod(expr, p):
    """The factorization of expr, a polynomial in Y, mod p, in the form of
    sympy.factor_list(expr, modulus=p): (coefficient, [(factor expression,
    multiplicity)]).  That call compares residues by order, which SymPy 1.13
    deprecates; Poly.factor_list gives the same factors without it."""
    c, facs = Poly(expr, Y, modulus=p).factor_list()
    return c, [(g.as_expr(), e) for g, e in facs]


sec("mod-p factorization examples")
f = Poly(Y**2 + 1, Y, modulus=5)
print("Y^2+1 mod 5 ->", factor_mod(Y**2 + 1, 5))
f = Poly(Y**3 - Y**2 - 4 * Y - 1, Y)
print("frobenius cycle type of Y^3-Y^2-4Y-1 mod 7 ->",
      factor_mod(f.as_expr(), 7))
print("roots of T^2+3T+9 mod 7 ->",
      sorted(int(a) % 7 for a in Poly(T**2 + 3 * T + 9, T, modulus=7).ground_roots()))
print("roots of T^2+3T+9 mod 5 ->",
      sorted(Poly(T**2 + 3 * T + 9, T, modulus=5).ground_roots()))
print("roots of T^2+3T+9 mod 79 ->",
      sorted(int(a) % 79 for a in Poly(T**2 + 3 * T + 9, T, modulus=79).ground_roots()))

# reduce_relative example: Z^2 - (t+1)/3 at (p,a) = (7,6)
a, p = 6, 7
val = (a + 1) * pow(3, -1, p) % p
print(f"(t+1)/3 at t=6 mod 7 -> {val}   (Z^2 - that -> Z^2)")

sec("quadratic local classes (p odd): class of m in Qp*/(Qp*)^2")


def qclass(m, p):
    m = Fraction(m)
    v = 0
    num, den = m.numerator, m.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den *= 1
        den //= p
        v -= 1
    u = num * pow(den, -1, p) % p
    qr = pow(u, (p - 1) // 2, p) == 1
    return {(True, True): "1", (True, False): "u",
            (False, True): "p", (False, False): "up"}[(v % 2 == 0, qr)]


for (m, p) in [(50, 5), (10, 5), (1, 7), (5, 5), (21, 7), (14, 7)]:
    print(f"class({m}, {p}) = {qclass(m, p)}")
OUT["qclass_50_5"] = qclass(50, 5)

sec("p-adic oracle ground truths (quadratics decided by valuation parity + QR)")


def quad_ef(c, p):
    """(e,f) of Qp(sqrt(c)) for odd p, c a nonzero rational."""
    cls = qclass(c, p)
    if cls == "1":
        return [(1, 1), (1, 1)]
    if cls == "u":
        return [(1, 2)]
    return [(2, 1)]


for (c, p) in [(50, 5), (150, 5), (10, 5), (-1, 5)]:
    print(f"Y^2-{c} over Q_{p} -> {quad_ef(c, p)}")

# quartic example: Y^4-82Y^2+1 = char poly data for sqrt(2)+sqrt(5)... check:
q = Poly(Y**4 - 82 * Y**2 + 1, Y)
print("Y^4-82Y^2+1 factors over QQ(sqrt(21)):",
      sympy.factor(q.as_expr(), extension=sympy.sqrt(21)))
# the V4 cover at t0=21: P(21,Y) = Y^4 - 82Y^2 + 1; field Q(sqrt21, sqrt20)
# at p=7: 21 = 3*7 ramifies, 20 a unit; is 20 a QR mod 7?  20 mod 7 = 6.
print("20 is QR mod 7:", pow(20, 3, 7) == 1, " (6^3 mod 7 =", pow(6, 3, 7), ")")
print("=> e=2 (sqrt 21 ramified), f=2 (sqrt 20 inert) at p=7, t0=21")
print("at p=3: 21 ramifies; 20 mod 3 = 2, QR mod 3:", pow(2, 1, 3) == 1,
      "=> (e,f)=(2,2) at p=3")
print("at p=5: t0=21: t0-1=20=4*5 ramifies; 21 mod 5 = 1 QR => f=1 => (2,1)")

sec("cyclic cubic specializations")
m = Poly(T**2 + 3 * T + 9, T)
for t0 in [5, 7, 13, 54]:
    val = m.eval(t0)
    print(f"m({t0}) = {val} = {sympy.factorint(int(val))}")

f13 = spec_poly("c3", 13)
print("c3 at t0=13:", f13.as_expr())
for p in [3, 5, 7, 31]:
    fl = factor_mod(f13.as_expr(), p)
    degs = sorted(Poly(g, Y).degree() for g, e in fl[1] for _ in range(e))
    print(f"  mod {p}: {fl[1]}   degrees {degs}")
print("  disc =", sympy.factorint(sympy.discriminant(f13.as_expr(), Y)))

f54 = spec_poly("c3", 54)
print("c3 at t0=54: disc =", sympy.factorint(sympy.discriminant(f54.as_expr(), Y)))
print("  mod 7:", factor_mod(f54.as_expr(), 7)[1])

sec("V4 meeting data for prediction sweeps")
for (t0, p) in [(7, 7), (21, 3), (21, 7), (50, 5), (10, 5)]:
    # which branch of {T, T-1, infinity} does t0 meet at p, and a_p?
    import sympy.ntheory as nt
    v0 = sympy.multiplicity(p, t0) if t0 != 0 else None
    v1 = sympy.multiplicity(p, t0 - 1) if t0 != 1 else None
    print(f"t0={t0}, p={p}: v_p(t0)={v0}, v_p(t0-1)={v1}")

sec("Frobenius-friendly primes (V4 branch at 0, residue Z^2+1)")
prs = [p for p in sympy.primerange(3, 20) if p % 4 == 3 and p not in (2, 3)]
print("d=2 (Z^2+1 irreducible mod p <=> p=3 mod 4), p<=20, excluding bad {2,3}:", prs)
prs1 = [p for p in sympy.primerange(3, 20) if p % 4 == 1]
print("d=1 (splits):", prs1)

sec("Grunwald obstruction scan for V4, q=2, bound 20")
ok = []
for p in sympy.primerange(3, 21):
    if p in (2, 3):
        continue
    # branch residues: Z^2+1 at T; Z at T-1; Z at infinity — need total splitness
    if len(Poly(Z**2 + 1, Z, modulus=p).ground_roots()) == 2:
        ok.append(int(p))
print("primes where all branch residues split into distinct linears:", ok)

sec("Schacher adequacy scans")


def local_ef_field(poly, q):
    """(e,f) multiset of Q_q tensor field, via pari-free reasoning for our cases.

    For the abelian quartic/cubic/quadratic examples used in tests we can
    read (e,f) from factorization mod q when q is unramified, and from
    quadratic/cubic subfield data when ramified; here we use sympy's
    factor_list over Qp via simple heuristics only where unramified.
    """
    d = sympy.discriminant(poly.as_expr(), Y)
    if sympy.multiplicity(q, d) == 0 if d != 0 else False:
        fl = factor_mod(poly.as_expr(), q)
        return sorted(Poly(g, Y).degree() for g, e in fl[1])
    return None


f21 = spec_poly("v4", 21)
print("V4 @ 21:", f21.as_expr(), " disc:", sympy.factorint(sympy.discriminant(f21.as_expr(), Y)))
for q in [3, 5, 7, 11, 13]:
    degs = local_ef_field(f21, q)
    print(f"  q={q}: unram f-degrees {degs}")
print("  q=3: ramified: Q3(sqrt21): 21=3*7, unit 7 => e=2; sqrt20: 20 QR mod 3? ",
      pow(20, 1, 3), "=> 2 mod 3 non-QR => f=2 => (2,2)")
print("  q=5: t0-1=20 ramified => e=2; 21 mod 5 = 1 QR => f=1 => (2,1): ef=2 < 4")
print("  q=7: e=2 as above, f=2 => ef=4: qualifies")

print()
print("c3 @ 13: ramified primes (disc 217^2): 7, 31 with e=3, f=1 (total ram)")
print("  q=7: (3,1) ef=3 qualifies; q=31: (3,1) qualifies => certificate (7,31)")
print("  (inert primes 3,5 give (1,3): ef=3 also Sylow-adequate but are")
print("   unramified witnesses; certificate prefers ramified witnesses)")

print()
print("C2 @ 3 (Y^2-3), bound 10: q=3 ramified (2,1); q=5: 3 QR mod 5?",
      pow(3, 2, 5) == 1, "-> 3^2=9=4 mod 5, so 3 is NR mod 5 => inert (1,2)")
print("  => certificate (3,5)")
print("Y^2+1, bound 3: disc -4; q=3: -1 NR mod 3 => (1,2) qualifies; only one => none")

sec("realize_local_class searches (C2, branch 0)")
for (p, want) in [(5, "p"), (5, "up"), (7, "up"), (11, "p"), (11, "up"),
                  (13, "p"), (13, "up"), (7, "p")]:
    for beta in itertools.count(1):
        if beta % p == 0:
            continue
        t0 = beta * p
        if qclass(t0, p) == want:
            print(f"p={p}, class {want}: t0 = {t0}")
            break

sec("roots of unity in residue fields")
k = sympy.QQ.algebraic_field(sympy.sqrt(-3))
print("k(t_i) for c3 = Q(t)/(T^2+3T+9) = Q(sqrt(-3)); zeta_3 = t/3 since")
print("  (t/3)^2 + (t/3) + 1 = (t^2+3t+9)/9 = 0  -> Phi_3 splits: True")
print("V4 residues: Q(i) needs Phi_2 = Z+1: trivially splits: True")

sec("puiseux sanity: V4 at branch T (t_i = 0)")
# roots: y = ±sqrt(S) ± sqrt(S-1) = ±sqrt(S) ± i*sqrt(1-S)
# pairs with constant term ±i, e=2, coefficient field Q(i)
s = Symbol("s")
expans = sympy.sqrt(s) + sympy.I * sympy.series(sympy.sqrt(1 - s), s, 0, 4).removeO()
print("sample branch: y =", sympy.expand(expans))
print("coefficient field Q(i); e = 2; residue r(Z) = Z^2+1")

sec("criterion-1 style sanity: Y^2 - alpha*p^2")
for p in [3, 5, 7]:
    for alpha in range(2, min(p, 6)):
        e, f = (1, 1) if pow(alpha, (p - 1) // 2, p) == 1 else (1, 2)
        print(f"p={p} alpha={alpha}: ({e},{f})x{2 - f + 0 if f == 2 else 2}", end="  ")
    print()

print()
print(json.dumps(OUT, indent=2, default=str))
