"""Re-derive the benchmark's cover data with sympy.

Run from the repository root:

    python3 bench/data/derive.py          # check bench/data against sympy
    python3 bench/data/derive.py --write  # rewrite c6.json and expected.json

C6 is the degree-6 cyclic cover used by the `c6_analysis` workload:

    C6 = Res_Z(Shanks(T, Z), (Y - Z)^2 - (T + 5)),
    Shanks(T, Z) = Z^3 - T Z^2 - (T + 3) Z - 1,

the compositum of the simplest cubic field (cyclic of order 3) and the
quadratic field Q(sqrt(T + 5)); its group is Z/3 x Z/2 = Z/6.  Its branch
table follows from the two factors, each branched where the other is not:

* T + 5: the quadratic factor ramifies (e = 2).  The cubic factor is
  unramified there; its fibre Shanks(-5, Z) is irreducible over Q, so the
  residue field has degree d = 3 over Q.
* T^2 + 3T + 9: the Shanks discriminant (T^2 + 3T + 9)^2 makes the cubic
  factor ramify (e = 3).  The quadratic factor is unramified; tau + 5 is
  not a square in Q(tau) for a root tau, so d = 2.
* infinity: deg(T + 5) is odd, so the quadratic factor ramifies (e = 2);
  the cubic is unramified at infinity with three rational places, so d = 1.
* The quintic factor of disc_Y(C6) is not a branch point: both factors are
  unramified above it.  It appears only because the resultant model is not
  the maximal order (two roots z_i + s and z_j - s collide), so the series
  expansion there finds e = 1.

`expected.json` also lists, for each bundled cover, the rational roots of
its discriminant in Y: exactly the t0 that `verify_specialization` must
refuse with HypothesisViolation.
"""

import json
import sys
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent
BUNDLED = HERE.parents[1] / "src" / "gsl" / "data"
T, Y, Z, U = sp.symbols("T Y Z U")


def rows_of(P):
    """Cover JSON rows: by Y-degree, T-coefficients ascending."""
    poly = sp.Poly(P, Y)
    rows = []
    for i in range(poly.degree() + 1):
        c = sp.Poly(poly.coeff_monomial(Y**i), T)
        rows.append([str(x) for x in reversed(c.all_coeffs())] if not c.is_zero else ["0"])
    return rows


def poly_of(rows):
    return sum(sp.Rational(c) * T**j * Y**i for i, row in enumerate(rows) for j, c in enumerate(row))


def derive_c6():
    shanks = Z**3 - T * Z**2 - (T + 3) * Z - 1
    P = sp.expand(sp.resultant(shanks, (Y - Z) ** 2 - (T + 5), Z))
    assert sp.Poly(P, Y).LC() == 1 and sp.degree(P, Y) == 6
    disc = sp.factor(sp.discriminant(P, Y))
    lc, factors = sp.factor_list(disc)
    print(f"disc_Y(C6) = {disc}")

    # T + 5: the cubic fibre is irreducible, so d = 3.
    fibre = shanks.subs(T, -5)
    assert sp.Poly(fibre, Z).is_irreducible
    # T^2 + 3T + 9: sqrt(tau + 5) is not in Q(tau) = Q(sqrt(-3)), so d = 2.
    tau = (-3 + 3 * sp.sqrt(-3)) / 2
    assert sp.expand(tau**2 + 3 * tau + 9) == 0
    _, sq = sp.factor_list(sp.expand(Z**2 - (tau + 5)), Z, extension=sp.sqrt(-3))
    assert len(sq) == 1 and sq[0][1] == 1
    # infinity: with U = 1/T and Z = W/U the cubic's fibre at U = 0 is
    # W^2 (W - 1).  The simple root W = 1 is a rational place, and in a
    # Galois cubic that is unramified at infinity (the Shanks discriminant
    # (T^2 + 3T + 9)^2 has even degree) all places share its residue
    # degree, so d = 1.
    W = sp.symbols("W")
    at_inf = sp.expand(shanks.subs({Z: W / U, T: 1 / U}) * U**3)
    assert sp.expand(at_inf.subs(U, 0)) == W**3 - W**2
    assert sp.degree(sp.discriminant(shanks, Z), T) % 2 == 0

    loci = [f for f, _ in factors if sp.degree(f, T) >= 1]
    table = []
    for f in loci:
        monic = sp.Poly(f, T).monic()
        coeffs = [str(c) for c in reversed(monic.all_coeffs())]
        if monic.degree() == 1 and monic.all_coeffs() == [1, 5]:
            table.append({"locus": coeffs, "e": 2, "d": 3})
        elif monic.degree() == 2:
            table.append({"locus": coeffs, "e": 3, "d": 2})
        else:
            assert monic.degree() == 5, f
    table.sort(key=lambda r: len(r["locus"]))
    table.append({"locus": None, "e": 2, "d": 1})
    cover = {"name": "c6_compositum", "group_order": 6, "P": rows_of(P),
             "assert_regular_galois": True}
    return cover, table


def disc_roots(rows):
    """Rational roots of disc_Y(P), as canonical strings."""
    d = sp.Poly(sp.discriminant(poly_of(rows), Y), T)
    return sorted({str(r) for r in sp.roots(d, filter="Q")}, key=sp.Rational)


def main(write: bool) -> int:
    cover, table = derive_c6()
    expected = {
        "c6_branch_table": table,
        "disc_roots": {},
    }
    for path in sorted(BUNDLED.glob("*.json")):
        data = json.loads(path.read_text())
        expected["disc_roots"][data["name"]] = disc_roots(data["P"])
    expected["disc_roots"][cover["name"]] = disc_roots(cover["P"])
    for row in table:
        print(f"  locus {row['locus']}: e = {row['e']}, d = {row['d']}")
    print(f"  rational discriminant roots: {expected['disc_roots']}")
    out = {"c6.json": cover, "expected.json": expected}
    if write:
        for name, obj in out.items():
            (HERE / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        return 0
    stale = [name for name, obj in out.items()
             if json.loads((HERE / name).read_text()) != obj]
    if stale:
        print(f"out of date: {stale}; rerun with --write", file=sys.stderr)
        return 1
    print("bench/data agrees with the derivation")
    return 0


if __name__ == "__main__":
    raise SystemExit(main("--write" in sys.argv[1:]))
