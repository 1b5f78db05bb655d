"""Branch geometry of regular Galois covers of the projective line.

A cover is a monic irreducible P(T, Y) over Q whose splitting field over
Q(T) is itself (regular Galois, group order = deg_Y P).  This module finds
its branch points and, for each, the cyclic inertia order e and the residue
field of the branch places, by rational (Duval-style) Puiseux expansion:

  * work over the exact field of definition k = Q[tau]/(m(tau)) of the
    branch point -- never over floating point, never over C;
  * Newton polygon sides of slope m/q contribute ramification q; the side
    residual is factored over the current field and each irreducible factor
    is followed separately (conjugate places are counted through their
    residue degree, not re-expanded);
  * the substitution x -> w0^v x^q, y -> x^m (w0^u + y) with u q - v m = 1
    keeps every coefficient inside the field generated by the residual
    roots, so the coefficient field at the end IS the residue field of the
    place (no parasitic roots of unity);
  * the top level is the slope-0 side: H(0, y) is its residual, and
    (q, m, u, v) = (1, 0, 1, 0) makes the substitution y -> w0 + y, so one
    step resolves a residual at every level;
  * a place is resolved as soon as its residual root is simple -- from
    there the implicit function theorem pins a unique power series with no
    further field growth, so the residue data is exact, not truncated.

The expansion is exact polynomial arithmetic throughout, so nothing is
truncated and no precision grows.  Its one guard is a depth cap, the
`prec` argument of `puiseux_at`: a path through more Newton polygons than
that raises UnstableResidueField.  Each level holds at most deg_Y P
clusters, so the cap bounds the work.

A branch's residue field is read at a good prime p in one place,
`frobenius_orders`: the Frobenius order at each root of the locus mod p,
computed once per (branch, p) and shared by the predictions of
`specialize` and the obstruction search of `applications`.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

from . import dense
from .errors import (
    DomainError,
    HypothesisViolation,
    NonUniformRamification,
    NotSeparable,
    SchemaError,
    UnstableResidueField,
)
from .exact import BiPoly, JsonRecord, Rat, UniPoly, disc_y, discriminant, factor_int, is_prime
from .modp import degree_blocks, frobenius_data, prime_field, reduce_relative, roots_mod_p, seed_from_env
from .nfield import (
    Adjunction,
    NumberField,
    adjoin_root,
    factor_nf,
    factor_rational,
    nf_from_unipoly,
    relative_min_poly,
)

_T = UniPoly((0, 1))  # T: the base coordinate, and the modulus of Q as Q[T]/(T)


# ---------------------------------------------------------------------------
# cover data


@dataclass(frozen=True)
class Cover:
    """A regular Galois cover of the T-line: monic P(T, Y), group order =
    deg_Y P."""

    name: str
    group_order: int
    poly: BiPoly

    @property
    def degree(self) -> int:
        return self.poly.degree_y

    @functools.cached_property
    def analysis(self) -> "CoverAnalysis":
        """The cover's branch data, computed on first access and kept: the
        cover is immutable, so it cannot go stale."""
        return _analyze(self)

    def to_json(self) -> dict:
        # not a JsonRecord: this is the input schema ("P", and the declaration)
        return {
            "name": self.name,
            "group_order": self.group_order,
            "P": self.poly.to_json(),
            "assert_regular_galois": True,
        }


def load_cover(source) -> Cover:
    """Build a Cover from a dict, a JSON string (one whose text starts with
    `{` or `[`), or a path to a JSON file.

    Schema: {"name": str, "group_order": int, "P": [[rat-string, ...], ...]
    (rows by Y-degree, T-coefficients ascending), "assert_regular_galois":
    true}.  Raises SchemaError on anything malformed."""
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith(("{", "["))
    ):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise SchemaError(f"cannot read cover file {source}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"cover file {source} is not valid JSON: {exc}") from exc
    elif isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"cover JSON is malformed: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise SchemaError("cover data must be a JSON object")
    for key in ("name", "group_order", "P", "assert_regular_galois"):
        if key not in data:
            raise SchemaError(f"cover data is missing the '{key}' key")
    if data["assert_regular_galois"] is not True:
        raise SchemaError(
            "only covers declared regular Galois are supported "
            "(assert_regular_galois must be true)"
        )
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("cover 'name' must be a non-empty string")
    n = data["group_order"]
    if not isinstance(n, int) or n < 2:
        raise SchemaError("'group_order' must be an integer >= 2")
    rows = data["P"]
    if not isinstance(rows, list) or not rows:
        raise SchemaError("'P' must be a non-empty list of coefficient rows")
    for row in rows:
        if not isinstance(row, list) or not all(isinstance(c, str) for c in row):
            raise SchemaError("each row of 'P' must be a list of rational strings")
    try:
        P = BiPoly.from_json(rows)
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        raise SchemaError(f"bad rational string in 'P': {exc}") from exc
    if P.degree_y != n:
        raise SchemaError(
            f"group_order {n} must equal the Y-degree {P.degree_y} "
            "for a regular Galois cover"
        )
    if not P.is_monic_in_y:
        raise SchemaError("'P' must be monic in Y")
    if all(P.coeff(i).degree < 1 for i in range(P.degree_y + 1)):
        raise SchemaError("'P' must actually involve T")
    return Cover(name=name, group_order=n, poly=P)


def bundled_covers() -> dict[str, Cover]:
    """The covers shipped with the package, keyed by name."""
    data_dir = Path(__file__).parent / "data"
    out = {}
    for path in sorted(data_dir.glob("*.json")):
        cover = load_cover(path)
        out[cover.name] = cover
    return out


# ---------------------------------------------------------------------------
# residue data of branch places


@dataclass(frozen=True)
class RelativeField(JsonRecord):
    """A residue field presented relative to the field of definition of a
    branch point: `base` is the minimal polynomial m of the branch
    coordinate, `rel` the monic minimal polynomial r(Z) of a residue field
    generator over Q[tau]/(m), its coefficients polynomials in tau."""

    base: UniPoly
    rel: tuple[UniPoly, ...]


@dataclass(frozen=True)
class PuiseuxPlace:
    """One place of the cover above a branch point: its ramification index,
    its residue degree over the branch point's field of definition, and a
    relative minimal polynomial presenting that residue extension."""

    ram_index: int
    residue_degree: int
    rel_min_poly: tuple[UniPoly, ...]


@dataclass(frozen=True)
class BranchPoint(JsonRecord):
    """A branch point of the cover: locus None means the point at infinity
    (base coordinate U = 1/T); d_order is the residue degree of the places
    over the field of definition of the point."""

    locus: UniPoly | None
    ram_index: int
    residue: RelativeField
    d_order: int


@dataclass(frozen=True)
class CoverAnalysis:
    """What every specialization of a cover reuses: the squarefree part of
    disc_Y(P), the branch points, the conservative bad primes, and an
    absolute minimal polynomial of the residue field of each branch (in
    the order of `branches`).  Read it as `cover.analysis`."""

    disc_sf: UniPoly
    branches: tuple[BranchPoint, ...]
    bad_primes: frozenset[int]
    residue_moduli: tuple[UniPoly, ...]


# ---------------------------------------------------------------------------
# H(x, y) as rows by y-degree, each a `dense` polynomial in x over a number
# field


def _kx_val(K, a):
    """x-adic valuation (index of the first non-zero coefficient), or None
    for the zero polynomial."""
    for i, c in enumerate(a):
        if c != K.zero:
            return i
    return None


def _h_at_branch(K, P: BiPoly, tau) -> list[list]:
    """H(x, y) = P(tau + x, y), rows by y-degree over K[x]."""
    return [
        dense.shift(K, nf_from_unipoly(K, P.coeff(i)), tau)
        for i in range(P.degree_y + 1)
    ]


def _h_embed(adj: Adjunction, H: list[list]) -> list[list]:
    L = adj.field
    return [dense.trim(L, [adj.embed(c) for c in row]) for row in H]


def _h_eval_x0(K, H: list[list]) -> list:
    """H(0, y) as a y-polynomial over K."""
    return dense.trim(K, [row[0] if row else K.zero for row in H])


# ---------------------------------------------------------------------------
# the Duval transform and polygon recursion


def _duval_transform(K, H, q: int, mslope: int, u: int, v: int, w0, ell: int):
    """H(w0^v x^q, x^mslope (w0^u + y)) / x^ell, rows by y-degree.

    Every monomial c x^a y^i maps to c w0^(v a) x^(q a + mslope i - ell)
    (w0^u + y)^i: rows are scaled into place, then each x-column is shifted
    by w0^u.  x^ell divides (ell is the minimum of q a + mslope i over the
    support, attained on the polygon side); a shift is invertible, so that
    is checked on the input exponents."""
    wv = dense.power(K, w0, v)
    wv_pows = [K.one]
    for _ in range(max(map(len, H)) - 1):
        wv_pows.append(K.mul(wv_pows[-1], wv))
    cols: list[list] = []
    for i, row in enumerate(H):
        for a, c in enumerate(row):
            if c == K.zero:
                continue
            e = q * a + mslope * i - ell
            if e < 0:
                raise DomainError(f"the transform is not divisible by x^{ell}")
            while len(cols) <= e:
                cols.append([K.zero] * len(H))
            cols[e][i] = K.mul(c, wv_pows[a])
    w0u = dense.power(K, w0, u)
    cols = [dense.shift(K, dense.trim(K, col), w0u) for col in cols]
    return [dense.trim(K, [col[b] if b < len(col) else K.zero for col in cols])
            for b in range(len(H))]


@dataclass
class _Path:
    """A resolved place: accumulated ramification, the final coefficient
    field (= residue field of the place), and the image of the branch
    coordinate tau inside it."""

    e: int
    field: NumberField
    tau: tuple


def _places(K0: NumberField, H: list[list], cap: int) -> list[_Path]:
    """All places over x = 0 of monic-in-y H over K0[x], through at most
    `cap` polygon levels: the roots of H(0, y) are resolved as the residual
    of the slope-0 side."""
    hy = _h_eval_x0(K0, H)
    if len(hy) != len(H):
        raise DomainError("H must be monic in y")
    out = _resolve(K0, H, hy, K0.gen(), q=1, mslope=0, u=1, v=0, ell=0,
                   e_acc=1, cap=cap)
    total = sum(p.e * (p.field.degree // K0.degree) for p in out)
    if total != len(H) - 1:
        raise NonUniformRamification(
            f"places over the locus have total degree {total}, "
            f"not the Y-degree {len(H) - 1}"
        )
    return out


def _resolve(
    K, H, R, tau, q: int, mslope: int, u: int, v: int, ell: int,
    e_acc: int, cap: int,
) -> list[_Path]:
    """Places through the side of slope mslope/q with residual R: a
    simple root of R is one place, a repeated root is adjoined and
    followed into the polygon of the Duval transform of H, with `cap`
    polygon levels left."""
    out: list[_Path] = []
    for rho, nu in factor_nf(K, R):
        adj = adjoin_root(K, rho)
        L = adj.field
        tau_L = adj.embed(tau) if L is not K else tau
        if nu == 1:
            out.append(_Path(e_acc * q, L, tau_L))
            continue
        HL = _h_embed(adj, H) if L is not K else H
        H2 = _duval_transform(L, HL, q, mslope, u, v, adj.root, ell)
        sub = _polygon(L, H2, nu, tau_L, e_acc * q, cap)
        got = sum(p.e // (e_acc * q) * (p.field.degree // L.degree) for p in sub)
        if got != nu:
            raise NonUniformRamification(
                f"cluster of multiplicity {nu} resolved into places of "
                f"total degree {got}"
            )
        out.extend(sub)
    return out


def _polygon(K, H, mu: int, tau, e_acc: int, cap: int) -> list[_Path]:
    """Places through the origin of H (y-multiplicity mu at x=0), within
    `cap` polygon levels, this one included."""
    if cap < 1:
        raise UnstableResidueField(
            "the Puiseux expansion reached its polygon depth cap with a "
            "repeated residual root left; the residue field has not stabilized"
        )
    vals = [(_kx_val(K, row)) for row in H]
    if vals[0] is None:
        raise HypothesisViolation(
            "the cover polynomial has a rational branch component; "
            "it cannot be irreducible over Q(T)"
        )
    pts = [(i, v) for i, v in enumerate(vals) if v is not None]
    out: list[_Path] = []
    extent = 0
    for xa, ya, xb, yb, (mslope, q) in dense.newton_sides(pts):
        if mslope <= 0:
            continue
        extent += xb - xa
        # residual: coefficients along the side, one per q-step
        R = []
        for kappa in range((xb - xa) // q + 1):
            j = xa + kappa * q
            vline = ya - kappa * mslope
            row = H[j]
            c = row[vline] if vline < len(row) else K.zero
            R.append(c)
        if R[0] == K.zero or R[-1] == K.zero:
            raise NonUniformRamification(
                "a polygon side's residual vanishes at an endpoint"
            )
        if mslope == 1:
            u, v = 1, q - 1
        else:
            u = pow(q, -1, mslope)
            v = (u * q - 1) // mslope
        ell = q * ya + mslope * xa
        out.extend(_resolve(K, H, R, tau, q, mslope, u, v, ell, e_acc, cap - 1))
    if extent != mu:
        raise NonUniformRamification(
            f"polygon sides of total extent {extent} at multiplicity {mu}"
        )
    return out


def _infinity_chart(P: BiPoly) -> BiPoly:
    """The cover rewritten around T = infinity: with U = 1/T and
    Z = Y U^s for the least integral s, the model U^(n s) P(1/U, Z/U^s)
    is monic in Z with polynomial coefficients; its places over U = 0 are
    the places of the cover over T = infinity.  Row i is the stored int
    row of Y^i reversed and padded to degree (n - i) s, over P's
    denominator."""
    n = P.degree_y
    # the least s >= 1 with deg R_i <= (n - i) s for each row R_i below the top
    s = max([1] + [-((1 - len(r)) // (n - i)) for i, r in enumerate(P.num[:n])])
    rows = []
    for i, r in enumerate(P.num):
        pad = (n - i) * s + 1 - len(r)
        if pad < 0:
            raise DomainError("the chart at infinity needs a cover monic in Y")
        rows.append(UniPoly._of_int([0] * pad + list(reversed(r)), P.den))
    return BiPoly(rows)


def puiseux_at(
    cover: Cover, locus: UniPoly | None, prec: int = 49
) -> tuple[PuiseuxPlace, ...]:
    """All places of the cover above one branch locus (None = infinity),
    each with its ramification index, residue degree, and a relative
    minimal polynomial for the residue field over Q[tau]/(locus).

    `prec` caps the depth of the expansion: a path through more than
    `prec` Newton polygons raises UnstableResidueField.  The arithmetic
    itself is exact, so every cap at least the depth a locus needs gives
    the same places."""
    if locus is None:
        P = _infinity_chart(cover.poly)
        K0 = NumberField(_T)  # Q, tau = 0
    else:
        if locus.degree < 1 or locus.lc != 1:
            raise DomainError("branch locus must be monic of degree >= 1")
        P = cover.poly
        K0 = NumberField(locus)
    paths = _places(K0, _h_at_branch(K0, P, K0.gen()), prec)
    out = []
    for p in paths:
        d = p.field.degree // K0.degree
        if d == 1:
            rel = (UniPoly(), UniPoly.const(1))  # Z
        else:
            rel = tuple(
                relative_min_poly(p.field, p.tau, p.field.gen(), K0.degree)
            )
        out.append(PuiseuxPlace(
            ram_index=p.e, residue_degree=d, rel_min_poly=rel,
        ))
    out.sort(key=lambda pl: (pl.ram_index, pl.residue_degree))
    return tuple(out)


def branch_points(cover: Cover) -> tuple[BranchPoint, ...]:
    """The branch points of the cover: the irreducible factors of the
    squarefree part of disc_Y(P) whose places are actually ramified, plus
    the point at infinity when it is.  Uniformity across the places of one
    locus (equal e, equal residue degree) is checked and is a consequence
    of the Galois hypothesis; NonUniformRamification otherwise.  This
    reads `cover.analysis`."""
    return cover.analysis.branches


@functools.lru_cache(maxsize=512)
def frobenius_orders(branch: BranchPoint, p: int) -> MappingProxyType[int, int | None]:
    """A branch's residue field read at a good prime p: each root a of its
    locus mod p, ascending (a = 0 alone for the point at infinity), mapped
    to the order of Frobenius at the place (p, a): the degree r of the
    relative minimal polynomial's reduction there when `degree_blocks`
    reads it as one block (., r, 1), every factor simple and of degree r;
    None where the reduction is a constant, has a repeated factor or has
    factors of unequal degrees (the branch degenerates at p).  Computed
    once per (branch, p) for the last 512 pairs asked for, and shared
    read-only by the predictions and the obstruction search."""
    rel = branch.residue
    table = {}
    for a in roots_mod_p(rel.base, p):
        blocks = degree_blocks(prime_field(p), reduce_relative(rel.rel, rel.base, (p, a)))
        table[a] = blocks[0][1] if len(blocks) == 1 and blocks[0][2] == 1 else None
    return MappingProxyType(table)


# ---------------------------------------------------------------------------
# the analysis: branch points, residue fields, bad primes; hypothesis checks


def _primes_of_rat(x: Rat, acc: set[int]):
    if x != 0:
        acc.update(factor_int(x.numerator), factor_int(x.denominator))


def _abs_residue_modulus(bp: BranchPoint) -> UniPoly:
    """An absolute minimal polynomial of the residue field of bp's places
    (over Q)."""
    if bp.d_order == 1:
        return bp.residue.base
    K0 = NumberField(bp.residue.base)
    rho = [K0.from_unipoly(c) for c in bp.residue.rel]
    return adjoin_root(K0, rho).field.modulus


def conservative_bad_primes(cover: Cover) -> frozenset[int]:
    """A finite set of primes outside which the tame prediction machinery
    is valid: primes up to the group order (wild candidates), primes of bad
    reduction of the discriminant locus (degree drop, colliding branch
    points, non-integrality), and primes ramified in or non-integral for
    the residue fields of the branches.  Reads `cover.analysis`."""
    return cover.analysis.bad_primes


def _analyze(cover: Cover) -> CoverAnalysis:
    n = cover.degree
    disc = disc_y(cover.poly)
    if disc.is_zero:
        raise HypothesisViolation(
            "disc_Y(P) = 0: P has a repeated factor in Y, "
            "so it is not the minimal polynomial of a cover"
        )
    loci: list[UniPoly | None] = [f for f, _ in factor_rational(disc)]
    disc_sf = functools.reduce(UniPoly.__mul__, loci, UniPoly.const(1))
    loci.append(None)
    branches = []
    rh_sum = 0
    for locus in loci:
        places = puiseux_at(cover, locus)
        where = "infinity" if locus is None else repr(locus)
        es = {p.ram_index for p in places}
        ds = {p.residue_degree for p in places}
        if len(es) != 1 or len(ds) != 1:
            raise NonUniformRamification(
                f"places over {where} have mixed invariants "
                f"{sorted((p.ram_index, p.residue_degree) for p in places)}; "
                "the cover cannot be regular Galois"
            )
        e, d = es.pop(), ds.pop()
        if e == 1:
            continue
        base = locus if locus is not None else _T
        rh_sum += base.degree * (n - n // e)
        branches.append(BranchPoint(
            locus=locus,
            ram_index=e,
            residue=RelativeField(base=base, rel=places[0].rel_min_poly),
            d_order=d,
        ))
    # Riemann-Hurwitz over Q: 2 genus - 2 = -2 n + sum deg (n - n/e)
    twog = rh_sum - 2 * n + 2
    if twog % 2 != 0 or twog < 0:
        raise HypothesisViolation(
            f"tame ramification data violates Riemann-Hurwitz (2g = {twog}); "
            "the input is not a regular Galois cover or has wild geometry"
        )
    moduli = tuple(_abs_residue_modulus(bp) for bp in branches)
    bad = {p for p in range(2, n + 1) if is_prime(p)}
    _primes_of_rat(disc.lc, bad)
    if disc_sf.degree >= 1:
        _primes_of_rat(discriminant(disc_sf), bad)
    dens = [cover.poly.den, disc.den]  # the primes of these denominators are bad
    for bp, M in zip(branches, moduli):
        dens.extend(r.den for r in bp.residue.rel)
        if bp.locus is not None:
            dens.append(bp.locus.den)
        if M.degree >= 2:
            _primes_of_rat(discriminant(M), bad)
    for d in dens:
        bad.update(factor_int(d))
    return CoverAnalysis(disc_sf, tuple(branches), frozenset(bad), moduli)


def _cyclotomic(e: int) -> UniPoly:
    """The e-th cyclotomic polynomial over Q."""
    f = UniPoly([Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)])
    for d in range(1, e):
        if e % d == 0:
            f = f.divexact(_cyclotomic(d))
    return f


def roots_of_unity_check(cover: Cover) -> bool:
    """Tame-inertia consistency: the residue field of a branch with
    ramification e must contain the e-th roots of unity.  True when every
    branch passes."""
    analysis = cover.analysis
    for bp, M in zip(analysis.branches, analysis.residue_moduli):
        e = bp.ram_index
        if e <= 2:
            continue  # -1 and 1 are everywhere
        L = NumberField(M)
        phi = nf_from_unipoly(L, _cyclotomic(e))
        if any(len(g) != 2 for g, _ in factor_nf(L, phi)):
            return False
    return True


def probabilistic_galois_check(
    cover: Cover, samples: int = 32, seed: int | None = None
) -> bool:
    """Sample specializations and check the Galois signature: at a prime of
    good, squarefree reduction the irreducible factors of P(t0, Y) mod p
    all share one degree.  A regular Galois cover passes always; most
    non-Galois inputs fail within a few samples."""
    if seed is None:
        seed = seed_from_env()
    rng = random.Random(seed)
    bad = conservative_bad_primes(cover)
    primes = [q for q in range(3, 300) if is_prime(q) and q not in bad]
    done = 0
    attempts = 0
    while done < samples and attempts < samples * 40:
        attempts += 1
        t0 = Fraction(rng.randrange(-999, 1000))
        p = rng.choice(primes)
        f_t0 = cover.poly.at(t0)
        try:
            degs = set(frobenius_data(f_t0, p))
        except (NotSeparable, DomainError):
            continue
        if len(degs) != 1:
            return False
        done += 1
    return True
