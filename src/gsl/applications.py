"""Applications of verified specialization data: adequacy certificates for
crossed-product constructions, Frobenius prime search in branch residue
fields, and obstruction certificates for parametric families.

Every certificate in this module carries a transcript of oracle outputs;
nothing is asserted that was not re-derived from the p-adic oracle at
certificate-build time, so a consumer can replay the transcript and check
each line independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .covers import BranchPoint, Cover, branch_points, conservative_bad_primes, frobenius_orders
from .errors import DomainError, HypothesisViolation, NotFound, NotSeparable, PrecisionExhausted, WildOrIrregular
from .exact import JsonRecord, Rat, UniPoly, discriminant, factor_int, is_prime, rational_valuation, _valuation
from .modp import frobenius_data
from .nfield import is_irreducible_rational
from .padic import LocalSplittingType, local_splitting_type
from .specialize import specialize_poly


# ---------------------------------------------------------------------------
# Frobenius primes in branch residue fields


def find_frobenius_primes(cover: Cover, order: int, bound: int) -> list[int]:
    """Odd primes p <= bound, outside the cover's bad set, where Frobenius
    acts with the requested order on the branch residue fields (the lcm of
    the residue degrees of p across the absolute residue fields of all
    branch points)."""
    if order < 1:
        raise DomainError("Frobenius order must be >= 1")
    bad = conservative_bad_primes(cover)
    out = []
    for p in range(3, bound + 1):
        if not is_prime(p) or p in bad:
            continue
        f = 1
        ok = True
        for M in cover.analysis.residue_moduli:
            try:
                f = math.lcm(f, *frobenius_data(M, p))
            except NotSeparable:
                ok = False
                break
        if ok and f == order:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# adequacy certificates (crossed-product criterion)


@dataclass(frozen=True)
class AdequacyWitness(JsonRecord):
    """One odd tame prime witnessing local depth for one prime divisor of
    the degree: some completion of the field has e*f with the required
    power of ell."""

    prime: int
    e: int
    f: int
    ramified: bool
    oracle: LocalSplittingType


@dataclass(frozen=True)
class AdequacyCertificate(JsonRecord):
    """Witness data for the crossed-product adequacy of a number field
    K = Q[Y]/(poly): for each prime ell dividing n = deg(poly), two
    distinct odd tame primes where some completion K_w has
    v_ell([K_w : Q_p]) >= v_ell(n).  `adequate` says whether every ell got
    its two witnesses within the search bound.  `searched` is the scan
    transcript (ramified candidates first, then inert ones, ascending)."""

    poly: UniPoly
    degree: int
    witnesses: dict[int, tuple[AdequacyWitness, ...]]
    adequate: bool
    searched: tuple[int, ...]
    bound: int


def _qualifies(st: LocalSplittingType, ell: int, a: int) -> tuple[int, int] | None:
    """The (e, f) of a local factor with v_ell(e*f) >= a, if any."""
    for e, f, _ in st.factors:
        if e * f % ell**a == 0:
            return (e, f)
    return None


def adequacy_certificate_for_field(
    poly: UniPoly, bound: int = 200
) -> AdequacyCertificate:
    """Search for an adequacy certificate for Q[Y]/(poly).

    Candidate primes are scanned ramified-first: odd primes dividing the
    discriminant (ascending), then the remaining odd primes up to the
    bound.  A prime is skipped when the oracle cannot certify it (wild or
    otherwise irregular)."""
    n = poly.degree
    if n < 2:
        raise DomainError("adequacy needs a field of degree >= 2")
    if not is_irreducible_rational(poly):
        raise DomainError("adequacy certificate needs an irreducible polynomial")
    ells = sorted(factor_int(n))
    need = {ell: rational_valuation(n, ell) for ell in ells}
    disc = discriminant(poly)
    ram = sorted(
        p for p in set(factor_int(disc.numerator)) | set(factor_int(disc.denominator))
        if p != 2
    )
    ram_set = set(ram)
    witnesses: dict[int, list[AdequacyWitness]] = {ell: [] for ell in ells}
    searched: list[int] = []

    def done() -> bool:
        return all(len(witnesses[ell]) >= 2 for ell in ells)

    def candidates():
        yield from ram
        p = 3
        while p <= bound:
            if is_prime(p) and p not in ram_set:
                yield p
            p += 2

    for p in candidates():
        if done():
            break
        searched.append(p)
        try:
            st = local_splitting_type(poly, p)
        except (WildOrIrregular, PrecisionExhausted):
            continue
        for ell in ells:
            if len(witnesses[ell]) >= 2:
                continue
            got = _qualifies(st, ell, need[ell])
            if got is not None:
                e, f = got
                witnesses[ell].append(AdequacyWitness(
                    prime=p, e=e, f=f, ramified=p in ram_set, oracle=st,
                ))
    return AdequacyCertificate(
        poly=poly,
        degree=n,
        witnesses={ell: tuple(ws) for ell, ws in witnesses.items()},
        adequate=done(),
        searched=tuple(searched),
        bound=bound,
    )


def adequacy_certificate(
    cover: Cover, t0: Rat, bound: int = 200
) -> AdequacyCertificate:
    """Adequacy certificate for the specialization of the cover at t0."""
    return adequacy_certificate_for_field(specialize_poly(cover, t0), bound)


def adequate_specialization_search(
    cover: Cover,
    start: int = 2,
    count: int = 200,
    bound: int = 200,
) -> tuple[int, AdequacyCertificate]:
    """The first integer t0 >= start (scanning count values) whose
    specialization admits an adequacy certificate.  Points on the branch
    locus and points with a reducible specialization are skipped; NotFound
    when no point qualifies."""
    for t0 in range(start, start + count):
        try:
            poly = specialize_poly(cover, t0)
        except HypothesisViolation:
            continue
        if not is_irreducible_rational(poly):
            continue
        cert = adequacy_certificate_for_field(poly, bound)
        if cert.adequate:
            return t0, cert
    raise NotFound(
        f"no adequate specialization found in [{start}, {start + count})"
    )


# ---------------------------------------------------------------------------
# obstruction certificates


@dataclass(frozen=True)
class ObstructionTranscript(JsonRecord):
    """One sampled specialization at one obstruction prime: the oracle
    output and whether it satisfies the local smallness law
    (e = 1, or e*f divides the branch inertia order).  The splitting is
    None only in a `RefusedTranscript`."""

    prime: int
    t0: Rat
    locus: UniPoly | None
    splitting: LocalSplittingType | None
    ok: bool


@dataclass(frozen=True)
class RefusedTranscript(ObstructionTranscript):
    """A sample the oracle refused (WildOrIrregular, PrecisionExhausted):
    no splitting, not ok, and a note naming the refusal."""

    note: str


def _transcript(
    cover: Cover, p: int, t0: Rat, locus: UniPoly | None, small
) -> ObstructionTranscript:
    """The transcript of the sample t0 at p, ok when the oracle's splitting
    satisfies `small`; a refused sample when the oracle refuses."""
    try:
        st = local_splitting_type(specialize_poly(cover, t0), p)
    except (WildOrIrregular, PrecisionExhausted) as exc:
        return RefusedTranscript(
            prime=p, t0=t0, locus=locus, splitting=None, ok=False,
            note=f"oracle refused: {type(exc).__name__}: {exc}",
        )
    return ObstructionTranscript(prime=p, t0=t0, locus=locus, splitting=st, ok=small(st))


@dataclass(frozen=True)
class ObstructionCertificate(JsonRecord):
    """Primes where every rational specialization of the cover is locally
    small: p = 1 mod q, every branch locus splits into distinct linear
    factors mod p, and every branch residue polynomial splits likewise at
    every meeting residue.  At such p no specialization can have local
    degree exceeding its branch inertia order, so local behaviour needing
    the full group there is unreachable -- checked on sampled t0 in the
    transcripts."""

    cover: str
    q: int
    bound: int
    primes: tuple[int, ...]
    transcripts: tuple[ObstructionTranscript, ...]
    all_ok: bool


def _obstruction_residues(
    p: int, q: int, branches: Sequence[BranchPoint], bad: frozenset[int]
) -> list[list[int]] | None:
    """The meeting residues of each branch at p, in the order of
    `branches`, when p is an obstruction prime; None otherwise.

    p is one when it is an odd good prime with p = 1 mod q, every finite
    locus splits into distinct linear factors mod p (its residues are
    its roots mod p; the point at infinity meets at residue 0), and at
    every residue the branch residue field splits completely: Frobenius
    has order 1 there.  Both are read off `covers.frobenius_orders`, the
    table a prediction reads (a residue field that degenerates at p, an
    entry None, makes p no obstruction prime)."""
    if p in bad or p % q != 1 or not is_prime(p):
        return None
    out = []
    for bp in branches:
        table = frobenius_orders(bp, p)
        if len(table) != bp.residue.base.degree or any(f != 1 for f in table.values()):
            return None
        out.append(list(table))
    return out


def _sample_t0(bp: BranchPoint, roots: Sequence[int], p: int) -> list[Rat]:
    """Specialization points meeting bp at p with multiplicity one, one
    per meeting residue in `roots`."""
    if bp.locus is None:
        return [Fraction(1, p)]
    out = []
    for a in roots:
        for k in range(0, 4):
            t0 = Fraction(a + k * p)
            mval = bp.locus(t0)
            if mval != 0 and _valuation(mval, p) == 1:
                out.append(t0)
                break
    return out


def grunwald_obstruction(cover: Cover, q: int, bound: int) -> ObstructionCertificate:
    """Find the obstruction primes up to the bound and document, on
    sampled specializations, that the local invariants stay small there."""
    if q < 2:
        raise DomainError("q must be >= 2")
    branches = branch_points(cover)
    bad = conservative_bad_primes(cover)
    residues = {
        p: r for p in range(3, bound + 1)
        if (r := _obstruction_residues(p, q, branches, bad)) is not None
    }
    transcripts: list[ObstructionTranscript] = []
    for p, roots in residues.items():
        for bp, rts in zip(branches, roots):
            e_i = bp.ram_index
            for t0 in _sample_t0(bp, rts, p):
                transcripts.append(_transcript(
                    cover, p, t0, bp.locus,
                    lambda st: all(e == 1 or e_i % (e * f) == 0 for e, f, _ in st.factors),
                ))
        # one non-meeting sample: expect unramified.  At a good p each
        # finite locus is monic and p-integral, so m(t) is a p-unit exactly
        # when t mod p is none of its roots: the least such t in [1, p].
        # None when every residue mod p is a root of a finite locus: then
        # no p-integral t0 avoids the loci, and p has no such sample.
        met = {a for bp, rts in zip(branches, roots) if bp.locus is not None for a in rts}
        t0 = next((Fraction(t) for t in range(1, p + 1) if t % p not in met), None)
        if t0 is None:
            continue
        transcripts.append(_transcript(
            cover, p, t0, None, lambda st: st.is_unramified,
        ))
    return ObstructionCertificate(
        cover=cover.name,
        q=q,
        bound=bound,
        primes=tuple(residues),
        transcripts=tuple(transcripts),
        all_ok=all(t.ok for t in transcripts),
    )


HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"
OBSTRUCTION_PRESENT = "OBSTRUCTION_PRESENT"
NO_OBSTRUCTION_FOUND = "NO_OBSTRUCTION_FOUND"


@dataclass(frozen=True)
class ParametricObstructionReport(JsonRecord):
    """Obstruction analysis for the parametric family of specializations.

    The interpretation of the obstruction primes (that no parametric set
    of specializations exhausts all local behaviour at them) requires the
    group to contain a non-cyclic abelian subgroup of exponent q.  The
    report checks the computable necessary condition q^2 | group order and
    q dividing at least two branch inertia orders; when it fails, the
    hypothesis provably cannot hold and the status says so.  When it
    holds, the status assumes the subgroup exists and says so in
    `assumption`."""

    cover: str
    q: int
    status: str
    assumption: str
    certificate: ObstructionCertificate | None


def parametric_obstruction_report(
    cover: Cover, q: int, bound: int
) -> ParametricObstructionReport:
    if q < 2:
        raise DomainError("q must be >= 2")
    branches = branch_points(cover)
    n = cover.group_order
    q_branches = sum(1 for bp in branches if bp.ram_index % q == 0)
    if n % (q * q) != 0 or q_branches < 2:
        return ParametricObstructionReport(
            cover=cover.name, q=q, status=HYPOTHESIS_NOT_MET,
            assumption=(
                f"a non-cyclic abelian subgroup of exponent {q} needs "
                f"{q}^2 | {n} and at least two branches with {q} | e; "
                "this cover provably has none"
            ),
            certificate=None,
        )
    cert = grunwald_obstruction(cover, q, bound)
    status = (
        OBSTRUCTION_PRESENT if cert.primes and cert.all_ok else NO_OBSTRUCTION_FOUND
    )
    return ParametricObstructionReport(
        cover=cover.name, q=q, status=status,
        assumption=(
            "assumes the cover group contains a non-cyclic abelian "
            f"subgroup of exponent {q} (necessary conditions verified: "
            f"{q}^2 | {n}, {q_branches} branches with {q} | e)"
        ),
        certificate=cert,
    )
