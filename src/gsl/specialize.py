"""Specialization of a cover at rational points: tame predictions and
their verification against the p-adic oracle.

The prediction machinery, given a specialization point t0 and a prime p
outside the cover's conservative bad set:

  * find where t0 meets the branch divisor: `meetings` is the one path
    from t0 to its meetings, for `meeting_prime`, `predict_decomposition`
    and `verify_specialization` alike.  It evaluates each finite branch
    locus m at t0 once and refuses a point on a branch locus (m(t0) = 0),
    whatever the primes; then it refuses a given p that is not prime;
    then it reads the multiplicities.  The primes are the given ones or,
    when none are given, those found by factoring t0's denominator and
    each m(t0).  At every prime the multiplicity is a valuation:
    v_p(m(t0)) for a finite locus (p-integral t0) and -v_p(t0) for the
    point at infinity;
  * no meeting predicts an unramified specialization;
  * a meeting of multiplicity a against a branch of inertia order e
    predicts ramification index e / gcd(a, e); when gcd(a, e) = 1 the
    prediction is exact and pins the residue degree f as the Frobenius
    order in the branch residue field at the meeting place, looked up in
    the branch's table at p (`covers.frobenius_orders`); otherwise only
    divisibility information survives (f is a multiple of that order);
  * every prediction is checked against the independent local splitting
    oracle and the comparison recorded as a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .covers import BranchPoint, Cover, branch_points, conservative_bad_primes, frobenius_orders
from .errors import (
    ChartMixing,
    DomainError,
    HypothesisViolation,
    MeetingUniquenessError,
    NonUniform,
    NotFound,
    PrecisionExhausted,
    WildOrIrregular,
)
from .exact import (
    JsonRecord,
    Rat,
    UniPoly,
    _int_val,
    crt_combine,
    disc_y,  # unused here; bench/spans.py requires this binding
    factor_int,
    is_prime,
)
from .modp import prime_field
from .padic import LocalSplittingType, local_splitting_type, quadratic_local_class


# ---------------------------------------------------------------------------
# meetings


@dataclass(frozen=True)
class MeetingDatum(JsonRecord):
    """t0 meets one branch locus at p: with which multiplicity, and at
    which residue (the common value of t0 and the locus root mod p; 0 on
    the 1/T chart for the point at infinity)."""

    prime: int
    locus: UniPoly | None
    multiplicity: int
    residue: int


def meetings(
    branches: Sequence[BranchPoint], t0: Rat, primes: Sequence[int] | None = None
) -> dict[int, tuple[tuple[BranchPoint, int], ...]]:
    """Where t = t0 meets the branch divisor: each prime of t0's
    denominator and of the numerator and denominator of every m(t0), mapped
    to the (branch, multiplicity) pairs met there, in the order of
    `branches` (empty when none is met).  A finite locus m is met at p with
    multiplicity v_p(m(t0)) > 0 when t0 is p-integral, the point at
    infinity with -v_p(t0) > 0.  Given `primes`, only those are mapped and
    nothing is factored.

    The one order of refusals: each finite locus is evaluated once, and a
    point on a branch locus is refused first (HypothesisViolation); then
    each given prime, in ascending order, passes the one primality gate,
    `modp.prime_field` (DomainError "{p} is not prime"); then the
    multiplicities are read, each a valuation (`exact._int_val`)."""
    t0 = Fraction(t0)
    evaluated = []
    for bp in branches:
        mval = None if bp.locus is None else bp.locus(t0)
        if mval == 0:
            raise HypothesisViolation(
                f"specialization point {t0} lies on a branch locus"
            )
        evaluated.append((bp, mval))
    if primes is None:
        keys = set(factor_int(t0.denominator))
        for _, mval in evaluated:
            if mval is not None:
                keys.update(factor_int(mval.numerator), factor_int(mval.denominator))
    else:
        keys = sorted(set(primes))
        for p in keys:
            prime_field(p)
    met = {}
    for p in keys:
        pole = _int_val(t0.denominator, p)
        pairs = []
        for bp, mval in evaluated:
            # a finite locus can meet t0 at p only where t0 is p-integral
            a = pole if mval is None else 0 if pole else _int_val(mval.numerator, p)
            if a:
                pairs.append((bp, a))
        met[p] = tuple(pairs)
    return met


def _meeting(pairs: Sequence[tuple[BranchPoint, int]], t0: Fraction, p: int) -> MeetingDatum | None:
    """The datum of the unique meeting among `meetings(...)[p]`, or None.
    Raises MeetingUniquenessError when several loci meet t0 at p (only
    possible at a bad prime)."""
    if not pairs:
        return None
    if len(pairs) > 1:
        names = [
            "infinity" if bp.locus is None else str(bp.locus.to_json())
            for bp, _ in pairs
        ]
        raise MeetingUniquenessError(
            f"t0 = {t0} meets several branch loci at p = {p}: {names}; "
            "treat p as a bad prime"
        )
    [(bp, a)] = pairs
    residue = 0 if bp.locus is None else prime_field(p).from_rat(t0)
    return MeetingDatum(prime=p, locus=bp.locus, multiplicity=a, residue=residue)


def meeting_prime(
    branches: Sequence[BranchPoint], t0: Rat, p: int
) -> MeetingDatum | None:
    """The unique branch that t = t0 meets above p, or None.  Raises
    MeetingUniquenessError when several loci meet t0 at the same prime
    (only possible at a bad prime)."""
    t0 = Fraction(t0)
    return _meeting(meetings(branches, t0, (p,))[p], t0, p)


def meeting_primes(branches: Sequence[BranchPoint], t0: Rat) -> list[int]:
    """All primes where t = t0 meets some branch locus: the keys of
    `meetings` whose tuple is not empty."""
    return sorted(p for p, pairs in meetings(branches, t0).items() if pairs)


# ---------------------------------------------------------------------------
# predictions


@dataclass(frozen=True)
class DecompositionPrediction(JsonRecord):
    """Predicted local invariants of the specialized splitting field at p.

    mode "exact": inertia e and residue degree f are both pinned.
    mode "divisible": e is pinned, f is a multiple of f_lower.
    mode "unramified": e = 1, nothing claimed about f."""

    prime: int
    mode: str
    e: int
    f: int | None
    f_lower: int | None
    meeting: MeetingDatum | None


def predict_decomposition(cover: Cover, t0: Rat, p: int) -> DecompositionPrediction:
    """The tame prediction at p for the specialization at t0.  Nothing is
    claimed at a prime of the cover's conservative bad set: after a point
    on a branch locus, such a p is refused with HypothesisViolation."""
    branches = branch_points(cover)
    t0 = Fraction(t0)
    pairs = meetings(branches, t0, (p,))[p]
    if p in conservative_bad_primes(cover):
        raise HypothesisViolation(
            f"p = {p} is in the cover's conservative bad set; "
            "no prediction is claimed there"
        )
    return _predict(pairs, t0, p)


def _predict(pairs: Sequence[tuple[BranchPoint, int]], t0: Fraction, p: int) -> DecompositionPrediction:
    meet = _meeting(pairs, t0, p)
    if meet is None:
        return DecompositionPrediction(
            prime=p, mode="unramified", e=1, f=None, f_lower=None, meeting=None,
        )
    branch = pairs[0][0]
    e = branch.ram_index
    g = math.gcd(meet.multiplicity, e)
    fb = frobenius_orders(branch, p)[meet.residue]
    if fb is None:
        raise NonUniform(
            f"branch residue data degenerates at p = {p}; "
            "the prime must be treated as bad"
        )
    if g == 1:
        return DecompositionPrediction(
            prime=p, mode="exact", e=e, f=fb, f_lower=None, meeting=meet,
        )
    return DecompositionPrediction(
        prime=p, mode="divisible", e=e // g, f=None, f_lower=fb, meeting=meet,
    )


# ---------------------------------------------------------------------------
# specialization and verification


def specialize_poly(cover: Cover, t0: Rat) -> UniPoly:
    """P(t0, Y); refuses points on the discriminant locus.  It is computed
    on the cover's integer rows (`BiPoly.at`: one homogeneous Horner pass
    per row at t0 = n/d, over one common denominator a d^D), and it is
    stored as those ints, so the oracle reads it without clearing a
    denominator again."""
    t0 = Fraction(t0)
    if cover.analysis.disc_sf(t0) == 0:
        raise HypothesisViolation(
            f"t0 = {t0} lies on the branch locus of the cover"
        )
    return cover.poly.at(t0)


MATCH = "MATCH"
PARTIAL_MATCH = "PARTIAL_MATCH"
MISMATCH = "MISMATCH"
SKIPPED_BAD_PRIME = "SKIPPED_BAD_PRIME"
ORACLE_FAILURE = "ORACLE_FAILURE"


@dataclass(frozen=True)
class ReportEntry(JsonRecord):
    """One prime of one specialization: the prediction, what the oracle
    said, and the comparison verdict."""

    prime: int
    prediction: DecompositionPrediction | None
    oracle: LocalSplittingType | None
    verdict: str
    note: str = ""


@dataclass(frozen=True)
class SpecializationReport(JsonRecord):
    cover: str
    t0: Rat
    entries: tuple[ReportEntry, ...]

    @property
    def worst(self) -> str:
        order = [MISMATCH, ORACLE_FAILURE, PARTIAL_MATCH, SKIPPED_BAD_PRIME, MATCH]
        for v in order:
            if any(e.verdict == v for e in self.entries):
                return v
        return MATCH


def _uniform_ef(st: LocalSplittingType) -> tuple[int, int] | None:
    efs = {(e, f) for e, f, _ in st.factors}
    if len(efs) == 1:
        return efs.pop()
    return None


def _compare(pred: DecompositionPrediction, st: LocalSplittingType) -> tuple[str, str]:
    if pred.mode == "unramified":
        if st.is_unramified:
            return MATCH, ""
        return MISMATCH, "predicted unramified, oracle found ramification"
    ef = _uniform_ef(st)
    if ef is None:
        return MISMATCH, (
            "oracle splitting is not isotypic; a Galois specialization "
            "cannot do this at a good prime"
        )
    e, f = ef
    if pred.mode == "exact":
        if (e, f) == (pred.e, pred.f):
            return MATCH, ""
        return MISMATCH, f"predicted (e, f) = ({pred.e}, {pred.f}), oracle found ({e}, {f})"
    # divisible mode
    if e == pred.e and pred.f_lower is not None and f % pred.f_lower == 0:
        return PARTIAL_MATCH, ""
    return MISMATCH, (
        f"predicted e = {pred.e} with {pred.f_lower} | f, "
        f"oracle found (e, f) = ({e}, {f})"
    )


def verify_specialization(
    cover: Cover,
    t0: Rat,
    primes: Sequence[int] | None = None,
    branches: Sequence[BranchPoint] | None = None,
    bad: frozenset[int] | None = None,
) -> SpecializationReport:
    """Predict and verify the local behaviour of the specialization at t0.

    With primes=None, the primes examined are those of t0's denominator
    and of the numerator and denominator of each m(t0), the keys of
    `meetings`.  They hold every prime where t0 meets the branch divisor,
    the only primes where anything nontrivial is predicted, and can hold
    primes where nothing is met, which get an "unramified" prediction.
    Given primes are examined once each, in ascending order.  It refuses
    what `meetings` refuses, in its order, then a t0 on the discriminant
    locus (`specialize_poly`).  Each prime gets a verdict: MATCH / PARTIAL_MATCH (divisibility-mode
    agreement) / MISMATCH / SKIPPED_BAD_PRIME / ORACLE_FAILURE.

    `branches` and `bad` default to the cover's own analysis; they stay
    only because the benchmark's sweep workload (bench/workloads.py)
    passes them."""
    t0 = Fraction(t0)
    if branches is None:
        branches = branch_points(cover)
    if bad is None:
        bad = conservative_bad_primes(cover)
    met = meetings(branches, t0, primes)
    f_t0 = specialize_poly(cover, t0)
    entries = []
    for p in sorted(met):
        if p in bad or p == 2:
            entries.append(ReportEntry(
                prime=p, prediction=None, oracle=None,
                verdict=SKIPPED_BAD_PRIME,
                note="prime is in the cover's conservative bad set",
            ))
            continue
        try:
            pred = _predict(met[p], t0, p)
        except (MeetingUniquenessError, NonUniform) as exc:
            entries.append(ReportEntry(
                prime=p, prediction=None, oracle=None,
                verdict=ORACLE_FAILURE, note=f"prediction failed: {exc}",
            ))
            continue
        try:
            st = local_splitting_type(f_t0, p)
        except (WildOrIrregular, PrecisionExhausted) as exc:
            entries.append(ReportEntry(
                prime=p, prediction=pred, oracle=None,
                verdict=ORACLE_FAILURE, note=str(exc),
            ))
            continue
        verdict, note = _compare(pred, st)
        entries.append(ReportEntry(
            prime=p, prediction=pred, oracle=st, verdict=verdict, note=note,
        ))
    return SpecializationReport(cover=cover.name, t0=t0, entries=tuple(entries))


# ---------------------------------------------------------------------------
# constructing specialization points


def approximate_specialization_point(
    congruences: Sequence[tuple[int, int]],
    denominators: Sequence[tuple[int, int]] = (),
) -> Rat:
    """A rational t0 with prescribed finite-chart congruences and
    prescribed pole orders at other primes.

    congruences: pairs (modulus, residue) forcing t0 = residue (mod
    modulus) with t0 integral at the primes of the modulus.
    denominators: pairs (p, k) forcing v_p(t0) = -k.

    The two charts cannot be mixed at one prime (ChartMixing).

    approximate_specialization_point([(25, 10), (49, 7)]) == 1085
    """
    den = 1
    den_primes = []
    for p, k in denominators:
        if not is_prime(p):
            raise DomainError(f"denominator prime {p} is not prime")
        if k < 1:
            raise DomainError("pole order must be >= 1")
        den *= p**k
        den_primes.append(p)
    for m, _ in congruences:
        if m <= 0:
            raise DomainError(f"modulus {m} must be positive")
        for p in den_primes:
            if m % p == 0:
                raise ChartMixing(
                    f"prime {p} appears both as a congruence modulus factor "
                    "and as a denominator prime"
                )
    pairs = [(m, r * den % m) for m, r in congruences]
    for p in den_primes:
        pairs.append((p, 1))  # keep the numerator a p-unit
    if not pairs:
        return Fraction(0)
    x = crt_combine(pairs)
    if x == 0:
        x = math.prod(m for m, _ in pairs)
    return Fraction(x, den)


def realize_local_class(cover: Cover, p: int, target: str, bound: int | None = None) -> int:
    """The least positive integer t0 whose value m(t0) under the first
    finite branch locus lies in the requested square class of Q_p
    ("1", "u", "p", "up"); p must be odd."""
    if target not in ("1", "u", "p", "up"):
        raise DomainError("target class must be one of '1', 'u', 'p', 'up'")
    locus = next((bp.locus for bp in branch_points(cover) if bp.locus is not None), None)
    if locus is None:
        raise NotFound("cover has no finite branch locus")
    if bound is None:
        bound = 16 * p * p
    for t0 in range(1, bound + 1):
        mval = locus(Fraction(t0))
        if mval == 0:
            continue
        if quadratic_local_class(mval, p) == target:
            return t0
    raise NotFound(
        f"no specialization point below {bound} realizes class {target} at {p}"
    )
