"""Tame predictions at specialization points and their verification."""

import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gsl.specialize
from gsl.covers import RelativeField
from gsl.covers import BranchPoint, branch_points, conservative_bad_primes
from gsl.errors import (
    ChartMixing,
    DomainError,
    HypothesisViolation,
    MeetingUniquenessError,
    NonUniform,
    NotFound,
    WildOrIrregular,
)
from gsl.exact import UniPoly, crt_combine
from gsl.padic import LocalSplittingType, quadratic_local_class
from gsl.specialize import (
    MATCH,
    MISMATCH,
    ORACLE_FAILURE,
    PARTIAL_MATCH,
    SKIPPED_BAD_PRIME,
    ReportEntry,
    SpecializationReport,
    approximate_specialization_point,
    meeting_prime,
    meeting_primes,
    predict_decomposition,
    realize_local_class,
    specialize_poly,
    verify_specialization,
)


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


def _branch(locus, e=2):
    rel = RelativeField(base=locus, rel=(UniPoly(), UniPoly.const(Fraction(1))))
    return BranchPoint(locus=locus, ram_index=e, residue=rel, d_order=1)


# ---------------------------------------------------------------------------
# meeting data


def test_intersection_multiplicity_finite():
    b = _branch(upoly(0, 1))  # locus T
    assert meeting_prime([b], Fraction(50), 5).multiplicity == 2
    assert meeting_prime([b], Fraction(3), 5) is None
    assert meeting_prime([b], Fraction(1, 5), 5) is None  # pole: misses finite chart


def _infinity(e=2):
    rel = RelativeField(base=upoly(0, 1), rel=(UniPoly(), UniPoly.const(Fraction(1))))
    return BranchPoint(locus=None, ram_index=e, residue=rel, d_order=1)


def test_intersection_multiplicity_infinity():
    b = _infinity()
    assert meeting_prime([b], Fraction(1, 5), 5).multiplicity == 1
    assert meeting_prime([b], Fraction(7, 25), 5).multiplicity == 2
    assert meeting_prime([b], Fraction(5), 5) is None


def test_specializing_at_branch_point_rejected():
    b = _branch(upoly(0, 1))
    with pytest.raises(HypothesisViolation):
        meeting_prime([b], Fraction(0), 5)


def test_a_point_on_a_branch_locus_is_refused_at_every_prime():
    # 1/5 is a pole at 5 and lies on the locus T - 1/5 all the same
    b = _branch(upoly(Fraction(-1, 5), 1))
    for p in (3, 5, 7):
        with pytest.raises(HypothesisViolation, match="lies on a branch locus"):
            meeting_prime([b], Fraction(1, 5), p)


def test_meetings_by_prime_in_branch_order():
    b1 = _branch(upoly(0, 1))       # T
    b2 = _branch(upoly(-10, 1))     # T - 10
    inf = _infinity()
    meetings = gsl.specialize.meetings
    met = meetings([b1, inf, b2], Fraction(25, 3))
    # 25/3 - 10 = -5/3; the pole at 3 meets infinity only
    assert met == {3: ((inf, 1),), 5: ((b1, 2), (b2, 1))}
    assert meeting_primes([b1, inf, b2], Fraction(25, 3)) == [3, 5]
    assert meetings([b1, b2], Fraction(22)) == {2: ((b1, 1), (b2, 2)), 3: ((b2, 1),), 11: ((b1, 1),)}
    # -69/7 at 1/7: the pole at 7 meets nothing without a branch at infinity
    assert meetings([b2], Fraction(1, 7)) == {3: ((b2, 1),), 7: (), 23: ((b2, 1),)}
    assert meeting_primes([b2], Fraction(1, 7)) == [3, 23]


def test_meeting_entries_reject_a_composite_modulus():
    # p is tested once at the public entry; the loop behind it trusts it
    b = _branch(upoly(0, 1))
    with pytest.raises(DomainError):
        meeting_prime([b], Fraction(50), 25)


@pytest.mark.parametrize("bad", [1, 0, -3, 4])
def test_meetings_gate_each_given_prime(monkeypatch, bad):
    # v_1(n) has no end: the valuation loop must never see a non-prime, and
    # the gate names the offender
    def valuation(n, p):
        if p < 2:
            raise AssertionError(f"valuation at {p}")
        return real(n, p)

    real = gsl.specialize._int_val
    monkeypatch.setattr(gsl.specialize, "_int_val", valuation)
    b = _branch(upoly(0, 1))
    with pytest.raises(DomainError, match=f"{bad} is not prime"):
        gsl.specialize.meetings([b, _infinity()], Fraction(3), [5, bad])
    assert gsl.specialize.meetings([b], Fraction(3), [3]) == {3: ((b, 1),)}


@pytest.mark.parametrize("name, t0, primes", [
    ("c2_sqrt_t", Fraction(0), (4,)),
    ("v4_sqrt_t_sqrt_t_minus_1", Fraction(1), (9, 4)),
], ids=["c2", "v4"])
def test_a_point_on_a_branch_locus_is_refused_before_any_prime(covers, name, t0, primes):
    # one order of refusals on every path from t0 to its meetings: the
    # branch locus speaks first, even when no given prime is a prime
    cover = covers[name]
    branches = branch_points(cover)
    want = f"specialization point {t0} lies on a branch locus"
    calls = [
        lambda: gsl.specialize.meetings(branches, t0, primes),
        lambda: verify_specialization(cover, t0, primes),
        *(lambda p=p: meeting_prime(branches, t0, p) for p in primes),
        *(lambda p=p: predict_decomposition(cover, t0, p) for p in primes),
    ]
    for call in calls:
        with pytest.raises(HypothesisViolation) as exc:
            call()
        assert str(exc.value) == want


def test_meeting_uniqueness():
    b1 = _branch(upoly(0, 1))       # T
    b2 = _branch(upoly(-10, 1))     # T - 10
    with pytest.raises(MeetingUniquenessError):
        meeting_prime([b1, b2], Fraction(5), 5)  # both met at p = 5


def test_meeting_primes_v4(branch_table):
    branches = branch_table["v4_sqrt_t_sqrt_t_minus_1"]
    assert meeting_primes(branches, Fraction(21)) == [2, 3, 5, 7]
    assert meeting_primes(branches, Fraction(1, 5)) == [2, 5]  # pole meets infinity


def test_meeting_primes_leave_out_the_primes_where_nothing_is_met(branch_table):
    # C3 has no branch at infinity, so the poles 2 and 5 of t0 meet nothing;
    # m(t0) = 14281/1600 for m = T^2 + 3T + 9
    branches = branch_table["c3_shanks"]
    t0 = Fraction(-1, 40)
    assert sorted(gsl.specialize.meetings(branches, t0)) == [2, 5, 14281]
    assert meeting_primes(branches, t0) == [14281]


def _seeded_points(rng, count):
    """Rational t0 that meet the loci T and T - 1 (and infinity) at small
    primes with various multiplicities, next to large prime factors."""
    out = []
    for _ in range(count):
        p = rng.choice([3, 5, 7, 11])
        k = rng.randint(1, 4)
        shape = rng.randrange(3)
        if shape == 0:
            t0 = Fraction(p**k * rng.randint(1, 2000))
        elif shape == 1:
            t0 = 1 + Fraction(p**k * rng.randint(-2000, 2000))
        else:
            t0 = Fraction(rng.randint(-2000, 2000), p**k)
        out.append(t0)
    return out


def _outcome(fn, *args):
    """fn(*args), or the refusal it raised (a branch residue field may
    degenerate at a bad prime)."""
    try:
        return fn(*args)
    except NonUniform as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_single_prime_questions_agree_with_the_full_meetings_without_factoring(
        covers, monkeypatch, seed):
    # differential: the full map (every m(t0) factored) is recorded first;
    # with factoring made to fail, the entry points asked about given primes
    # must read the same meetings off valuations
    rng = random.Random(seed)
    recorded = []
    for name in sorted(covers):
        cover = covers[name]
        branches = branch_points(cover)
        for t0 in _seeded_points(rng, 6):
            try:
                full = gsl.specialize.meetings(branches, t0)
            except HypothesisViolation:
                continue
            report = verify_specialization(cover, t0)
            recorded.append((cover, branches, t0, full, report))

    def no_factoring(n):
        raise AssertionError("a question about given primes factored an integer")

    monkeypatch.setattr(gsl.specialize, "factor_int", no_factoring)
    for cover, branches, t0, full, report in recorded:
        primes = sorted(set(full) | {3, 5, 7, 11, 13})
        assert gsl.specialize.meetings(branches, t0, primes) == {
            p: full.get(p, ()) for p in primes}
        for p in primes:
            pairs = full.get(p, ())
            if len(pairs) > 1:
                with pytest.raises(MeetingUniquenessError):
                    meeting_prime(branches, t0, p)
                continue
            meet = meeting_prime(branches, t0, p)
            if not pairs:
                assert meet is None
            else:
                [(bp, a)] = pairs
                assert (meet.locus, meet.multiplicity) == (bp.locus, a)
            if p in conservative_bad_primes(cover):
                # nothing is claimed at a bad prime
                with pytest.raises(HypothesisViolation, match="conservative bad set"):
                    predict_decomposition(cover, t0, p)
            else:
                assert (_outcome(predict_decomposition, cover, t0, p)
                        == _outcome(gsl.specialize._predict, pairs, t0, p))
        assert verify_specialization(cover, t0, primes=sorted(full)) == report


def test_a_single_prime_question_at_a_huge_point_factors_nothing(covers, monkeypatch):
    # 5^170 - 1 is out of reach of the factoring; the prime asked about is not
    def no_factoring(n):
        raise AssertionError("a question about given primes factored an integer")

    monkeypatch.setattr(gsl.specialize, "factor_int", no_factoring)
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    t0 = Fraction(5**170)
    assert predict_decomposition(v4, t0, 7).mode == "unramified"
    pred = predict_decomposition(v4, t0, 5)
    assert (pred.mode, pred.e, pred.meeting.multiplicity) == ("divisible", 1, 170)
    assert meeting_prime(branch_points(v4), t0, 5) == pred.meeting


# ---------------------------------------------------------------------------
# predictions


def test_predict_exact_mode(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    pred5 = predict_decomposition(v4, Fraction(21), 5)
    assert (pred5.mode, pred5.e, pred5.f) == ("exact", 2, 1)
    pred7 = predict_decomposition(v4, Fraction(21), 7)
    assert (pred7.mode, pred7.e, pred7.f) == ("exact", 2, 2)


def test_predict_divisible_mode(covers):
    c3 = covers["c3_shanks"]
    # m(54) = 54^2 + 3*54 + 9 = 3087 = 3^2 * 7^3: multiplicity 3 at 7
    pred = predict_decomposition(c3, Fraction(54), 7)
    assert (pred.mode, pred.e, pred.f, pred.f_lower) == ("divisible", 1, None, 1)
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    pred49 = predict_decomposition(v4, Fraction(49), 7)
    assert (pred49.mode, pred49.e, pred49.f_lower) == ("divisible", 1, 2)


def test_predict_unramified_mode(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    pred = predict_decomposition(v4, Fraction(21), 11)
    assert (pred.mode, pred.e, pred.f, pred.meeting) == ("unramified", 1, None, None)


def test_predict_claims_nothing_at_a_bad_prime(covers):
    # Q(sqrt 3) is ramified at 2 (its discriminant is 12), and t0 = 3 meets
    # no branch of Y^2 - T there: an "unramified" claim would be false.  2
    # is bad for every cover, and verify skips it the same way.
    c2 = covers["c2_sqrt_t"]
    with pytest.raises(HypothesisViolation, match="p = 2 is in the cover's conservative bad set"):
        predict_decomposition(c2, Fraction(3), 2)
    assert _verdicts(verify_specialization(c2, Fraction(3), primes=[2])) == {2: SKIPPED_BAD_PRIME}
    assert predict_decomposition(c2, Fraction(3), 3).mode == "exact"


def test_specialize_poly(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    assert specialize_poly(v4, Fraction(21)).to_json() == ["1", "0", "-82", "0", "1"]
    with pytest.raises(HypothesisViolation):
        specialize_poly(covers["c2_sqrt_t"], Fraction(0))  # branch point


# ---------------------------------------------------------------------------
# verification: predictions against the oracle (frozen cases)


def _verdicts(report):
    return {e.prime: e.verdict for e in report.entries}


@pytest.mark.parametrize("t0", [Fraction(21), Fraction(210), Fraction(1001, 5)])
def test_one_verification_evaluates_each_locus_once(covers, monkeypatch, t0):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    loci = {id(bp.locus) for bp in branch_points(v4) if bp.locus is not None}
    calls = collections.Counter()
    evaluate = UniPoly.__call__

    def counting(self, x):
        if id(self) in loci:
            calls[id(self)] += 1
        return evaluate(self, x)

    monkeypatch.setattr(UniPoly, "__call__", counting)
    rep = verify_specialization(v4, t0)
    assert sum(e.prediction is not None for e in rep.entries) >= 2
    assert set(calls) == loci and set(calls.values()) == {1}
    calls.clear()
    verify_specialization(v4, t0, primes=[5, 7, 11, 13])
    assert set(calls.values()) == {1}


def test_verify_c3_at_13(covers):
    c3 = covers["c3_shanks"]
    rep = verify_specialization(c3, Fraction(13))
    v = _verdicts(rep)
    assert v[7] == MATCH and v[31] == MATCH
    for e in rep.entries:
        if e.prime in (7, 31):
            assert (e.prediction.e, e.prediction.f) == (3, 1)
            assert e.oracle.factors == ((3, 1, 1),)


def test_verify_c3_divisible_at_54(covers):
    c3 = covers["c3_shanks"]
    rep = verify_specialization(c3, Fraction(54))
    v = _verdicts(rep)
    assert v[3] == SKIPPED_BAD_PRIME
    assert v[7] == PARTIAL_MATCH
    e7 = next(e for e in rep.entries if e.prime == 7)
    assert e7.oracle.factors == ((1, 3, 1),)


def test_verify_v4_at_21(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    rep = verify_specialization(v4, Fraction(21))
    v = _verdicts(rep)
    assert v[5] == MATCH and v[7] == MATCH
    assert rep.worst in (MATCH, SKIPPED_BAD_PRIME)


def test_verify_c2_cases(covers):
    c2 = covers["c2_sqrt_t"]
    for t0, p, verdict in [
        (Fraction(5), 5, MATCH),
        (Fraction(10), 5, MATCH),
        (Fraction(1, 5), 5, MATCH),       # pole: meets infinity, e = 2
        (Fraction(50), 5, PARTIAL_MATCH), # multiplicity 2: e = 1, f free
    ]:
        rep = verify_specialization(c2, t0)
        assert _verdicts(rep)[p] == verdict, (t0, p)


def test_verify_explicit_prime_list(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    rep = verify_specialization(v4, Fraction(21), primes=[5, 11])
    assert [e.prime for e in rep.entries] == [5, 11]
    assert _verdicts(rep)[11] == MATCH  # unramified prediction confirmed


def test_a_failed_prediction_is_an_oracle_failure_entry(covers, monkeypatch):
    real = gsl.specialize.frobenius_orders

    def degenerate(branch, p):
        return {a: None for a in real(branch, p)}

    monkeypatch.setattr(gsl.specialize, "frobenius_orders", degenerate)
    rep = verify_specialization(covers["v4_sqrt_t_sqrt_t_minus_1"], Fraction(21))
    [entry] = [e for e in rep.entries if e.prime == 7]
    assert (entry.prediction, entry.oracle, entry.verdict) == (None, None, ORACLE_FAILURE)
    assert entry.note == (
        "prediction failed: branch residue data degenerates at p = 7; "
        "the prime must be treated as bad"
    )
    assert rep.worst == ORACLE_FAILURE


def test_a_failed_oracle_is_an_oracle_failure_entry(covers, monkeypatch):
    def wild(f, p):
        raise WildOrIrregular(f"wild at {p}")

    monkeypatch.setattr(gsl.specialize, "local_splitting_type", wild)
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    rep = verify_specialization(v4, Fraction(21))
    [entry] = [e for e in rep.entries if e.prime == 7]
    assert entry.prediction == predict_decomposition(v4, Fraction(21), 7)
    assert (entry.oracle, entry.verdict, entry.note) == (None, ORACLE_FAILURE, "wild at 7")
    assert rep.worst == ORACLE_FAILURE


def _answering(monkeypatch, *factors):
    """Make the oracle answer `factors` at every prime."""
    monkeypatch.setattr(gsl.specialize, "local_splitting_type",
                        lambda f, p: LocalSplittingType(p=p, factors=factors, certified=True))


@pytest.mark.parametrize("t0, p, factors, note", [
    # exact mode, (e, f) = (2, 2) predicted: f changed
    (21, 7, ((2, 1, 2),), "predicted (e, f) = (2, 2), oracle found (2, 1)"),
    # 11 meets no branch locus at t0 = 21: unramified predicted
    (21, 11, ((2, 1, 2),), "predicted unramified, oracle found ramification"),
    (21, 7, ((1, 1, 2), (2, 1, 1)),
     "oracle splitting is not isotypic; a Galois specialization cannot do this at a good prime"),
    # divisible mode at t0 = 49, e = 1 with 2 | f predicted: f = 1
    (49, 7, ((1, 1, 4),), "predicted e = 1 with 2 | f, oracle found (e, f) = (1, 1)"),
])
def test_a_contradicting_oracle_is_a_mismatch(covers, monkeypatch, t0, p, factors, note):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    pred = predict_decomposition(v4, Fraction(t0), p)
    _answering(monkeypatch, *factors)
    rep = verify_specialization(v4, Fraction(t0), primes=[p])
    [entry] = rep.entries
    assert (entry.prediction, entry.oracle.factors) == (pred, factors)
    assert (entry.verdict, entry.note) == (MISMATCH, note)
    assert rep.worst == MISMATCH


def test_worst_verdict_order():
    order = [MISMATCH, ORACLE_FAILURE, PARTIAL_MATCH, SKIPPED_BAD_PRIME, MATCH]

    def report(*verdicts):
        return SpecializationReport(cover="c", t0=Fraction(0), entries=tuple(
            ReportEntry(prime=p, prediction=None, oracle=None, verdict=v)
            for p, v in enumerate(verdicts)))

    assert report().worst == MATCH
    for i, worse in enumerate(order):
        for better in order[i:]:
            assert report(better, worse).worst == worse
            assert report(worse, better).worst == worse


def test_report_json_shape(covers):
    """The whole report for V4 at t0 = 21 = 3 * 7, with 21 - 1 = 2^2 * 5.
    2 and 3 are bad.  At 5, t0 meets T - 1 once at residue 1; the branch
    there has residue field Q (sqrt T = 1), so (e, f) = (2, 1), and the
    splitting field Q(sqrt 21, sqrt 5) has 5 ramified with 21 = 1 a square
    mod 5: two places (2, 1).  At 7, t0 meets T once at residue 0; the
    residue field is Q(sqrt(T - 1)) = Q(i) at T = 0, where 7 is inert, so
    (2, 2), and 7 ramifies in Q(sqrt 21) with 5 a non-square mod 7: one
    place (2, 2)."""
    rep = verify_specialization(covers["v4_sqrt_t_sqrt_t_minus_1"], Fraction(21))
    bad = {"prediction": None, "oracle": None, "verdict": SKIPPED_BAD_PRIME,
           "note": "prime is in the cover's conservative bad set"}

    def checked(p, locus, residue, f):
        meeting = {"prime": p, "locus": locus, "multiplicity": 1, "residue": residue}
        return {
            "prime": p,
            "prediction": {"prime": p, "mode": "exact", "e": 2, "f": f,
                           "f_lower": None, "meeting": meeting},
            "oracle": {"p": p, "factors": [{"e": 2, "f": f, "count": 4 // (2 * f)}],
                       "certified": True},
            "verdict": MATCH,
            "note": "",
        }

    assert rep.to_json() == {
        "cover": "v4_sqrt_t_sqrt_t_minus_1",
        "t0": "21",
        "entries": [
            {"prime": 2, **bad},
            {"prime": 3, **bad},
            checked(5, ["-1", "1"], 1, 1),
            checked(7, ["0", "1"], 0, 2),
        ],
    }


# ---------------------------------------------------------------------------
# constructing specialization points


def test_approximate_specialization_point_crt():
    assert approximate_specialization_point([(25, 10), (49, 7)]) == 1085


def test_approximate_specialization_point_denominators():
    t0 = approximate_specialization_point([(49, 41)], denominators=[(5, 2)])
    assert t0.denominator == 25
    assert (t0 - 41) % 49 == 0 or Fraction((t0 - 41)).numerator % 49 == 0
    # 41 mod 49 in the p-adic sense: numerator of t0 - 41 divisible by 49
    assert Fraction(t0 - 41).numerator % 49 == 0


def test_chart_mixing_rejected():
    with pytest.raises(ChartMixing):
        approximate_specialization_point([(25, 3)], denominators=[(5, 1)])


@pytest.mark.parametrize("m", [0, -3])
@pytest.mark.parametrize("denominators", [(), [(5, 1)]])
def test_a_modulus_below_one_is_refused_as_crt_combine_refuses_it(m, denominators):
    with pytest.raises(DomainError, match=rf"^modulus {m} must be positive$"):
        approximate_specialization_point([(m, 1)], denominators)
    with pytest.raises(DomainError, match=rf"^modulus {m} must be positive$"):
        crt_combine([(m, 1)])


@given(st.integers(1, 6), st.integers(0, 1000))
def test_approximate_point_congruences_hold(k, r):
    m = 7**k
    t0 = approximate_specialization_point([(m, r % m)], denominators=[(11, 1)])
    assert Fraction(t0 - (r % m)).numerator % m == 0
    assert t0.denominator % 11 == 0 and t0.denominator % 121 != 0


# ---------------------------------------------------------------------------
# realizing quadratic local classes


def test_realize_frozen_table(covers):
    c2 = covers["c2_sqrt_t"]
    frozen = {(5, "p"): 5, (5, "up"): 10, (7, "p"): 7, (7, "up"): 21,
              (11, "p"): 11, (11, "up"): 22, (13, "p"): 13, (13, "up"): 26}
    for (p, target), want in frozen.items():
        t0 = realize_local_class(c2, p, target)
        assert t0 == want, (p, target, t0)
        assert quadratic_local_class(Fraction(t0), p) == target


def test_realize_unreachable_below_bound(covers, monkeypatch):
    c2 = covers["c2_sqrt_t"]
    with pytest.raises(NotFound, match="below 3"):
        realize_local_class(c2, 5, "up", bound=3)
    # only the point at infinity branches: there is no branch value to place
    at_infinity = [bp for bp in branch_points(c2) if bp.locus is None]
    monkeypatch.setattr(gsl.specialize, "branch_points", lambda cover: at_infinity)
    with pytest.raises(NotFound, match="no finite branch locus"):
        realize_local_class(c2, 5, "up")
