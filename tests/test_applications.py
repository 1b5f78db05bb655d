"""Adequacy certificates, Frobenius prime search, obstruction reports."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
import sympy as sp

import gsl.applications
from gsl.applications import (
    HYPOTHESIS_NOT_MET,
    NO_OBSTRUCTION_FOUND,
    OBSTRUCTION_PRESENT,
    adequacy_certificate,
    adequacy_certificate_for_field,
    adequate_specialization_search,
    find_frobenius_primes,
    grunwald_obstruction,
    parametric_obstruction_report,
)
from gsl.covers import branch_points, conservative_bad_primes, frobenius_orders, load_cover
from gsl.errors import DomainError, NotFound, PrecisionExhausted, WildOrIrregular
from gsl.exact import UniPoly, _valuation
from gsl.padic import LocalSplittingType, local_splitting_type
from gsl.specialize import MATCH, ORACLE_FAILURE, specialize_poly, verify_specialization
from test_covers import _C6, _translate


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# Frobenius primes in branch residue fields


def test_frobenius_primes_v4(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    # residue fields are Q, Q(i), Q: the lcm order is decided by Q(i)
    assert find_frobenius_primes(v4, 2, 20) == [7, 11, 19]
    assert find_frobenius_primes(v4, 1, 20) == [5, 13, 17]
    # 3 is excluded by the bad set even though it is inert in Q(i)
    assert 3 not in find_frobenius_primes(v4, 2, 20)


def test_frobenius_primes_c3(covers):
    c3 = covers["c3_shanks"]
    # residue field of the branch contains Q(zeta_3): split iff p = 1 mod 3
    assert find_frobenius_primes(c3, 1, 20) == [7, 13, 19]
    assert find_frobenius_primes(c3, 2, 20) == [5, 11, 17]


def test_frobenius_primes_domain():
    with pytest.raises(DomainError):
        find_frobenius_primes(None, 0, 10)


# ---------------------------------------------------------------------------
# adequacy


def test_adequacy_v4_at_21(covers):
    cert = adequacy_certificate(covers["v4_sqrt_t_sqrt_t_minus_1"], Fraction(21))
    assert cert.adequate and cert.degree == 4
    ws = cert.witnesses[2]
    assert [(w.prime, w.e, w.f) for w in ws] == [(3, 2, 2), (7, 2, 2)]
    assert all(w.ramified for w in ws)


def test_adequacy_c3_at_13(covers):
    cert = adequacy_certificate(covers["c3_shanks"], Fraction(13))
    assert cert.adequate
    ws = cert.witnesses[3]
    assert [(w.prime, w.e, w.f) for w in ws] == [(7, 3, 1), (31, 3, 1)]


def test_adequacy_field_ramified_then_inert():
    cert = adequacy_certificate_for_field(upoly(-3, 0, 1), bound=100)
    assert cert.adequate
    ws = cert.witnesses[2]
    assert [(w.prime, w.ramified) for w in ws] == [(3, True), (5, False)]
    assert (ws[1].e, ws[1].f) == (1, 2)  # the inert witness


def test_adequacy_bound_exhausted():
    cert = adequacy_certificate_for_field(upoly(1, 0, 1), bound=3)
    assert not cert.adequate
    assert cert.searched == (3,)
    assert len(cert.witnesses[2]) == 1  # 3 is inert in Q(i) and does qualify


def test_adequacy_guards():
    with pytest.raises(DomainError):
        adequacy_certificate_for_field(upoly(-4, 0, 1))  # reducible
    with pytest.raises(DomainError):
        adequacy_certificate_for_field(upoly(-1, 1))  # degree 1


def test_adequacy_witness_oracles_replayable(covers):
    from gsl.padic import local_splitting_type
    from gsl.specialize import MATCH, ORACLE_FAILURE, specialize_poly, verify_specialization

    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    cert = adequacy_certificate(v4, Fraction(21))
    f_t0 = specialize_poly(v4, Fraction(21))
    for ws in cert.witnesses.values():
        for w in ws:
            again = local_splitting_type(f_t0, w.prime)
            assert again == w.oracle


def test_adequate_search(covers):
    t0, cert = adequate_specialization_search(covers["c2_sqrt_t"], start=2, count=50)
    assert t0 == 2 and cert.adequate


# ---------------------------------------------------------------------------
# obstructions


def test_grunwald_obstruction_v4(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    cert = grunwald_obstruction(v4, 2, 20)
    assert list(cert.primes) == [5, 13, 17]
    assert cert.all_ok and cert.transcripts
    # every transcript line is locally small: e = 1 or e*f divides 2
    for t in cert.transcripts:
        assert t.ok


def test_grunwald_obstruction_without_a_control_sample():
    # Y^2 = T(T-1)(T-2): every residue mod 3 is a root of a finite locus, so
    # no 3-integral t0 avoids the loci and 3 has no unramified control sample
    cover = load_cover({"name": "c2_cubic", "group_order": 2,
                        "P": [["0", "-2", "3", "-1"], [], ["1"]],
                        "assert_regular_galois": True})
    cert = grunwald_obstruction(cover, 2, 3)
    # 3 is the only odd prime <= 3, 3 = 1 mod 2, and T, T-1, T-2 split mod 3
    assert cert.primes == (3,) and cert.all_ok
    # one sample per branch point, none more: t0 = a + 3k meets T - a with
    # multiplicity one first at k = 1, and t0 = 1/3 meets infinity
    assert sorted(t.t0 for t in cert.transcripts) == [Fraction(1, 3), 3, 4, 5]
    for t in cert.transcripts:
        value = t.t0 * (t.t0 - 1) * (t.t0 - 2)
        v3 = sp.multiplicity(3, value.numerator) - sp.multiplicity(3, value.denominator)
        # Y^2 - value is ramified over Q_3 exactly when v_3(value) is odd
        assert v3 % 2 == 1 and t.splitting.factors == ((2, 1, 1),)


def test_grunwald_non_vacuity(covers):
    # at the non-obstruction prime 7, a specialization attains e*f = 4
    from gsl.padic import local_splitting_type
    from gsl.specialize import MATCH, ORACLE_FAILURE, specialize_poly, verify_specialization

    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    st = local_splitting_type(specialize_poly(v4, Fraction(7)), 7)
    assert any(e * f == 4 for e, f, _ in st.factors)


def test_parametric_statuses(covers):
    assert parametric_obstruction_report(
        covers["v4_sqrt_t_sqrt_t_minus_1"], 2, 20).status == OBSTRUCTION_PRESENT
    assert parametric_obstruction_report(
        covers["c2_sqrt_t"], 2, 20).status == HYPOTHESIS_NOT_MET
    assert parametric_obstruction_report(
        covers["c3_shanks"], 3, 20).status == HYPOTHESIS_NOT_MET


def test_parametric_no_obstruction_found(covers):
    # bound too small to contain any obstruction prime
    rep = parametric_obstruction_report(covers["v4_sqrt_t_sqrt_t_minus_1"], 2, 4)
    assert rep.status == NO_OBSTRUCTION_FOUND
    assert rep.certificate is not None and not rep.certificate.primes


def test_certificates_serialize(covers):
    import json

    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    cert = adequacy_certificate(v4, Fraction(21))
    ob = grunwald_obstruction(v4, 2, 20)
    rep = parametric_obstruction_report(v4, 2, 20)
    for doc in (cert.to_json(), ob.to_json(), rep.to_json()):
        json.dumps(doc, sort_keys=True)


def test_adequate_search_skips_loci_and_reducible_points(covers):
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    # t0 = 0 and 1 lie on the branch loci; P(2, Y) and P(5, Y) are reducible
    with pytest.raises(NotFound, match=r"\[0, 3\)"):
        adequate_specialization_search(v4, start=0, count=3)
    t0, cert = adequate_specialization_search(v4, start=0, count=30)
    assert t0 == 21 and cert.adequate


# ---------------------------------------------------------------------------
# two readings of complete splitting at a prime


def _translated(name, rows, group_order, b):
    return load_cover({
        "name": f"{name}_b{b}", "group_order": group_order,
        "P": [[str(c) for c in row] for row in _translate(rows, b)],
        "assert_regular_galois": True,
    })


@pytest.fixture(scope="module")
def translates(covers):
    """The bundled covers, the V4 translates by b = -30, -27, ..., 30 and
    the C6 translates by b = -12, -8, ..., 12."""
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    v4_rows = [row.coeffs for row in v4.poly.rows]
    return [
        *covers.values(),
        *(_translated("v4", v4_rows, 4, b) for b in range(-30, 31, 3)),
        *(_translated("c6", _C6, 6, b) for b in range(-12, 13, 4)),
    ]


def _obstruction_primes(cover, q, bound):
    branches = branch_points(cover)
    bad = conservative_bad_primes(cover)
    return [p for p in range(3, bound + 1)
            if gsl.applications._obstruction_residues(p, q, branches, bad) is not None]


@pytest.mark.parametrize("q", [2, 3])
def test_obstruction_primes_are_the_completely_split_primes(translates, q):
    # the obstruction test reads each branch's relative residue polynomial
    # at each root of its locus mod p, as a prediction does;
    # find_frobenius_primes reads the absolute residue moduli.  Both ask
    # whether every branch residue field splits completely at p, and must
    # agree wherever Z_(p)[gamma] is p-maximal, which the bad set (p does
    # not divide disc M_i) is meant to ensure
    for cover in translates:
        want = [p for p in find_frobenius_primes(cover, 1, 400) if p % q == 1]
        assert _obstruction_primes(cover, q, 400) == want, cover.name


def test_the_control_sample_is_the_least_point_off_every_locus(translates, monkeypatch):
    # the control transcript (the last at p, at an integer t0 and with no
    # locus) against a brute-force scan: the least t in [1, 10p) at which
    # every finite locus value is a p-adic unit, or no control at all.  Only
    # the choice of t0 is under test, so the oracle is stubbed out: it
    # refuses some samples of C6 (fractional slopes, inseparable residuals)
    monkeypatch.setattr(gsl.applications, "local_splitting_type",
                        lambda f, p: LocalSplittingType(p, ((1, 1, f.degree),), True))
    for cover in translates:
        loci = [bp.locus for bp in branch_points(cover) if bp.locus is not None]
        cert = grunwald_obstruction(cover, 2, 400)
        for p in cert.primes:
            want = next((Fraction(t) for t in range(1, 10 * p)
                         if all((v := m(Fraction(t))) != 0 and _valuation(v, p) == 0
                                for m in loci)), None)
            last = [t for t in cert.transcripts if t.prime == p][-1]
            control = last.t0 if last.locus is None and last.t0.denominator == 1 else None
            assert control == want, (cover.name, p)


def test_a_refused_sample_is_recorded_and_claims_nothing():
    # C6 at p = 31: the oracle refuses the infinity sample t0 = 1/31 (a
    # fractional slope with an inseparable residual).  The search records
    # the refusal instead of raising, and all_ok no longer holds
    c6 = _translated("c6", _C6, 6, 0)
    cert = grunwald_obstruction(c6, 2, 31)
    assert cert.primes == (31,) and not cert.all_ok
    with pytest.raises(WildOrIrregular) as refusal:
        local_splitting_type(specialize_poly(c6, Fraction(1, 31)), 31)
    refused = [t for t in cert.transcripts if t.splitting is None]
    assert [(t.prime, t.t0, t.locus, t.ok) for t in refused] == [(31, Fraction(1, 31), None, False)]
    assert refused[0].note == f"oracle refused: WildOrIrregular: {refusal.value}"
    doc = refused[0].to_json()
    assert list(doc) == [f.name for f in dataclasses.fields(refused[0])]
    assert doc["note"] == refused[0].note and doc["splitting"] is None
    for t in cert.transcripts:
        if t.splitting is not None:
            # every other sample is the oracle's answer, with no note
            assert t.splitting == local_splitting_type(specialize_poly(c6, t.t0), 31)
            assert t.ok and "note" not in t.to_json()


def test_a_precision_refusal_turns_the_report_into_no_obstruction(covers, monkeypatch):
    # V4 has an obstruction at q = 2; when the oracle cannot certify the
    # control sample t0 = 2 at 13, that sample is refused and the report
    # claims nothing
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    real = gsl.applications.local_splitting_type

    def oracle(f, p):
        if p == 13 and f == specialize_poly(v4, Fraction(2)):
            raise PrecisionExhausted("no rung certifies")
        return real(f, p)

    monkeypatch.setattr(gsl.applications, "local_splitting_type", oracle)
    report = parametric_obstruction_report(v4, 2, 20)
    assert report.status == NO_OBSTRUCTION_FOUND and not report.certificate.all_ok
    refused = [(t.prime, t.t0, t.note) for t in report.certificate.transcripts if not t.ok]
    assert refused == [(13, Fraction(2), "oracle refused: PrecisionExhausted: no rung certifies")]


# ---------------------------------------------------------------------------
# the Frobenius table of a branch at a prime, against the oracle


def _meets_once(bp, a, p):
    """The first t0 meeting bp at the place (p, a) with multiplicity one:
    1/p at infinity, else the first a + kp with v_p(m(t0)) = 1."""
    if bp.locus is None:
        return Fraction(1, p)
    return next(t0 for k in itertools.count()
                if (m := bp.locus(t0 := Fraction(a + k * p))) != 0 and _valuation(m, p) == 1)


def test_every_table_entry_is_the_residue_degree_the_oracle_finds(covers):
    # each (a, order) in the table of each branch at each odd good p < 60 is
    # an exact prediction f = order at a t0 meeting the place (p, a) once,
    # which the oracle confirms or refuses with its documented scope limit:
    # C6's branch at infinity has fractional slopes with inseparable
    # residuals there
    refusal = "fractional slope with inseparable residual: outside the certified scope of this oracle"
    outcomes = []
    for cover in [*covers.values(), _translated("c6", _C6, 6, 0)]:
        bad = conservative_bad_primes(cover)
        for p in range(3, 60):
            if not sp.isprime(p) or p in bad:
                continue
            for bp in branch_points(cover):
                for a, order in frobenius_orders(bp, p).items():
                    t0 = _meets_once(bp, a, p)
                    [entry] = verify_specialization(cover, t0, primes=[p]).entries
                    pred = entry.prediction
                    assert (pred.mode, pred.e, pred.f) == ("exact", bp.ram_index, order), (cover.name, p, a)
                    assert (entry.verdict, entry.note) in [(MATCH, ""), (ORACLE_FAILURE, refusal)], (cover.name, p, a)
                    outcomes.append(entry.verdict)
    assert outcomes.count(MATCH) > 100
