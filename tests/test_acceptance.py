"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion."""

import random
from fractions import Fraction

from gsl.applications import adequacy_certificate, grunwald_obstruction
from gsl.covers import branch_points, puiseux_at
from gsl.errors import HypothesisViolation
from gsl.exact import UniPoly, discriminant, is_prime, rational_valuation
from gsl.modp import frobenius_data
from gsl.padic import local_splitting_type, quadratic_local_class
from gsl.specialize import (
    MATCH,
    PARTIAL_MATCH,
    SKIPPED_BAD_PRIME,
    predict_decomposition,
    realize_local_class,
    specialize_poly,
    verify_specialization,
)


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


def test_criterion_1_quadratic_oracle_against_quadratic_residues():
    """Y^2 - a*p^2 at every odd p <= 100, >= 10 values of a each: the
    oracle's (e, f) must equal what quadratic reciprocity dictates."""
    primes = [p for p in range(3, 101) if is_prime(p)]
    for p in primes:
        tested = 0
        a = 0
        while tested < 10:
            a += 1
            if a % p == 0:
                continue
            st = local_splitting_type(upoly(-a * p * p, 0, 1), p)
            if pow(a, (p - 1) // 2, p) == 1:
                assert st.factors == ((1, 1, 2),), (p, a, st.factors)
            else:
                assert st.factors == ((1, 2, 1),), (p, a, st.factors)
            # cross-check against the square-class classifier
            assert (quadratic_local_class(a * p * p, p) == "1") == (
                st.factors == ((1, 1, 2),))
            tested += 1


def test_criterion_2_full_sweep_all_predictions_verified(covers, branch_table,
                                                         bad_table):
    """Every integer t0 in [-100, 100], all bundled covers, every meeting
    prime: the verdict is MATCH or PARTIAL_MATCH (never MISMATCH, never
    ORACLE_FAILURE) outside the conservative bad set.  Branch data and bad
    primes are passed in, as the benchmark's sweep workload does."""
    offenders = []
    checked = 0
    for name, cover in covers.items():
        branches, bad = branch_table[name], bad_table[name]
        for k in range(-100, 101):
            try:
                rep = verify_specialization(cover, Fraction(k),
                                            branches=branches, bad=bad)
            except HypothesisViolation:
                continue  # t0 is a branch point: nothing is claimed there
            for e in rep.entries:
                if e.verdict == SKIPPED_BAD_PRIME:
                    continue
                checked += 1
                if e.verdict not in (MATCH, PARTIAL_MATCH):
                    offenders.append((name, k, e.prime, e.verdict, e.note))
    assert not offenders, offenders[:10]
    assert checked > 800  # the sweep exercised a substantial prime set


def test_criterion_3_divisibility_mode_contracts(covers):
    """When the meeting multiplicity shares a factor with the branch
    inertia order, e is pinned to the quotient and the oracle's f must be
    a multiple of the predicted lower bound."""
    cases = [
        ("c3_shanks", Fraction(54), 7, 1, 1, (1, 3, 1)),
        ("v4_sqrt_t_sqrt_t_minus_1", Fraction(49), 7, 1, 2, (1, 2, 2)),
        ("c2_sqrt_t", Fraction(50), 5, 1, 1, (1, 2, 1)),
    ]
    for name, t0, p, e_want, f_lower_want, oracle_want in cases:
        cover = covers[name]
        pred = predict_decomposition(cover, t0, p)
        assert pred.mode == "divisible"
        assert pred.e == e_want and pred.f_lower == f_lower_want
        rep = verify_specialization(cover, t0, primes=[p])
        entry = rep.entries[0]
        assert entry.verdict == PARTIAL_MATCH
        assert entry.oracle.factors == (oracle_want,)
        e, f, _ = entry.oracle.factors[0]
        assert e == pred.e and f % pred.f_lower == 0


def test_criterion_4_grunwald_obstruction_with_non_vacuity(covers):
    """The biquadratic cover's obstruction primes up to 20 are exactly
    {5, 13, 17}; at those primes every sampled specialization is locally
    small, while at the non-obstruction prime 7 a specialization attains
    the full local degree 4 (so the property is not vacuous)."""
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    cert = grunwald_obstruction(v4, 2, 20)
    assert list(cert.primes) == [5, 13, 17]
    assert cert.all_ok
    for t in cert.transcripts:
        for e, f, _ in t.splitting.factors:
            assert e == 1 or (2 % (e * f) == 0), t.to_json()
    st7 = local_splitting_type(specialize_poly(v4, Fraction(7)), 7)
    assert any(e * f == 4 for e, f, _ in st7.factors)


def test_criterion_5_adequacy_certificates_with_replay(covers):
    """Frozen adequacy witnesses for the two bundled certificate cases,
    and every embedded oracle transcript replays identically."""
    v4 = covers["v4_sqrt_t_sqrt_t_minus_1"]
    c3 = covers["c3_shanks"]
    cert4 = adequacy_certificate(v4, Fraction(21))
    assert cert4.adequate
    assert [(w.prime, w.e, w.f) for w in cert4.witnesses[2]] == [
        (3, 2, 2), (7, 2, 2)]
    cert3 = adequacy_certificate(c3, Fraction(13))
    assert cert3.adequate
    assert [(w.prime, w.e, w.f) for w in cert3.witnesses[3]] == [
        (7, 3, 1), (31, 3, 1)]
    for cover, t0, cert in ((v4, 21, cert4), (c3, 13, cert3)):
        f_t0 = specialize_poly(cover, Fraction(t0))
        for ws in cert.witnesses.values():
            for w in ws:
                assert local_splitting_type(f_t0, w.prime) == w.oracle


def test_criterion_6_oracle_agrees_with_frobenius_on_good_reduction():
    """1000 pseudorandom monic polynomials of degree <= 4 at primes
    p <= 50 with v_p(disc) = 0: the oracle must report an unramified
    splitting whose residue degrees are exactly the Frobenius cycle type."""
    rng = random.Random(0x5EED)
    primes = [p for p in range(3, 51) if is_prime(p)]
    done = 0
    while done < 1000:
        deg = rng.randint(2, 4)
        f = UniPoly([Fraction(rng.randint(-50, 50)) for _ in range(deg)]
                    + [Fraction(1)])
        d = discriminant(f)
        if d == 0:
            continue
        p = rng.choice(primes)
        if rational_valuation(d, p) != 0:
            continue
        st = local_splitting_type(f, p)
        fd = frobenius_data(f, p)
        assert st.is_unramified, (f.to_json(), p)
        assert sorted(fr for _, fr, c in st.factors for _ in range(c)) == sorted(fd), (
            f.to_json(), p, st.factors, fd)
        done += 1


def test_criterion_7_branch_tables_and_precision_stability(covers):
    """The bundled covers' branch tables match the independently derived
    values, and a larger cap on the expansion depth changes nothing."""
    expected = {
        "c2_sqrt_t": [(["0", "1"], 2, 1), (None, 2, 1)],
        "v4_sqrt_t_sqrt_t_minus_1": [
            (["-1", "1"], 2, 1), (["0", "1"], 2, 2), (None, 2, 1)],
        "c3_shanks": [(["9", "3", "1"], 3, 1)],
    }
    for name, cover in covers.items():
        base = branch_points(cover)
        got = [(None if b.locus is None else b.locus.to_json(),
                b.ram_index, b.d_order) for b in base]
        assert got == expected[name], (name, got)
        for locus in [b.locus for b in base] + [None]:
            assert puiseux_at(cover, locus) == puiseux_at(cover, locus, prec=64), (name, locus)


def test_criterion_8_realize_both_square_classes(covers):
    """For the square-root cover and p in {5, 7, 11, 13}: the search
    realizes both ramified square classes at the frozen minimal points."""
    c2 = covers["c2_sqrt_t"]
    frozen = {(5, "p"): 5, (5, "up"): 10, (7, "p"): 7, (7, "up"): 21,
              (11, "p"): 11, (11, "up"): 22, (13, "p"): 13, (13, "up"): 26}
    for (p, target), want in frozen.items():
        t0 = realize_local_class(c2, p, target)
        assert t0 == want, (p, target, t0, want)
        assert quadratic_local_class(Fraction(t0), p) == target
        st = local_splitting_type(specialize_poly(c2, Fraction(t0)), p)
        assert st.factors == ((2, 1, 1),)  # both classes are ramified
