"""The four benchmark workloads.

Each workload is set up once from its seed, then yields items from a
seeded generator.  `run(item)` is the timed call into gsl; `check(item,
out)` verifies the output outside the timed region.  Library functions are
looked up through their modules at call time, so a traced run sees them.

  sweep        verify_specialization at rational t0 on the bundled covers,
               branch data and bad primes computed once in set-up: the
               p-adic oracle does most of the work.
  cli_batch    `gsl verify` in-process with 40 --t0 on the V4 cover: each
               point reloads the cover and re-runs branch_points, so
               covers/nfield/exact dominate.
  c6_analysis  branch_points + conservative_bad_primes on distinct
               translates of the degree-6 cover C6: series expansion and
               number-field factoring, no oracle calls.
  certify      obstruction report, adequacy certificate and Frobenius prime
               search on distinct translates of V4: the only workload that
               reaches `applications`, with the oracle at large primes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import gsl.applications
import gsl.cli
import gsl.covers
import gsl.specialize
from gsl.errors import HypothesisViolation
from gsl.exact import UniPoly
from gsl.padic import local_splitting_type

from inputs import (
    SHIFTS, draw_t0, rat_key, shift, specialize_rows, translate_rows, v4_irreducible_at,
)

DATA = Path(__file__).resolve().parent / "data"
V4 = "v4_sqrt_t_sqrt_t_minus_1"
CLI_POINTS = 40
CERTIFY_BOUND = 200
REFUSED = "refused"
BAD_VERDICTS = (gsl.specialize.MISMATCH, gsl.specialize.ORACLE_FAILURE)


def _json(name: str):
    return json.loads((DATA / name).read_text())


def report_digest(doc: dict) -> str:
    """Digest of a report's semantic fields: cover, t0, and per prime the
    verdict and the oracle's (e, f, count) multiset."""
    rows = [
        (e["prime"], e["verdict"],
         None if e["oracle"] is None
         else [(f["e"], f["f"], f["count"]) for f in e["oracle"]["factors"]])
        for e in doc["entries"]
    ]
    text = json.dumps([doc["cover"], doc["t0"], rows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_ok(doc: dict, reference: dict) -> bool:
    return (all(e["verdict"] not in BAD_VERDICTS for e in doc["entries"])
            and reference[doc["cover"]].get(doc["t0"]) == report_digest(doc))


def _distinct_shifts(rng: random.Random):
    """Shifts b without repetition, so no two items share a cover (a later
    cache keyed on the cover must not hit); the order restarts only after
    every shift was used."""
    while True:
        order = list(SHIFTS)
        rng.shuffle(order)
        yield from order


class Sweep:
    name = "sweep"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.covers = gsl.covers.bundled_covers()
        self.names = sorted(self.covers)
        self.analysis = {
            name: (gsl.covers.branch_points(c), gsl.covers.conservative_bad_primes(c))
            for name, c in self.covers.items()
        }
        self.on_locus = {name: {Fraction(r) for r in roots}
                         for name, roots in _json("expected.json")["disc_roots"].items()}
        self.reference = _json("reference.json")["reports"]

    def draw(self):
        return self.rng.choice(self.names), draw_t0(self.rng)

    def run(self, item):
        name, t0 = item
        branches, bad = self.analysis[name]
        try:
            return gsl.specialize.verify_specialization(
                self.covers[name], t0, branches=branches, bad=bad)
        except HypothesisViolation as exc:
            return exc  # the correct answer on a branch locus

    def check(self, item, out) -> bool:
        name, t0 = item
        if t0 in self.on_locus[name]:
            return (isinstance(out, HypothesisViolation)
                    and self.reference[name][rat_key(t0)] == REFUSED)
        return not isinstance(out, Exception) and _report_ok(out.to_json(), self.reference)


class CliBatch:
    name = "cli_batch"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.on_locus = {Fraction(r) for r in _json("expected.json")["disc_roots"][V4]}
        self.reference = _json("reference.json")["reports"]

    def draw(self):
        # Off the branch loci: one on-locus point aborts the whole batch.
        t0s = []
        while len(t0s) < CLI_POINTS:
            t0 = draw_t0(self.rng)
            if t0 not in self.on_locus:
                t0s.append(t0)
        return t0s

    def run(self, t0s):
        argv = ["verify", f"bundled:{V4}", *(f"--t0={rat_key(t)}" for t in t0s),
                "--jobs", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gsl.cli.main(argv)
        return code, out.getvalue()

    def check(self, t0s, out) -> bool:
        code, text = out
        if code != 0:
            return False
        reports = json.loads(text)["reports"]
        return ([r["t0"] for r in reports] == [rat_key(t) for t in t0s]
                and all(r["cover"] == V4 and _report_ok(r, self.reference) for r in reports))


class C6Analysis:
    name = "c6_analysis"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.shifts = _distinct_shifts(self.rng)
        self.c6 = _json("c6.json")
        self.table = _json("expected.json")["c6_branch_table"]
        self.bad = frozenset(_json("reference.json")["c6_bad_primes"])

    def draw(self):
        b = next(self.shifts)
        return b, dict(self.c6, name=f"{self.c6['name']}_b{b}",
                       P=translate_rows(self.c6["P"], b))

    def run(self, item):
        cover = gsl.covers.load_cover(item[1])
        return gsl.covers.branch_points(cover), gsl.covers.conservative_bad_primes(cover)

    def check(self, item, out) -> bool:
        b = item[0]
        branches, bad = out
        want = {(None if r["locus"] is None else shift(r["locus"], b), r["e"], r["d"])
                for r in self.table}
        got = {(None if bp.locus is None else tuple(bp.locus.coeffs), bp.ram_index, bp.d_order)
               for bp in branches}
        return got == want and len(branches) == len(want) and bad == self.bad


class Certify:
    name = "certify"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.shifts = _distinct_shifts(self.rng)
        self.v4 = json.loads((Path(gsl.covers.__file__).parent / "data" / f"{V4}.json").read_text())
        ref = _json("reference.json")["certify"]
        if ref["bound"] != CERTIFY_BOUND:
            raise ValueError("reference.json was recorded at another certify bound")
        self.obstruction_primes = ref["obstruction_primes"]
        self.frobenius_primes = ref["frobenius_primes"]

    def draw(self):
        b = next(self.shifts)
        s = draw_t0(self.rng)
        while not v4_irreducible_at(s):
            s = draw_t0(self.rng)
        rows = translate_rows(self.v4["P"], b)
        return b, s - b, dict(self.v4, name=f"{V4}_b{b}", P=rows)

    def run(self, item):
        _, t0, data = item
        cover = gsl.covers.load_cover(data)
        report = gsl.applications.parametric_obstruction_report(cover, 2, CERTIFY_BOUND)
        adequacy = gsl.applications.adequacy_certificate(cover, t0)
        frobenius = gsl.applications.find_frobenius_primes(cover, 2, CERTIFY_BOUND)
        return report, adequacy, frobenius

    def check(self, item, out) -> bool:
        _, t0, data = item
        report, adequacy, frobenius = out
        cert = report.certificate
        if (report.status != gsl.applications.OBSTRUCTION_PRESENT or cert is None
                or not cert.all_ok or list(cert.primes) != self.obstruction_primes
                or frobenius != self.frobenius_primes):
            return False
        # Replay every adequacy witness through the oracle on P(t0, Y),
        # specialized here rather than by gsl.
        f_t0 = UniPoly(specialize_rows(data["P"], t0))
        for ell, witnesses in adequacy.witnesses.items():
            if len({w.prime for w in witnesses}) != len(witnesses):
                return False
            for w in witnesses:
                replay = local_splitting_type(f_t0, w.prime)
                if replay != w.oracle or (w.e, w.f) not in {(e, f) for e, f, _ in replay.factors}:
                    return False
                ell_part = math.gcd(adequacy.degree, ell ** adequacy.degree)
                if (w.e * w.f) % ell_part:
                    return False
        return True


WORKLOADS = {w.name: w for w in (Sweep, CliBatch, C6Analysis, Certify)}
