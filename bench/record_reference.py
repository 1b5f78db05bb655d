"""Record the reference outputs that the benchmark's checks compare to.

Run from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/record_reference.py

Re-record only for an intended, explained change of output: the checks
exist to catch unintended ones.  It writes bench/data/reference.json:

  reports             per bundled cover and per t0 that the generators can
                      draw, a digest of the verification report's semantic
                      fields, or "refused" on a branch locus
  c6_bad_primes       conservative_bad_primes of C6
  certify             obstruction and Frobenius primes of V4 at the certify
                      bound (translates must give the same primes)
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gsl.applications  # noqa: E402
import gsl.covers  # noqa: E402
import gsl.specialize  # noqa: E402
from gsl.errors import HypothesisViolation  # noqa: E402

from inputs import rat_key, t0_domain  # noqa: E402
from workloads import CERTIFY_BOUND, REFUSED, V4, report_digest  # noqa: E402


def main() -> int:
    covers = gsl.covers.bundled_covers()
    reports = {}
    for name, cover in sorted(covers.items()):
        branches = gsl.covers.branch_points(cover)
        bad = gsl.covers.conservative_bad_primes(cover)
        table = reports[name] = {}
        for t0 in t0_domain():
            try:
                rep = gsl.specialize.verify_specialization(cover, t0, branches=branches, bad=bad)
            except HypothesisViolation:
                table[rat_key(t0)] = REFUSED
                continue
            table[rat_key(t0)] = report_digest(rep.to_json())
    c6 = gsl.covers.load_cover(HERE / "data" / "c6.json")
    v4 = covers[V4]
    report = gsl.applications.parametric_obstruction_report(v4, 2, CERTIFY_BOUND)
    out = {
        "reports": reports,
        "c6_bad_primes": sorted(gsl.covers.conservative_bad_primes(c6)),
        "certify": {
            "bound": CERTIFY_BOUND,
            "obstruction_primes": list(report.certificate.primes),
            "frobenius_primes": gsl.applications.find_frobenius_primes(v4, 2, CERTIFY_BOUND),
        },
    }
    (HERE / "data" / "reference.json").write_text(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
