#!/usr/bin/env python3
"""The sha256 of `verify_specialization` over the 2757-point grid.

The grid is every distinct t0 = n/d with |n| <= 120 and d in {1, 2, 3, 5, 7}
(919 points), on each of the 3 bundled covers.  Each (cover, t0) gives one
row [cover name, t0 as a decimal string, report]: the report's JSON, or
[error class, message] when `verify_specialization` refuses the point.
The digest is the sha256 of the rows, covers in `bundled_covers` order and
t0 ascending, as sorted-key JSON.  Two trees whose outputs agree on the
grid print the same digest, so a change that claims byte-identical output
can compare the two.

Usage:  PYTHONPATH=src python scripts/grid_digest.py
Prints the digest, then the verdict counts and the number of refusals, and
exits 0.
"""

import collections
import hashlib
import json
from fractions import Fraction

from gsl.covers import bundled_covers
from gsl.errors import GslError
from gsl.exact import rat_to_str
from gsl.specialize import verify_specialization

NUMERATOR_BOUND = 120
DENOMINATORS = (1, 2, 3, 5, 7)


def grid_points() -> list[Fraction]:
    return sorted({Fraction(n, d) for d in DENOMINATORS
                   for n in range(-NUMERATOR_BOUND, NUMERATOR_BOUND + 1)})


def main() -> None:
    rows = []
    verdicts = collections.Counter()
    refusals = 0
    for name, cover in bundled_covers().items():
        for t0 in grid_points():
            try:
                report = verify_specialization(cover, t0).to_json()
            except GslError as exc:
                rows.append([name, rat_to_str(t0), [type(exc).__name__, str(exc)]])
                refusals += 1
                continue
            rows.append([name, rat_to_str(t0), report])
            verdicts.update(entry["verdict"] for entry in report["entries"])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    print(digest)
    print(f"{len(rows)} points: " + ", ".join(f"{v} {c}" for v, c in sorted(verdicts.items()))
          + f", {refusals} refusals")


if __name__ == "__main__":
    main()
