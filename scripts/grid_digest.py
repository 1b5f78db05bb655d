#!/usr/bin/env python3
"""The sha256 of `verify_specialization` over the 2757-point grid, and over
the same points on C6.

The grid is every distinct t0 = n/d with |n| <= 120 and d in {1, 2, 3, 5, 7}
(919 points), on each of the 3 bundled covers.  Each (cover, t0) gives one
row [cover name, t0 as a decimal string, report]: the report's JSON, or
[error class, message] when `verify_specialization` refuses the point.
The digest is the sha256 of the rows, covers in `bundled_covers` order and
t0 ascending, as sorted-key JSON.  Two trees whose outputs agree on the
grid print the same digest, so a change that claims byte-identical output
can compare the two.  The digest is pinned in `EXPECTED`: a change that
alters the output on purpose updates the constant in its own diff.

The second digest, pinned in `EXPECTED_C6`, is that of the same 919 points
on the degree-6 cover `bench/data/c6.json` (read only), whose branch points
lie over number fields: it pins the number-field path of `verify`.

The third digest, pinned in `EXPECTED_PRIMES`, is that of the grid on the
3 bundled covers with the primes given, `primes=PRIMES`, rather than found
by factoring: it pins the `primes=` path of `verify`.

The fourth digest, pinned in `EXPECTED_CLI`, is that of the bytes `gsl
verify` writes: one in-process `gsl.cli.main(["verify", SOURCE, --t0 ...])`
batch over the whole grid for each bundled cover and one for C6, each
batch's stdout followed by a line "exit CODE".  Points on a branch locus
stay in their batch, so their error documents and exit code 64 are pinned
too.  It pins the JSON writer of the CLI, which the other digests do not
reach.

Usage:  PYTHONPATH=src python scripts/grid_digest.py
Prints each digest, then its verdict counts and number of refusals.
Exits 0 when all four digests are the pinned ones; otherwise prints the values
that differ and exits 1.
"""

import collections
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from gsl.cli import main as gsl_main
from gsl.covers import bundled_covers, load_cover
from gsl.errors import GslError
from gsl.exact import rat_to_str
from gsl.specialize import verify_specialization

NUMERATOR_BOUND = 120
DENOMINATORS = (1, 2, 3, 5, 7)
EXPECTED = "4c428f4810c6240df1a73b54cd034251424e7cc6fdf54c96083a01b88684682c"
EXPECTED_C6 = "11fb8d437210206437f6591ff252eefea41acb4e25add03e5ee4eae6f2f54e63"
EXPECTED_PRIMES = "f669c93e6efb32e6bc4db34ebc61add56d27cab7a79205d73b784c5b751aa552"
EXPECTED_CLI = "03dae3145af2b429415d66a873eb3f5165839842b34ceffdd0a1e44352bd29fd"
PRIMES = (3, 5, 7, 11, 13)
C6 = Path(__file__).resolve().parent.parent / "bench" / "data" / "c6.json"


def grid_points() -> list[Fraction]:
    return sorted({Fraction(n, d) for d in DENOMINATORS
                   for n in range(-NUMERATOR_BOUND, NUMERATOR_BOUND + 1)})


def digest(covers, primes=None) -> str:
    """The digest of the grid on `covers`, verified at `primes` (found by
    factoring when None); prints it with its counts."""
    rows = []
    verdicts = collections.Counter()
    refusals = 0
    for name, cover in covers.items():
        for t0 in grid_points():
            try:
                report = verify_specialization(cover, t0, primes).to_json()
            except GslError as exc:
                rows.append([name, rat_to_str(t0), [type(exc).__name__, str(exc)]])
                refusals += 1
                continue
            rows.append([name, rat_to_str(t0), report])
            verdicts.update(entry["verdict"] for entry in report["entries"])
    out = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    print(out)
    print(f"{len(rows)} points: " + ", ".join(f"{v} {c}" for v, c in sorted(verdicts.items()))
          + f", {refusals} refusals")
    return out


def cli_digest(sources) -> str:
    """The digest of one `gsl verify` batch over the grid per source (a
    `bundled:NAME` or a path): each batch's stdout bytes, then its exit
    code; prints it with the exit codes."""
    h = hashlib.sha256()
    codes = []
    t0s = [f"--t0={rat_to_str(t0)}" for t0 in grid_points()]
    for source in sources:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = gsl_main(["verify", source, *t0s])
        h.update(out.getvalue().encode())
        h.update(f"exit {code}\n".encode())
        codes.append(code)
    print(h.hexdigest())
    print(f"{len(codes)} verify batches of {len(t0s)} points: exit codes {codes}")
    return h.hexdigest()


def main() -> None:
    c6 = load_cover(C6)
    failed = False
    cli_sources = [f"bundled:{name}" for name in bundled_covers()] + [str(C6)]
    for got, expected in ((digest(bundled_covers()), EXPECTED),
                          (digest({c6.name: c6}), EXPECTED_C6),
                          (digest(bundled_covers(), PRIMES), EXPECTED_PRIMES),
                          (cli_digest(cli_sources), EXPECTED_CLI)):
        if got != expected:
            print(f"grid digest differs: got {got}, expected {expected}", file=sys.stderr)
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
