"""Command-line interface.

Every subcommand reads covers from JSON files (see docs/formats.md),
writes a single JSON document to stdout, and (with --summary) a short
human-readable digest to stderr.

Exit codes:
  0   success: everything verified / certificate found / value realized
  1   negative search result: not adequate, no obstruction certified,
      nothing found below the bound (NotFound from a search)
  2   at least one MISMATCH between prediction and oracle (dominates 3)
  3   at least one ORACLE_FAILURE (a local computation could not be
      certified where one was required)
  64  usage or input errors: bad arguments, malformed cover files,
      violated hypotheses (dominates 2 and 3); in a `verify` batch a --t0
      that violates a hypothesis (say, one on a branch locus) gets an
      error document in its slot and the other points are reported

Determinism: all subcommands are deterministic for fixed inputs, and each
document's bytes are those of json.dumps(doc, indent=2, sort_keys=True)
and a newline (`_emit`); the sampling check in `analyze` and every
equal-degree split over a finite field draw from a PRNG seeded by the
GSL_SEED environment variable (any Python integer literal, default
0x5EED).  No output depends on the seed beyond that sampling check; an
unparsable GSL_SEED raises DomainError on the first such draw (exit 64).
--jobs never changes output order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from .applications import (
    OBSTRUCTION_PRESENT,
    adequacy_certificate,
    adequate_specialization_search,
    find_frobenius_primes,
    parametric_obstruction_report,
)
from .covers import (
    Cover,
    branch_points,
    bundled_covers,
    conservative_bad_primes,
    load_cover,
    probabilistic_galois_check,
    roots_of_unity_check,
)
from .errors import (
    GslError,
    HypothesisViolation,
    NotFound,
    PrecisionExhausted,
    SchemaError,
    WildOrIrregular,
)
from .exact import UniPoly, rat_from_str, rat_to_str
from .padic import local_splitting_type
from .specialize import (
    MISMATCH,
    ORACLE_FAILURE,
    predict_decomposition,
    realize_local_class,
    verify_specialization,
)

EX_OK = 0
EX_NOT_FOUND = 1
EX_MISMATCH = 2
EX_ORACLE = 3
EX_USAGE = 64


class _CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise _CliUsage(message)


def _emit(obj: dict) -> None:
    """Write one document: the bytes of json.dumps(obj, indent=2,
    sort_keys=True), then a newline.  On Python 3.11 json.dumps with an
    indent runs its pure-Python encoder; `_put` writes the same bytes in a
    third of its time."""
    out: list[str] = []
    _put(out.append, obj, "\n")
    out.append("\n")
    sys.stdout.write("".join(out))


_quote = json.encoder.encode_basestring_ascii
_WORDS = {None: "null", True: "true", False: "false"}


def _put(put, obj, indent: str) -> None:
    """Hand `put` the pieces of obj's JSON text as json.dumps(indent=2,
    sort_keys=True) writes it, `indent` being the newline and spaces before
    obj's own line: str, int, bool, None, and lists, tuples and str-keyed
    dicts of them; TypeError for anything else."""
    if isinstance(obj, str):
        put(_quote(obj))
    elif obj is None or obj is True or obj is False:
        put(_WORDS[obj])
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, dict):
        sep, inner = "{" + indent + "  ", indent + "  "
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            put(sep + _quote(k) + ": ")
            _put(put, obj[k], inner)
            sep = "," + inner
        put(indent + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        sep, inner = "[" + indent + "  ", indent + "  "
        for v in obj:
            put(sep)
            _put(put, v, inner)
            sep = "," + inner
        put(indent + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _say(*lines: str) -> None:
    for line in lines:
        sys.stderr.write(line + "\n")


def _load(source: str) -> Cover:
    if source.startswith("bundled:"):
        name = source.split(":", 1)[1]
        try:
            return bundled_covers()[name]
        except KeyError:
            raise SchemaError(
                f"no bundled cover named {name!r}; "
                f"have {sorted(bundled_covers())}"
            )
    return load_cover(source)


def _parse_rat(s: str) -> Fraction:
    try:
        return rat_from_str(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliUsage(f"bad rational {s!r}: {exc}")


def _positive_int(s: str) -> int:
    """The argparse type of a count of at least 1: any other value is a
    usage error (exit 64)."""
    try:
        n = int(s)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {s!r}")
    return n


def _parse_primes(s: str | None) -> tuple[int, ...] | None:
    if s is None:
        return None
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise _CliUsage(f"bad prime list {s!r} (want comma-separated integers)")


# ---------------------------------------------------------------------------
# verify (parallelizable over specialization points)


def _verify_worker(task: tuple[Cover, str, tuple[int, ...] | None]) -> dict:
    cover, t0_str, primes = task
    try:
        report = verify_specialization(cover, rat_from_str(t0_str), primes=primes)
    except HypothesisViolation as exc:
        return {"cover": cover.name, "t0": t0_str,
                "error": type(exc).__name__, "message": str(exc)}
    out = report.to_json()
    out["worst"] = report.worst
    return out


def _cmd_verify(args) -> int:
    cover = _load(args.cover)
    branch_points(cover)  # analyse once, so --jobs workers receive it pickled
    primes = _parse_primes(args.primes)
    t0s = [rat_to_str(_parse_rat(s)) for s in args.t0]
    tasks = [(cover, s, primes) for s in t0s]
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        # imported here: every other command runs without its memory and
        # import time
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            reports = pool.map(_verify_worker, tasks)
    else:
        reports = [_verify_worker(t) for t in tasks]
    out = reports[0] if len(reports) == 1 else {"reports": reports}
    _emit(out)

    failed = [r for r in reports if "error" in r]
    reports = [r for r in reports if "error" not in r]
    for r in failed:
        sys.stderr.write(f"gsl: {r['message']}\n")
    verdicts = [e["verdict"] for r in reports for e in r["entries"]]
    if args.summary:
        for r in reports:
            _say(f"cover {r['cover']}, t0 = {r['t0']}: worst {r['worst']}")
            for e in r["entries"]:
                pred = e["prediction"]
                shape = "" if pred is None else (
                    f" [{pred['mode']}: e={pred['e']}"
                    + (f" f={pred['f']}" if pred["f"] is not None else "")
                    + (f" f>= {pred['f_lower']}" if pred["f_lower"] is not None else "")
                    + "]"
                )
                note = f" ({e['note']})" if e["note"] else ""
                _say(f"  p={e['prime']}: {e['verdict']}{shape}{note}")
    if failed:
        return EX_USAGE
    if MISMATCH in verdicts:
        return EX_MISMATCH
    if ORACLE_FAILURE in verdicts:
        return EX_ORACLE
    return EX_OK


# ---------------------------------------------------------------------------
# the other subcommands


def _cmd_analyze(args) -> int:
    cover = _load(args.cover)
    branches = branch_points(cover)
    bad = conservative_bad_primes(cover)
    out = {
        "cover": cover.name,
        "group_order": cover.group_order,
        "branch_points": [bp.to_json() for bp in branches],
        "bad_primes": sorted(bad),
        "roots_of_unity_ok": roots_of_unity_check(cover),
        "galois_sampling_ok": (
            None if args.skip_sampling else probabilistic_galois_check(cover)
        ),
    }
    _emit(out)
    if args.summary:
        _say(f"cover {cover.name}: group order {cover.group_order}, "
             f"{len(branches)} branch points, bad primes {sorted(bad)}")
        for bp in branches:
            where = "infinity" if bp.locus is None else bp.locus.to_json()
            _say(f"  branch at {where}: e={bp.ram_index}, residue degree {bp.d_order}")
    checks = [out["roots_of_unity_ok"], out["galois_sampling_ok"]]
    return EX_OK if all(c is not False for c in checks) else EX_MISMATCH


def _cmd_predict(args) -> int:
    cover = _load(args.cover)
    pred = predict_decomposition(cover, _parse_rat(args.t0), args.prime)
    _emit(pred.to_json())
    if args.summary:
        _say(f"p={pred.prime}: mode {pred.mode}, e={pred.e}, f={pred.f}, "
             f"f_lower={pred.f_lower}")
    return EX_OK


def _cmd_oracle(args) -> int:
    coeffs = [rat_to_str(_parse_rat(c)) for c in args.coeffs.split(",")]
    f = UniPoly.from_json(coeffs)
    try:
        st = local_splitting_type(f, args.prime)
    except (WildOrIrregular, PrecisionExhausted) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        if args.summary:
            _say(f"p={args.prime}: not certified ({exc})")
        return EX_ORACLE
    _emit(st.to_json())
    if args.summary:
        _say(f"p={st.p}: " + ", ".join(
            f"(e={e}, f={fr}) x{c}" for e, fr, c in st.factors)
            + f"  [certified={st.certified}]")
    return EX_OK


def _cmd_adequacy(args) -> int:
    cover = _load(args.cover)
    if args.search:
        t0, cert = adequate_specialization_search(
            cover, start=args.start, count=args.count, bound=args.bound)
    else:
        if args.t0 is None:
            raise _CliUsage("adequacy needs --t0 RAT or --search")
        t0 = _parse_rat(args.t0)
        cert = adequacy_certificate(cover, t0, bound=args.bound)
    out = {"cover": cover.name, "t0": rat_to_str(Fraction(t0)),
           "certificate": cert.to_json()}
    _emit(out)
    if args.summary:
        _say(f"cover {cover.name}, t0 = {out['t0']}: "
             + ("adequate" if cert.adequate else "NOT adequate (within bound)"))
        for ell, ws in sorted(cert.witnesses.items()):
            _say(f"  ell={ell}: " + ", ".join(
                f"p={w.prime} (e={w.e}, f={w.f}{', ramified' if w.ramified else ''})"
                for w in ws))
    return EX_OK if cert.adequate else EX_NOT_FOUND


def _cmd_obstruct(args) -> int:
    cover = _load(args.cover)
    rep = parametric_obstruction_report(cover, args.q, args.bound)
    _emit(rep.to_json())
    primes = [] if rep.certificate is None else list(rep.certificate.primes)
    if args.summary:
        _say(f"cover {cover.name}, q={args.q}: {rep.status}; primes {primes}",
             f"  {rep.assumption}")
    return EX_OK if rep.status == OBSTRUCTION_PRESENT else EX_NOT_FOUND


def _cmd_frobenius_primes(args) -> int:
    cover = _load(args.cover)
    primes = find_frobenius_primes(cover, args.order, args.bound)
    _emit({"cover": cover.name, "order": args.order, "bound": args.bound,
           "primes": primes})
    if args.summary:
        _say(f"cover {cover.name}: Frobenius order {args.order} at "
             + (" ".join(map(str, primes)) if primes else "no primes")
             + f" (bound {args.bound})")
    return EX_OK if primes else EX_NOT_FOUND


def _cmd_realize(args) -> int:
    cover = _load(args.cover)
    t0 = realize_local_class(cover, args.prime, args.target, bound=args.bound)
    _emit({"cover": cover.name, "prime": args.prime, "target": args.target,
           "t0": t0})
    if args.summary:
        _say(f"t0 = {t0} puts the branch value in class '{args.target}' at "
             f"p={args.prime}")
    return EX_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gsl",
        description=(
            "Predict and verify local invariants of rational "
            "specializations of Galois covers of the line."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def cover_arg(p):
        p.add_argument("cover", help=(
            "path to a cover JSON file, or bundled:NAME for a shipped cover"))

    def summary_arg(p):
        p.add_argument("--summary", action="store_true",
                       help="write a human-readable digest to stderr")

    p = sub.add_parser("analyze", help="branch data, bad primes, sanity checks")
    cover_arg(p)
    p.add_argument("--skip-sampling", action="store_true",
                   help="skip the randomized degree-uniformity check")
    summary_arg(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify",
                       help="predict + oracle-check one or more specializations")
    cover_arg(p)
    p.add_argument("--t0", action="append", required=True,
                   help="specialization point (rational, e.g. 21 or -3/7); repeatable")
    p.add_argument("--primes", default=None,
                   help="comma-separated primes to check (default: all meeting primes)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for multiple --t0, at most one per --t0 and "
                        "per CPU (output order is stable)")
    summary_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("predict", help="tame prediction only, no oracle")
    cover_arg(p)
    p.add_argument("--t0", required=True, help="specialization point (rational)")
    p.add_argument("--prime", type=int, required=True)
    summary_arg(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("oracle",
                       help="certified local splitting type of a polynomial at p")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated rational coefficients, ascending degree")
    p.add_argument("--prime", type=int, required=True)
    summary_arg(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("adequacy",
                       help="crossed-product adequacy certificate for a specialization")
    cover_arg(p)
    p.add_argument("--t0", default=None, help="specialization point (rational)")
    p.add_argument("--search", action="store_true",
                   help="scan integer t0 for the first adequate specialization")
    p.add_argument("--start", type=int, default=2, help="search start (with --search)")
    p.add_argument("--count", type=int, default=200,
                   help="how many t0 values to scan (with --search)")
    p.add_argument("--bound", type=int, default=200,
                   help="largest prime of the unramified scan only: the odd "
                        "primes dividing the discriminant are always tried first")
    summary_arg(p)
    p.set_defaults(func=_cmd_adequacy)

    p = sub.add_parser("obstruct",
                       help="obstruction certificate for the parametric family")
    cover_arg(p)
    p.add_argument("--q", type=int, required=True,
                   help="exponent of the non-cyclic abelian subgroup hypothesis")
    p.add_argument("--bound", type=int, default=100,
                   help="largest obstruction prime to consider")
    summary_arg(p)
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("frobenius-primes",
                       help="primes with prescribed Frobenius order on branch residue fields")
    cover_arg(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--bound", type=int, default=100)
    summary_arg(p)
    p.set_defaults(func=_cmd_frobenius_primes)

    p = sub.add_parser("realize",
                       help="find t0 whose branch value lies in a given square class at p")
    cover_arg(p)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--target", required=True, choices=("1", "u", "p", "up"),
                   help="square class of Q_p: 1, u (unit non-square), p, up")
    p.add_argument("--bound", type=int, default=None,
                   help="largest t0 to scan (default 16*p^2)")
    summary_arg(p)
    p.set_defaults(func=_cmd_realize)

    return parser


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """`--t0 -3/7` as `--t0=-3/7`, and `--coeffs` alike: argparse reads `-3/7` as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--t0", "--coeffs") and re.match("-[0-9]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except _CliUsage as exc:
        sys.stderr.write(f"gsl: {exc}\n")
        return EX_USAGE
    except NotFound as exc:
        # a search that finds nothing: the DomainError document, exit 1
        _emit({"error": "DomainError", "message": str(exc)})
        if args.summary:
            _say(str(exc))
        return EX_NOT_FOUND
    except (GslError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        sys.stderr.write(f"gsl: {exc}\n")
        return EX_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
