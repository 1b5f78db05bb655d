"""The gsl command-line tool: output documents and exit codes."""

import json
import multiprocessing
from pathlib import Path

import pytest

import gsl.cli
import gsl.covers
import gsl.specialize
from gsl.cli import main
from gsl.errors import NonUniform, WildOrIrregular
from gsl.exact import UniPoly
from gsl.padic import LocalSplittingType

DATA = Path(__file__).resolve().parent.parent / "src" / "gsl" / "data"
V4 = str(DATA / "v4_sqrt_t_sqrt_t_minus_1.json")
C2 = str(DATA / "c2_sqrt_t.json")
C3 = str(DATA / "c3_shanks.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


def test_analyze(capsys):
    code, doc, _ = run(capsys, "analyze", V4, "--skip-sampling")
    assert code == 0
    assert doc["bad_primes"] == [2, 3]
    assert len(doc["branch_points"]) == 3
    assert doc["roots_of_unity_ok"] is True
    assert doc["galois_sampling_ok"] is None


def test_analyze_summary_on_stderr(capsys):
    code, doc, err = run(capsys, "analyze", V4, "--skip-sampling", "--summary")
    assert code == 0 and "branch" in err


def test_verify_single(capsys):
    code, doc, _ = run(capsys, "verify", V4, "--t0", "21")
    assert code == 0
    verdicts = {e["prime"]: e["verdict"] for e in doc["entries"]}
    assert verdicts[5] == "MATCH" and verdicts[7] == "MATCH"
    assert verdicts[2] == "SKIPPED_BAD_PRIME"


def test_verify_multiple_t0_order_stable(capsys):
    t0s = ["--t0", "21", "--t0", "7", "--t0=-3/7"]
    code1, doc1, _ = run(capsys, "verify", V4, *t0s)
    code2, doc2, _ = run(capsys, "verify", V4, *t0s, "--jobs", "2")
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert [r["t0"] for r in doc1["reports"]] == ["21", "7", "-3/7"]


@pytest.mark.parametrize("cpus, want", [(64, 3), (2, 2), (None, None)])
def test_verify_jobs_pool_is_capped(capsys, monkeypatch, cpus, want):
    """--jobs 16 on three points starts min(16, 3, CPUs) workers, none when
    that is 1 (os.cpu_count() may return None: one CPU), with the same
    output as --jobs 1.  The fake pool maps in-process."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(gsl.cli.os, "cpu_count", lambda: cpus)
    t0s = ["--t0", "21", "--t0", "7", "--t0=-3/7"]
    code1, doc1, _ = run(capsys, "verify", V4, *t0s)
    code16, doc16, _ = run(capsys, "verify", V4, *t0s, "--jobs", "16")
    assert sizes == ([] if want is None else [want])
    assert code1 == code16 == 0 and doc1 == doc16


def test_verify_batch_analyses_the_cover_once(capsys, monkeypatch):
    calls = []
    expand = gsl.covers.puiseux_at

    def counted(*args, **kwargs):
        calls.append(args[1])
        return expand(*args, **kwargs)

    monkeypatch.setattr(gsl.covers, "puiseux_at", counted)
    t0s = ["--t0=" + t for t in ("21", "7", "-3/7", "5/2", "100")]
    code, doc, _ = run(capsys, "verify", V4, *t0s)
    assert code == 0 and len(doc["reports"]) == 5
    assert len(calls) == 3  # one expansion per locus of V4: T - 1, T, infinity


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_bad_t0_fails_only_its_own_slot(capsys, jobs):
    code, doc, err = run(capsys, "verify", V4, "--t0", "21", "--t0", "1",
                         "--t0", "7", "--jobs", jobs)
    assert code == 64
    first, bad, last = doc["reports"]
    assert bad == {"cover": "v4_sqrt_t_sqrt_t_minus_1", "t0": "1",
                   "error": "HypothesisViolation",
                   "message": "specialization point 1 lies on a branch locus"}
    assert "branch locus" in err
    assert run(capsys, "verify", V4, "--t0", "21")[1] == first
    assert run(capsys, "verify", V4, "--t0", "7")[1] == last
    assert run(capsys, "verify", V4, "--t0", "1")[:2] == (64, bad)


def test_verify_refuses_a_point_on_a_branch_locus_alike_with_primes(capsys):
    want = run(capsys, "verify", "bundled:v4_sqrt_t_sqrt_t_minus_1", "--t0", "1")
    assert want[1]["message"] == "specialization point 1 lies on a branch locus"
    assert run(capsys, "verify", "bundled:v4_sqrt_t_sqrt_t_minus_1", "--t0", "1",
               "--primes", "3,5,7") == want


def test_verify_checks_a_repeated_prime_once(capsys, monkeypatch):
    calls = []
    real = gsl.specialize.local_splitting_type

    def spy(f, p):
        calls.append(p)
        return real(f, p)

    monkeypatch.setattr(gsl.specialize, "local_splitting_type", spy)
    code, doc, _ = run(capsys, "verify", V4, "--t0", "21", "--primes", "5,5,7")
    assert code == 0
    assert [e["prime"] for e in doc["entries"]] == [5, 7]
    assert calls == [5, 7]


@pytest.mark.parametrize("patch", ["prediction", "oracle"])
def test_verify_oracle_failure_exit_3(capsys, monkeypatch, patch):
    def fail(*args):
        raise NonUniform("degenerate") if patch == "prediction" else WildOrIrregular("wild")

    target = "frobenius_orders" if patch == "prediction" else "local_splitting_type"
    monkeypatch.setattr(gsl.specialize, target, fail)
    code, doc, _ = run(capsys, "verify", V4, "--t0", "21")
    assert code == 3
    assert doc["worst"] == "ORACLE_FAILURE"
    assert {e["prime"] for e in doc["entries"] if e["verdict"] == "ORACLE_FAILURE"} == {5, 7}


def test_a_batch_reads_a_branch_at_a_prime_once(capsys, monkeypatch):
    # t0 = 5, 10, 15, 20 each meet the branch T at p = 5 with multiplicity
    # one: its Frobenius table at 5 is read for the first of them only, and
    # a second run, which loads the cover anew, finds it by value
    reads = []
    real = gsl.covers.reduce_relative

    def spy(rel, base, place):
        reads.append((base, place))
        return real(rel, base, place)

    gsl.covers.frobenius_orders.cache_clear()
    monkeypatch.setattr(gsl.covers, "reduce_relative", spy)
    t0s = [arg for t0 in ("5", "10", "15", "20") for arg in ("--t0", t0)]
    for _ in range(2):
        code, doc, _ = run(capsys, "verify", V4, *t0s, "--primes", "5")
        assert code == 0
        meetings = [e["prediction"]["meeting"] for r in doc["reports"] for e in r["entries"]]
        assert [(m["multiplicity"], m["residue"]) for m in meetings] == [(1, 0)] * 4
    assert reads == [(UniPoly([0, 1]), (5, 0))]
    gsl.covers.frobenius_orders.cache_clear()


def test_verify_batch_with_a_mismatch_exits_2(capsys, monkeypatch):
    # t0 = 21: the oracle contradicts the predictions at 5 and 7; t0 = 33
    # (33 - 1 = 2^5): the oracle fails at 11
    at_21 = gsl.specialize.specialize_poly(gsl.covers.load_cover(V4), 21)

    def oracle(f, p):
        if f != at_21:
            raise WildOrIrregular("wild")
        return LocalSplittingType(p=p, factors=((1, 1, 4),), certified=True)

    monkeypatch.setattr(gsl.specialize, "local_splitting_type", oracle)
    code, doc, _ = run(capsys, "verify", V4, "--t0", "21", "--t0", "33")
    assert code == 2
    assert [r["worst"] for r in doc["reports"]] == ["MISMATCH", "ORACLE_FAILURE"]
    verdicts = [{e["prime"]: e["verdict"] for e in r["entries"]} for r in doc["reports"]]
    assert verdicts[0][5] == verdicts[0][7] == "MISMATCH"
    assert verdicts[1][11] == "ORACLE_FAILURE"


def test_verify_explicit_primes(capsys):
    code, doc, _ = run(capsys, "verify", C3, "--t0", "13", "--primes", "7,31")
    assert code == 0
    assert [e["prime"] for e in doc["entries"]] == [7, 31]
    assert all(e["verdict"] == "MATCH" for e in doc["entries"])


def test_predict(capsys):
    code, doc, _ = run(capsys, "predict", V4, "--t0", "21", "--prime", "7")
    assert code == 0
    assert (doc["mode"], doc["e"], doc["f"]) == ("exact", 2, 2)


@pytest.mark.parametrize("prime", ["3", "5"])
def test_predict_refuses_a_point_on_a_branch_locus_at_every_prime(tmp_path, capsys, prime):
    # the branch locus is T - 1/5; at p = 5 the point is a pole, which
    # meets infinity, and it is still refused
    path = tmp_path / "c2_5t.json"
    path.write_text(json.dumps({"name": "c2_5t", "group_order": 2,
                                "P": [["1", "-5"], [], ["1"]],
                                "assert_regular_galois": True}))
    code, doc, _ = run(capsys, "predict", str(path), "--t0", "1/5", "--prime", prime)
    assert code == 64
    assert doc == {"error": "HypothesisViolation",
                   "message": "specialization point 1/5 lies on a branch locus"}


@pytest.mark.parametrize("cover, t0, primes", [(C2, "0", ["4"]), (V4, "1", ["9", "4"])],
                         ids=["c2", "v4"])
def test_a_point_on_a_branch_locus_is_refused_before_any_prime(capsys, cover, t0, primes):
    # predict and verify refuse in one order: the branch locus before the
    # primes, which here are not prime
    want = {"error": "HypothesisViolation",
            "message": f"specialization point {t0} lies on a branch locus"}
    for p in primes:
        assert run(capsys, "predict", cover, "--t0", t0, "--prime", p)[:2] == (64, want)
    want = {"cover": Path(cover).stem, "t0": t0, **want}
    assert run(capsys, "verify", cover, "--t0", t0, "--primes", ",".join(primes))[:2] == (64, want)


def test_verify_checks_the_primes_before_the_discriminant_locus(tmp_path, capsys):
    # Y^2 - T (T - 1)^2 is branched at T = 0 and infinity only, but T = 1
    # is on its discriminant locus: a composite prime is refused first
    path = tmp_path / "c2_apparent.json"
    path.write_text(json.dumps({"name": "c2_apparent", "group_order": 2,
                                "P": [["0", "-1", "2", "-1"], [], ["1"]],
                                "assert_regular_galois": True}))
    assert run(capsys, "verify", str(path), "--t0", "1", "--primes", "3,4")[:2] == (
        64, {"error": "DomainError", "message": "4 is not prime"})
    assert run(capsys, "verify", str(path), "--t0", "1", "--primes", "3")[:2] == (
        64, {"cover": "c2_apparent", "t0": "1", "error": "HypothesisViolation",
             "message": "t0 = 1 lies on the branch locus of the cover"})


def test_predict_refuses_a_bad_prime(capsys):
    # 2 is bad for Y^2 - T; Q(sqrt 3) is ramified there, so no claim is made
    code, doc, _ = run(capsys, "predict", C2, "--t0", "3", "--prime", "2")
    assert code == 64
    assert doc == {"error": "HypothesisViolation",
                   "message": "p = 2 is in the cover's conservative bad set; "
                              "no prediction is claimed there"}
    code, doc, _ = run(capsys, "verify", C2, "--t0", "3", "--primes", "2")
    assert code == 0 and doc["entries"][0]["verdict"] == "SKIPPED_BAD_PRIME"


def test_oracle(capsys):
    code, doc, _ = run(capsys, "oracle", "--coeffs=-10,0,1", "--prime", "5")
    assert code == 0
    assert doc == {"p": 5, "factors": [{"e": 2, "f": 1, "count": 1}],
                   "certified": True}


def test_a_strong_pseudoprime_to_the_bases_up_to_37_is_no_prime(capsys):
    # 399165290221 * 798330580441 passes the strong tests to the prime
    # bases up to 37; as a --prime it is refused, and as a t0 it is
    # factored, and both its factors are checked
    n = "318665857834031151167461"
    code, doc, _ = run(capsys, "oracle", "--coeffs=-2,0,1", "--prime", n)
    assert (code, doc) == (64, {"error": "DomainError", "message": f"{n} is not prime"})
    code, doc, _ = run(capsys, "verify", V4, "--t0", n)
    assert code == 0
    verdicts = {entry["prime"]: entry["verdict"] for entry in doc["entries"]}
    assert verdicts[399165290221] == verdicts[798330580441] == "MATCH"


def test_oracle_wild_exit_3(capsys):
    code, doc, _ = run(capsys, "oracle", "--coeffs=-3,0,0,1", "--prime", "3")
    assert code == 3
    assert doc["error"] == "WildOrIrregular"


def test_adequacy(capsys):
    code, doc, _ = run(capsys, "adequacy", V4, "--t0", "21")
    assert code == 0
    cert = doc["certificate"]
    assert cert["adequate"] is True
    assert [w["prime"] for w in cert["witnesses"]["2"]] == [3, 7]


def test_adequacy_not_adequate_exit_1(capsys):
    code, doc, _ = run(capsys, "adequacy", C2, "--t0", "2", "--bound", "3")
    assert code == 1
    assert doc["certificate"]["adequate"] is False


def test_adequacy_search(capsys):
    code, doc, _ = run(capsys, "adequacy", C2, "--search", "--start", "2")
    assert code == 0 and doc["t0"] == "2"


def test_obstruct(capsys):
    code, doc, _ = run(capsys, "obstruct", V4, "--q", "2", "--bound", "20")
    assert code == 0
    assert doc["status"] == "OBSTRUCTION_PRESENT"
    assert doc["certificate"]["primes"] == [5, 13, 17]
    assert doc["certificate"]["all_ok"] is True


def test_obstruct_hypothesis_not_met_exit_1(capsys):
    code, doc, _ = run(capsys, "obstruct", C2, "--q", "2", "--bound", "20")
    assert code == 1
    assert doc["status"] == "HYPOTHESIS_NOT_MET"


def test_obstruct_q_zero_is_a_usage_error(capsys):
    code, doc, _ = run(capsys, "obstruct", V4, "--q", "0")
    assert code == 64
    assert doc == {"error": "DomainError", "message": "q must be >= 2"}


def test_frobenius_primes(capsys):
    code, doc, _ = run(capsys, "frobenius-primes", V4, "--order", "2",
                       "--bound", "20")
    assert code == 0 and doc["primes"] == [7, 11, 19]


def test_realize(capsys):
    code, doc, _ = run(capsys, "realize", C2, "--prime", "5", "--target", "up")
    assert code == 0 and doc["t0"] == 10


def test_realize_not_found_exit_1(capsys):
    code, doc, _ = run(capsys, "realize", C2, "--prime", "5", "--target", "up",
                       "--bound", "3")
    assert code == 1 and "error" in doc


def test_adequacy_search_not_found_exit_1(capsys):
    # t0 = 0 and 1 lie on the branch loci, P(2, Y) is reducible
    code, doc, _ = run(capsys, "adequacy", V4, "--search", "--start", "0",
                       "--count", "3")
    assert code == 1
    assert doc == {"error": "DomainError",
                   "message": "no adequate specialization found in [0, 3)"}


def test_search_errors_are_not_negative_results(capsys, monkeypatch):
    # an unparsable seed fails the first finite-field split: a usage error,
    # not "nothing found"
    monkeypatch.setenv("GSL_SEED", "seed")
    for argv in (["adequacy", V4, "--search", "--count", "3"],
                 ["realize", V4, "--prime", "5", "--target", "u"]):
        code, doc, err = run(capsys, *argv)
        assert code == 64 and "GSL_SEED" in doc["message"] and "GSL_SEED" in err


def test_bundled_scheme(capsys):
    code, doc, _ = run(capsys, "analyze", "bundled:c2_sqrt_t", "--skip-sampling")
    assert code == 0 and doc["cover"] == "c2_sqrt_t"
    code, _, err = run(capsys, "analyze", "bundled:nope")
    assert code == 64


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "verify", V4)[0] == 64          # missing --t0
    assert run(capsys, "verify", V4, "--t0", "x")[0] == 64
    assert run(capsys, "analyze", "/does/not/exist.json")[0] == 64
    assert run(capsys, "oracle", "--coeffs", "1,junk", "--prime", "5")[0] == 64
    assert run(capsys, "analyze", V4, "--prec", "64")[0] == 64  # no such option
    assert run(capsys, "verify", V4, "--t0", "--summary")[0] == 64  # --t0 without a value


@pytest.mark.parametrize("value", ["1.5", "1e3", "1_000", " 7 ", "+3", "1/-2"])
def test_a_rational_outside_the_documented_grammar_is_a_usage_error(capsys, value):
    # rationals are "n" or "n/d" (docs/formats.md), not Python's Fraction syntax
    for argv in (["verify", V4, f"--t0={value}"],
                 ["predict", C3, f"--t0={value}", "--prime", "7"],
                 ["oracle", f"--coeffs={value},1", "--prime", "5"]):
        code, _, err = run(capsys, *argv)
        assert code == 64 and "bad rational" in err, argv


def test_an_unreduced_rational_is_accepted(capsys):
    assert run(capsys, "verify", V4, "--t0=-6/14")[:2] == run(capsys, "verify", V4, "--t0=-3/7")[:2]


@pytest.mark.parametrize("argv", [
    ["verify", "bundled:v4_sqrt_t_sqrt_t_minus_1", "--t0", "-3/7"],
    ["predict", "bundled:c3_shanks", "--t0", "-1/2", "--prime", "7"],
    ["oracle", "--coeffs", "-10,0,1", "--prime", "5"],
    ["adequacy", "bundled:v4_sqrt_t_sqrt_t_minus_1", "--t0", "-3/7"],
])
def test_a_negative_value_parses_in_both_forms(capsys, argv):
    # argparse alone reads `-3/7` and `-10,0,1` as options, not as values
    i = argv.index("--t0" if "--t0" in argv else "--coeffs")
    joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    got = [(main(a), capsys.readouterr()) for a in (argv, joined)]
    assert got[0] == got[1]
    assert json.loads(got[0][1].out)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, doc, err = run(capsys, "verify", V4, "--t0", "21", "--jobs", jobs)
    assert (code, doc) == (64, None)
    assert f"argument --jobs: invalid positive int value: '{jobs}'" in err


def test_malformed_cover_exit_64(tmp_path, capsys):
    def cover(**over):
        return json.dumps({"name": "x", "group_order": 2, "P": [["0", "-1"], ["0"], ["1"]],
                           "assert_regular_galois": True, **over})

    p = tmp_path / "bad.json"
    for text in [cover(group_order=3), '{"name": ', "[1, 2]", cover(name=""),
                 cover(group_order=1), cover(P=[]), cover(P=[["0", "1/0"], ["0"], ["1"]])]:
        p.write_text(text)
        code, doc, _ = run(capsys, "analyze", str(p))
        assert code == 64 and doc["error"] == "SchemaError", text
    code, doc, _ = run(capsys, "analyze", '{"name": ')  # inline JSON text
    assert code == 64 and doc["message"].startswith("cover JSON is malformed")
    code, doc, _ = run(capsys, "analyze", "[1, 2]")  # inline JSON text, not an object
    assert code == 64 and doc["message"] == "cover data must be a JSON object"


def test_json_output_is_sorted_and_stable(capsys):
    _, doc1, _ = run(capsys, "analyze", V4, "--skip-sampling")
    _, doc2, _ = run(capsys, "analyze", V4, "--skip-sampling")
    assert doc1 == doc2
    assert list(doc1) == sorted(doc1)
