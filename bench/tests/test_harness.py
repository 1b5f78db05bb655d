"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest bench/tests
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from inputs import (  # noqa: E402
    draw_t0, rat_key, shift, specialize_rows, t0_domain, translate_rows, v4_irreducible_at,
)
from run import tail  # noqa: E402
from spans import Tracer, TraceSetupError  # noqa: E402


def eval_rows(rows, t, y):
    """P(t, y) for P given as cover JSON rows."""
    return sum(c * y**i for i, c in enumerate(specialize_rows(rows, t)))


@pytest.mark.parametrize("b", [-7, 0, 3, 17])
def test_translate_rows_evaluates_as_shifted_polynomial(b):
    rows = [["-19", "6", "27", "10", "1"], ["1/2", "-84"], ["0"], ["3", "0", "-2/3"], ["1"]]
    moved = translate_rows(rows, b)
    for t in (Fraction(0), Fraction(2), Fraction(-5, 3)):
        for y in (Fraction(1), Fraction(-3, 2), Fraction(7)):
            assert eval_rows(moved, t, y) == eval_rows(rows, t + b, y)


def test_shift_of_a_locus_moves_its_root():
    assert shift(["5", "1"], 3) == (8, 1)
    m = shift(["9", "3", "1"], -4)           # (T - 4)^2 + 3(T - 4) + 9
    assert m == (13, -5, 1)


def test_draws_stay_in_the_recorded_domain():
    domain = set(t0_domain())
    rng = random.Random(5)
    draws = [draw_t0(rng) for _ in range(2000)]
    assert set(draws) <= domain
    assert any(t.denominator > 1 for t in draws) and any(t.denominator == 1 for t in draws)
    assert rat_key(Fraction(-7, 2)) == "-7/2" and rat_key(Fraction(4)) == "4"


def test_v4_irreducibility_rule():
    assert not v4_irreducible_at(Fraction(4))        # s is a square
    assert not v4_irreducible_at(Fraction(5))        # s - 1 = 4
    assert not v4_irreducible_at(Fraction(-1, 3))    # s(s - 1) = 4/9
    assert not v4_irreducible_at(Fraction(1))
    assert v4_irreducible_at(Fraction(3)) and v4_irreducible_at(Fraction(21))


@pytest.mark.parametrize("n, q", [
    (1, 50.0), (19, 50.0), (39, 50.0), (40, 75.0), (199, 75.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    ordered = [float(i) for i in range(n)]
    got_q, value = tail(ordered)
    assert got_q == q
    if q > 50.0:
        assert sum(v > value for v in ordered) >= 10


def test_tail_falls_back_to_the_median():
    assert tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    assert tail([1.0, 2.0, 3.0, 10.0]) == (50.0, 2.5)


def test_traced_verification_records_the_oracle_through_specialize():
    import gsl.specialize
    from gsl.covers import bundled_covers

    cover = bundled_covers()["v4_sqrt_t_sqrt_t_minus_1"]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        report = gsl.specialize.verify_specialization(cover, Fraction(21))
        tracer.active = False
    finally:
        tracer.uninstall()
    names = [tracer.names[s[0]] for s in tracer.spans]
    top = names.index("specialize.verify_specialization")
    oracle = [s for s in tracer.spans if tracer.names[s[0]] == "padic.local_splitting_type"]
    checked = sum(e.oracle is not None for e in report.entries)
    assert checked >= 1 and len(oracle) == checked
    assert all(s[3] == top for s in oracle)   # called from verify_specialization
    metrics = tracer.layer_metrics()
    assert metrics["padic.calls"] == checked and metrics["specialize.busy_s"] > 0
    assert tracer.named_metrics()["specialize.checked_frac"] == checked / len(report.entries)
    # Uninstalling restores the library's own functions.
    assert gsl.specialize.local_splitting_type.__module__ == "gsl.padic"
    assert not hasattr(gsl.specialize.local_splitting_type, "__wrapped__")


def test_missing_binding_fails_loudly(monkeypatch):
    import gsl.applications

    monkeypatch.delattr(gsl.applications, "local_splitting_type")
    with pytest.raises(TraceSetupError, match="applications"):
        Tracer().install()
    assert not hasattr(gsl.specialize.local_splitting_type, "__wrapped__")


def test_missing_entry_point_fails_loudly(monkeypatch):
    import gsl.covers

    monkeypatch.delattr(gsl.covers, "puiseux_at")
    with pytest.raises(TraceSetupError, match="covers.puiseux_at"):
        Tracer().install()


def test_self_time_excludes_other_layers():
    tracer = Tracer()
    tracer.names = ["covers.f", "covers.g", "exact.h"]
    tracer.layer_of = [3, 3, 7]
    # covers.f [0, 10] > covers.g [1, 9] > exact.h [2, 6]
    tracer.spans = [[0, 0.0, 10.0, -1, 0, False], [1, 1.0, 9.0, 0, 0, False],
                    [2, 2.0, 6.0, 1, 0, True]]
    m = tracer.layer_metrics()
    assert (m["covers.calls"], m["covers.busy_s"], m["covers.self_s"]) == (2, 10.0, 6.0)
    assert (m["exact.busy_s"], m["exact.self_s"], m["exact.failed"]) == (4.0, 4.0, 1)
