"""Covers of the line: loading, branch data, residue fields, bad primes."""

import json
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import gsl.cli
import gsl.covers
from gsl import dense
from gsl.covers import (
    Cover,
    _duval_transform,
    _places,
    branch_points,
    bundled_covers,
    conservative_bad_primes,
    load_cover,
    probabilistic_galois_check,
    puiseux_at,
    roots_of_unity_check,
)
from gsl.errors import (
    DomainError,
    HypothesisViolation,
    NonUniformRamification,
    SchemaError,
    UnstableResidueField,
)
from gsl.exact import BiPoly, UniPoly
from gsl.nfield import NumberField


def _cover_dict(**over):
    d = {
        "name": "c2_sqrt_t",
        "group_order": 2,
        "P": [["0", "-1"], ["0"], ["1"]],
        "assert_regular_galois": True,
    }
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# loading and schema


def test_load_cover_from_dict_string_and_path(tmp_path):
    d = _cover_dict()
    c1 = load_cover(d)
    c2 = load_cover(json.dumps(d))
    p = tmp_path / "c.json"
    p.write_text(json.dumps(d))
    c3 = load_cover(str(p))
    assert c1.name == c2.name == c3.name == "c2_sqrt_t"
    assert c1.degree == 2
    assert load_cover(c1.to_json()).poly == c1.poly


def test_schema_errors():
    bad = [
        (_cover_dict(group_order=3), "must equal the Y-degree"),
        (_cover_dict(assert_regular_galois=False), "assert_regular_galois must be true"),
        (_cover_dict(P=[["0", "-1"], ["0"], ["2"]]), "must be monic in Y"),
        (_cover_dict(P=[["5"], ["0"], ["1"]]), "must actually involve T"),
        ({k: v for k, v in _cover_dict().items() if k != "name"}, "missing the 'name' key"),
        (_cover_dict(P=[[0, -1], [0], [1]]), "must be a list of rational strings"),
        (_cover_dict(name=""), "'name' must be a non-empty string"),
        (_cover_dict(name=3), "'name' must be a non-empty string"),
        (_cover_dict(group_order=1), "'group_order' must be an integer >= 2"),
        (_cover_dict(group_order="2"), "'group_order' must be an integer >= 2"),
        (_cover_dict(P=[]), "'P' must be a non-empty list"),
        (_cover_dict(P=[["0", "1/0"], ["0"], ["1"]]), "bad rational string"),
        (_cover_dict(P=[["0", "x"], ["0"], ["1"]]), "bad rational string"),
        ('{"name": ', "cover JSON is malformed"),
        (["not", "an", "object"], "must be a JSON object"),
        # JSON text that is not an object is read as JSON, not as a file name
        ("[1, 2]", "cover data must be a JSON object"),
        (' \n["P"]', "cover data must be a JSON object"),
        ("[1, ", "cover JSON is malformed"),
    ]
    for source, message in bad:
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_cover(source)


def test_schema_errors_of_cover_files(tmp_path):
    with pytest.raises(SchemaError, match="cannot read cover file"):
        load_cover(tmp_path / "missing.json")
    path = tmp_path / "cover.json"
    for text, message in [('{"name": ', "is not valid JSON"), ("[1, 2]", "must be a JSON object")]:
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            load_cover(path)


def test_bundled_covers_present():
    covers = bundled_covers()
    assert set(covers) == {"c2_sqrt_t", "v4_sqrt_t_sqrt_t_minus_1", "c3_shanks"}
    assert all(c.poly.is_monic_in_y for c in covers.values())


# ---------------------------------------------------------------------------
# branch tables (independently derived, frozen)


def test_branch_table_c2(branch_table):
    bps = branch_table["c2_sqrt_t"]
    got = [(None if b.locus is None else b.locus.to_json(), b.ram_index, b.d_order)
           for b in bps]
    assert got == [(["0", "1"], 2, 1), (None, 2, 1)]


def test_branch_table_v4(branch_table):
    bps = branch_table["v4_sqrt_t_sqrt_t_minus_1"]
    got = [(None if b.locus is None else b.locus.to_json(), b.ram_index, b.d_order)
           for b in bps]
    assert got == [(["-1", "1"], 2, 1), (["0", "1"], 2, 2), (None, 2, 1)]
    # the residue field over T is generated by Z^2 + 1 (fourth roots of unity)
    t_branch = next(b for b in bps if b.locus is not None and b.locus.to_json() == ["0", "1"])
    assert [c.to_json() for c in t_branch.residue.rel] == [["1"], [], ["1"]]


def test_branch_table_c3(branch_table):
    bps = branch_table["c3_shanks"]
    got = [(None if b.locus is None else b.locus.to_json(), b.ram_index, b.d_order)
           for b in bps]
    # single finite branch over T^2 + 3T + 9; infinity is unramified
    assert got == [(["9", "3", "1"], 3, 1)]


def test_puiseux_places_account_for_degree(covers, branch_table):
    for name, cover in covers.items():
        for bp in branch_table[name]:
            places = puiseux_at(cover, bp.locus)
            assert sum(p.ram_index * p.residue_degree for p in places) == cover.degree


def test_puiseux_gaussian_residue_field():
    # Y^4 + 4T^2 at T: places with e = 2 and residue field Q(i)
    cover = load_cover({
        "name": "y4_plus_4t2",
        "group_order": 4,
        "P": [["0", "0", "4"], [], [], [], ["1"]],
        "assert_regular_galois": True,
    })
    places = puiseux_at(cover, UniPoly.from_json(["0", "1"]))
    assert [(p.ram_index, p.residue_degree) for p in places] == [(2, 2)]
    rel = places[0].rel_min_poly
    assert [c.to_json() for c in rel] == [["4"], [], ["1"]]  # Z^2 + 4


def test_non_uniform_ramification_detected():
    # (Y^2 - T)(Y^3 - T): e = 2 and e = 3 places over T
    cover = load_cover({
        "name": "mixed",
        "group_order": 5,
        "P": [["0", "0", "1"], ["0", "-1"], ["0", "-1"], [], [], ["1"]],
        "assert_regular_galois": True,
    })
    with pytest.raises(NonUniformRamification):
        branch_points(cover)


@pytest.mark.parametrize("rows", [
    [["0", "0", "1"], ["0", "-2"], ["1"]],               # (Y - T)^2
    [["0", "0", "1"], [], ["0", "-2"], [], ["1"]],      # (Y^2 - T)^2
])
def test_a_repeated_factor_in_y_violates_a_hypothesis(rows, tmp_path, capsys):
    # disc_Y(P) = 0: there is no branch divisor to read, and the refusal
    # names that cause, in the library and in the CLI's error document
    d = _cover_dict(name="square", group_order=len(rows) - 1, P=rows)
    with pytest.raises(HypothesisViolation, match=re.escape("disc_Y(P) = 0")):
        branch_points(load_cover(d))
    path = tmp_path / "square.json"
    path.write_text(json.dumps(d))
    assert gsl.cli.main(["analyze", str(path), "--skip-sampling"]) == 64
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "HypothesisViolation" and "repeated factor in Y" in doc["message"]


def test_chart_at_infinity_rejects_a_cover_not_monic_in_y():
    # T Y^2 - 1 bypasses load_cover's schema check
    cover = Cover("not_monic", 2, BiPoly.from_json([["-1"], [], ["0", "1"]]))
    with pytest.raises(DomainError, match="chart at infinity"):
        puiseux_at(cover, None)


def test_precision_override_is_stable(covers):
    # every locus of V4 resolves at the first polygon: a cap of 1 is tight
    c = covers["v4_sqrt_t_sqrt_t_minus_1"]
    for locus in [bp.locus for bp in branch_points(c)] + [None]:
        assert puiseux_at(c, locus) == puiseux_at(c, locus, prec=1)
        assert puiseux_at(c, locus) == puiseux_at(c, locus, prec=64)


# ---------------------------------------------------------------------------
# bad primes and cover-level checks


def test_conservative_bad_primes(covers):
    assert conservative_bad_primes(covers["c2_sqrt_t"]) == frozenset({2})
    assert conservative_bad_primes(covers["v4_sqrt_t_sqrt_t_minus_1"]) == frozenset({2, 3})
    assert conservative_bad_primes(covers["c3_shanks"]) == frozenset({2, 3})


def test_roots_of_unity_check(covers):
    # Y^3 - T, declared of order 3, analyses with e = 3 at T and at
    # infinity over the residue field Q, which lacks the cube roots of
    # unity; C6's e = 3 branch over T^2 + 3T + 9 has them
    y3_t = load_cover(_cover_dict(name="y3_t", group_order=3, P=[["0", "-1"], [], [], ["1"]]))
    c6 = Cover("c6", 6, BiPoly.from_json([[str(c) for c in row] for row in _C6]))
    for c, want in [*((c, True) for c in covers.values()), (c6, True), (y3_t, False)]:
        assert roots_of_unity_check(c) is want, c.name


def test_galois_sampling_accepts_bundled(covers):
    for c in covers.values():
        assert probabilistic_galois_check(c, samples=12)


def test_galois_sampling_specializes_through_the_integer_rows(covers, monkeypatch):
    # the sampler evaluates P(t0, Y) as specialize_poly does, by BiPoly.at
    calls = []
    real = BiPoly.at
    monkeypatch.setattr(BiPoly, "at", lambda P, t0: calls.append(t0) or real(P, t0))
    assert probabilistic_galois_check(covers["c3_shanks"], samples=6, seed=1)
    assert len(calls) >= 6


def test_galois_sampling_refutes_non_galois():
    # Y^3 - T is not Galois over Q(T): factor degrees mod p are not uniform
    cover = load_cover({
        "name": "y3_t",
        "group_order": 3,
        "P": [["0", "-1"], [], [], ["1"]],
        "assert_regular_galois": True,
    })
    assert not probabilistic_galois_check(cover, samples=24)


def test_galois_sampling_propagates_unexpected_errors(covers, monkeypatch):
    def broken(f, p):
        raise RuntimeError("not a documented frobenius_data failure")

    monkeypatch.setattr(gsl.covers, "frobenius_data", broken)
    with pytest.raises(RuntimeError):
        probabilistic_galois_check(covers["c2_sqrt_t"], samples=2)


# ---------------------------------------------------------------------------
# the analysis cached on each cover


def _translate(rows, b):
    """Rows of P(T + b, Y), expanded with binomials over Fraction."""
    out = []
    for row in rows:
        new = [Fraction(0)] * len(row)
        for k, c in enumerate(row):
            for j in range(k + 1):
                new[j] += Fraction(c) * math.comb(k, j) * Fraction(b) ** (k - j)
        out.append(new)
    return out


@pytest.mark.parametrize("name", ["v4_sqrt_t_sqrt_t_minus_1", "c3_shanks"])
@pytest.mark.parametrize("b", [-2, 3, Fraction(1, 2)])
def test_translate_moves_branch_loci_only(covers, name, b):
    cover = covers[name]
    rows = _translate([row.coeffs for row in cover.poly.rows], b)
    moved = load_cover({
        "name": f"{name}_b{b}",
        "group_order": cover.group_order,
        "P": [[str(c) for c in row] for row in rows],
        "assert_regular_galois": True,
    })

    def table(bps, shift):
        return {(None if bp.locus is None else tuple(shift(bp.locus.coeffs)),
                 bp.ram_index, bp.d_order) for bp in bps}

    want = table(branch_points(cover), lambda cs: _translate([cs], b)[0])
    assert table(branch_points(moved), lambda cs: cs) == want
    assert len(branch_points(moved)) == len(want)


def test_cover_pickles_with_its_analysis(covers):
    cover = covers["v4_sqrt_t_sqrt_t_minus_1"]
    analysis = cover.analysis
    clone = pickle.loads(pickle.dumps(cover))
    assert clone == cover
    assert vars(clone)["analysis"] == analysis  # carried, not recomputed


def test_covers_hash_by_value(covers):
    cover = covers["v4_sqrt_t_sqrt_t_minus_1"]
    reloaded = load_cover(cover.to_json())
    clone = pickle.loads(pickle.dumps(cover))
    assert hash(reloaded) == hash(cover) == hash(clone)
    assert len({cover, reloaded, clone, *covers.values()}) == len(covers)
    assert {cover: "v4"}[reloaded] == "v4"


def test_expansion_places_must_fill_the_degree(monkeypatch):
    # the residual at T = 0 loses its factors: no place is found at all
    monkeypatch.setattr(gsl.covers, "factor_nf", lambda K, f: [])
    cover = bundled_covers()["c2_sqrt_t"]
    with pytest.raises(NonUniformRamification,
                       match="over the locus have total degree 0, not the Y-degree 2"):
        puiseux_at(cover, UniPoly.from_json(["0", "1"]))


def test_resolved_clusters_must_fill_their_multiplicity(monkeypatch):
    # the polygon of the repeated root y = 0 of H(0, y) = y^2 finds no place
    monkeypatch.setattr(gsl.covers, "_polygon", lambda *args: [])
    cover = bundled_covers()["c2_sqrt_t"]
    with pytest.raises(NonUniformRamification,
                       match="cluster of multiplicity 2 resolved into places of total degree 0"):
        puiseux_at(cover, UniPoly.from_json(["0", "1"]))


# ---------------------------------------------------------------------------
# the expansion's checks raise typed errors (they hold under python -O)

_Q = NumberField(UniPoly.from_json(["0", "1"]))
_T = UniPoly.from_json(["0", "1"])


def _rows(*rows):
    """H over Q from rows of integer x-coefficients, by y-degree."""
    return [dense.trim(_Q, [_Q.from_int(c) for c in row]) for row in rows]


def test_places_require_monic_in_y():
    # x y^2 + y - x: the y-degree drops at x = 0
    with pytest.raises(DomainError, match="monic in y"):
        _places(_Q, _rows([0, -1], [1], [0, 1]), 10)


def test_duval_transform_requires_divisibility():
    # y^2 - x under the slope-1/2 substitution is x^2 (1 + y)^2 - x^2
    H = _rows([0, -1], [], [1])
    assert _duval_transform(_Q, H, 2, 1, 1, 1, _Q.one, 2) == _rows([], [2], [1])
    with pytest.raises(DomainError, match="divisible by x\\^3"):
        _duval_transform(_Q, H, 2, 1, 1, 1, _Q.one, 3)


def test_polygon_checks_residual_endpoints(monkeypatch):
    # every side one unit too high: its residual vanishes at both ends
    real = dense.newton_sides
    monkeypatch.setattr(dense, "newton_sides", lambda pts: [
        (xa, ya + 1, xb, yb + 1, lam) for xa, ya, xb, yb, lam in real(pts)])
    with pytest.raises(NonUniformRamification, match="vanishes at an endpoint"):
        puiseux_at(bundled_covers()["c2_sqrt_t"], _T)


def test_polygon_sides_must_fill_the_multiplicity(monkeypatch):
    monkeypatch.setattr(dense, "newton_sides", lambda pts: [])
    with pytest.raises(NonUniformRamification,
                       match="total extent 0 at multiplicity 2"):
        puiseux_at(bundled_covers()["c2_sqrt_t"], _T)


# ---------------------------------------------------------------------------
# the Duval transform against pointwise evaluation

_QI = NumberField(UniPoly.from_json(["1", "0", "1"]))
_small_rat = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _transform_input(draw):
    K = draw(st.sampled_from([_Q, _QI]))
    elt = st.lists(_small_rat, min_size=K.degree, max_size=K.degree).map(K.from_coords)
    H = [dense.trim(K, draw(st.lists(elt, max_size=3)))
         for _ in range(draw(st.integers(1, 4)))]
    assume(any(H))
    w0 = draw(elt.filter(lambda a: not K.is_zero(a)))
    # (1, 0, 1, 0) is the slope-0 step y -> w0 + y that resolves H(0, y)
    params = draw(st.one_of(
        st.just((1, 0, 1, 0)),
        st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    ))
    return K, H, w0, params


@given(_transform_input())
def test_duval_transform_matches_pointwise_evaluation(data):
    K, H, w0, (q, m, u, v) = data
    ell = min(q * a + m * i for i, row in enumerate(H) for a, c in enumerate(row)
              if not K.is_zero(c))
    H3 = _duval_transform(K, H, q, m, u, v, w0, ell)
    for x0 in (Fraction(1, 2), Fraction(-3), Fraction(5, 7)):
        x = K.scale(K.one, x0)
        lhs = dense.trim(K, [dense.evaluate(K, row, x) for row in H3])
        # H(w0^v x^q, x^m (w0^u + y)) / x^ell as a polynomial in y
        X = K.mul(dense.power(K, w0, v), dense.power(K, x, q))
        in_y = [K.mul(dense.evaluate(K, row, X), dense.power(K, x, m * i))
                for i, row in enumerate(H)]
        rhs = dense.scale(K, dense.shift(K, dense.trim(K, in_y), dense.power(K, w0, u)),
                          K.scale(K.one, x0 ** -ell))
        assert lhs == rhs
        # and at points (x0, y0), by Horner alone: no shift on either side
        for y0 in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            Y = K.mul(dense.power(K, x, m), K.add(dense.power(K, w0, u), K.scale(K.one, y0)))
            at_y0 = dense.evaluate(K, [dense.evaluate(K, row, X) for row in H], Y)
            assert dense.evaluate(K, lhs, K.scale(K.one, y0)) == K.scale(at_y0, x0 ** -ell)


# ---------------------------------------------------------------------------
# the one guard of the expansion: a cap on its polygon depth

# the degree-6 cover C6 of the benchmark: rows of T-degree 4, 3, 3, 2, 2, 1, 0
_C6 = [[-19, 6, 27, 10, 1], [-24, -84, -36, -4], [84, 38, -6, -2], [-2, 26, 6],
       [-21, -5, 1], [0, -2], [1]]


def test_depth_cap_is_tight_at_infinity_of_c6():
    # the places of C6 over infinity need two polygon levels
    c6 = Cover("c6", 6, BiPoly.from_json([[str(c) for c in row] for row in _C6]))
    assert puiseux_at(c6, None, prec=2) == puiseux_at(c6, None)
    assert [(p.ram_index, p.residue_degree) for p in puiseux_at(c6, None)] == [(2, 1)] * 3
    with pytest.raises(UnstableResidueField):
        puiseux_at(c6, None, prec=1)


def _deep_cover(k):
    """(Y - S)^2 - T^(2k+1) with S = 1 + T + ... + T^k: over T = 0 the two
    branches S +- T^(k+1/2) share k + 1 terms, one polygon level each, and
    part at level k + 1."""
    S = UniPoly([Fraction(1)] * (k + 1))
    c0 = S * S - UniPoly([Fraction(0)] * (2 * k + 1) + [Fraction(1)])
    return Cover(f"deep{k}", 2, BiPoly([c0, S.scale(-2), UniPoly.const(1)]))


@pytest.mark.parametrize("k", [0, 3])
def test_depth_cap_counts_polygon_levels(k):
    cover = _deep_cover(k)
    assert [(p.ram_index, p.residue_degree) for p in puiseux_at(cover, _T, prec=k + 1)] == [(2, 1)]
    with pytest.raises(UnstableResidueField):
        puiseux_at(cover, _T, prec=k)


def test_default_depth_cap_is_49_polygon_levels():
    assert puiseux_at(_deep_cover(48), _T) == puiseux_at(_deep_cover(48), _T, prec=49)
    with pytest.raises(UnstableResidueField, match="depth cap"):
        branch_points(_deep_cover(49))


def test_expansion_makes_no_disc_y_call(covers, monkeypatch):
    # disc_Y(P) is computed once, by the analysis; the expansion never needs it
    c = covers["v4_sqrt_t_sqrt_t_minus_1"]
    loci = [bp.locus for bp in branch_points(c)] + [None]
    before = [puiseux_at(c, locus) for locus in loci]

    def refuse(P):
        raise AssertionError("puiseux_at computed disc_y")

    monkeypatch.setattr(gsl.covers, "disc_y", refuse)
    assert [puiseux_at(c, locus) for locus in loci] == before
