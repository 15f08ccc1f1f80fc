import dataclasses
import hashlib
import itertools
import random

import pytest

import oracles
from terna import (
    CongruenceClass,
    ConstructionError,
    DiagonalForm,
    PolySum,
    Witness,
    diagonal_bridge,
    embed,
    evaluate,
    exceptional_set,
    quadruple_poly,
    quadruple_witness,
    recipe,
    reduce,
    rep_x2_3y2_6z2,
    represent,
    triple_poly,
    triple_witness,
    verify,
)
from terna import lemmas, search, witnesses
from terna.witnesses import (
    _RECIPES,
    LIOUVILLE_TRIPLES,
    MIXED_SQUARE_SUMS,
    PROVEN_QUADRUPLES,
    PROVEN_TRIPLES,
    SMALL_QUADRUPLES,
)


def test_polynomial_builders():
    assert str(triple_poly((2, 3, 6))) == "x(2x+1)+y(3y+1)+z(6z+1)"
    assert str(quadruple_poly((3, 0, 1, 2))) == "3x^2+y(3y+1)+z(3z+2)"
    assert [str(p) for p in MIXED_SQUARE_SUMS] == ["x^2+y(3y+1)+z(3z+2)", "x^2+y(4y+1)+z(4z+3)"]


def test_recipes_match_generic_reduction():
    recs = [recipe(k) for k in PROVEN_TRIPLES + PROVEN_QUADRUPLES]
    assert len(recs) == 12
    assert sorted(r.id for r in recs) == sorted(
        ["i", "ii", "iii", "iv", "v", "vi", "vii", "a", "b0", "b1", "c", "d"]
    )
    # each stated identity is the one reduce() derives, which the recipe carries
    assert sorted(_RECIPES) == sorted(oracles.CLAUSE_IDENTITIES)
    for key, (multiplier, constant, coeffs, classes) in oracles.CLAUSE_IDENTITIES.items():
        rd = reduce(triple_poly(key) if len(key) == 3 else quadruple_poly(key))
        form = DiagonalForm(coeffs, tuple(CongruenceClass(m, r) for m, r in classes))
        assert (multiplier, constant, form) == (rd.M, rd.C, rd.constrained)
        assert recipe(key).reduction == rd


def test_recipe_rejects_unknown_key():
    with pytest.raises(ValueError):
        recipe((9, 9, 9))


@pytest.mark.parametrize("trip", PROVEN_TRIPLES, ids=str)
def test_triple_witness_constructive_range(trip):
    poly = triple_poly(trip)
    for n in range(300):
        w = triple_witness(trip, n)
        assert verify(poly, n, w)


@pytest.mark.parametrize("quad", PROVEN_QUADRUPLES, ids=str)
def test_quadruple_witness_constructive_range(quad):
    poly = quadruple_poly(quad)
    for n in range(300):
        w = quadruple_witness(quad, n)
        assert verify(poly, n, w)


def test_constructive_and_search_agree_on_representability():
    for key in list(PROVEN_TRIPLES) + list(PROVEN_QUADRUPLES):
        fn = triple_witness if len(key) == 3 else quadruple_witness
        poly = triple_poly(key) if len(key) == 3 else quadruple_poly(key)
        for n in range(80):
            built = fn(key, n, method="constructive")
            searched = fn(key, n, method="search")
            assert verify(poly, n, built) and verify(poly, n, searched)


def test_witness_examples():
    assert triple_witness((1, 2, 3), 0) == Witness(0, 0, 0)
    w = triple_witness((2, 2, 5), 1)
    assert evaluate(triple_poly((2, 2, 5)), w) == 1
    w = triple_witness((2, 3, 4), 2)
    assert verify(triple_poly((2, 3, 4)), 2, w)
    assert quadruple_witness((3, 0, 1, 2), 0) == Witness(0, 0, 0)
    assert quadruple_witness((3, 1, 2, 3), 0) == Witness(0, 0, 0)
    assert quadruple_witness((4, 1, 2, 3), 1) == Witness(0, 0, -1)


def test_witness_search_method():
    w = triple_witness((1, 2, 3), 9, method="search")
    assert verify(triple_poly((1, 2, 3)), 9, w)
    assert w == represent(triple_poly((1, 2, 3)), 9)


def test_witness_argument_validation():
    with pytest.raises(ValueError):
        triple_witness((2, 3, 6), 1)  # conjectured, not proven
    with pytest.raises(ValueError):
        quadruple_witness((5, 1, 2, 3), 1)
    with pytest.raises(ValueError):
        triple_witness((1, 2, 3), -1)
    with pytest.raises(ValueError):
        triple_witness((1, 2, 3), 1, method="guess")


@pytest.mark.parametrize("key", sorted(_RECIPES), ids=str)
def test_normalization_only_flips_signs(key):
    # the lifted witness embeds to the builder's triple up to sign, slot by slot
    rd = recipe(key).reduction
    multiplier, constant = oracles.CLAUSE_IDENTITIES[key][:2]
    fn = triple_witness if len(key) == 3 else quadruple_witness
    for n in range(60):
        final = embed(rd, fn(key, n))
        assert [abs(v) for v in final] == [abs(v) for v in recipe(key).build(multiplier * n + constant)]


def test_clause_identities_hold_exactly():
    for key, (multiplier, constant, coeffs, classes) in oracles.CLAUSE_IDENTITIES.items():
        for n in (0, 1, 2, 17, 101):
            triple = recipe(key).build(multiplier * n + constant)
            assert sum(c * w * w for c, w in zip(coeffs, triple)) == multiplier * n + constant
            for w, (m, r) in zip(triple, classes):
                assert r in (w % m, -w % m)


def _odd_odd_even(*w):
    return sorted(x % 2 for x in w) == [0, 1, 1]


# The residue facts the builders rely on instead of checking them: for every
# (x, y, z) mod q with c1*x^2 + c2*y^2 + c3*z^2 = r (mod q), the claim holds.
# With a key, r is the one residue mod q of scale*(M*n + C) over every n,
# read from the clause's reduction; scale is 2 where the builder scans 2t.
# Coefficients (0, 0, 0) make the claim a plain fact about every residue.
RESIDUE_FACTS = [
    # ii and d scan 32n+14 and 16n+14: 6 is a sum of three squares mod 8
    # only as 1 + 1 + 4
    ("ii-odd-odd-even", (1, 2, 4), 2, 8, 6, (1, 1, 1), _odd_odd_even),
    ("d-odd-odd-even", (4, 1, 2, 3), 1, 8, 6, (1, 1, 1), _odd_odd_even),
    # i: the halves (u+v)/2 and (u-v)/2 of odd u and v add up to u
    ("i-halves-split", None, 1, 8, 0, (0, 0, 0), lambda u, v, _: u % 2 == 0 or v % 2 == 0 or (u + v) // 2 % 2 != abs(u - v) // 2 % 2),
    # i: t = u^2 + v^2 + w^2 = w^2 + 2ubar^2 + 2vbar^2 = 2 (mod 3), and
    # 3 | vbar makes 3 | m = w^2 + 2vbar^2
    ("i-multiple-of-3", (1, 2, 3), 1, 3, 2, (1, 2, 2), lambda w, _, vbar: vbar % 3 or (w * w + 2 * vbar * vbar) % 3 == 0),
    # i: w and vbar odd make m = 3 (mod 8), and m = s^2 + 2t^2 then has s
    # and t odd
    ("i-m-3-mod-8", None, 1, 8, 0, (0, 0, 0), lambda w, vbar, _: w % 2 == 0 or vbar % 2 == 0 or (w * w + 2 * vbar * vbar) % 8 == 3),
    ("i-rewrite-odd", None, 1, 8, 3, (1, 2, 0), lambda s, t, _: s % 2 == 1 and t % 2 == 1),
    # iii: 40n+17 = 10u^2 + 5v^2 + 2w^2 has u, v, w odd and w = ±1 (mod 5)
    ("iii-odd-and-w", (1, 2, 5), 1, 40, 17, (10, 5, 2), lambda u, v, w: u % 2 and v % 2 and w % 2 and w % 5 in (1, 4)),
    # vi: 24n+7 = u^2 + v^2 + 3w^2 is 4 + 3 mod 8, with u and v even
    ("vi-uv-even", (2, 3, 3), 1, 8, 7, (1, 1, 3), lambda u, v, _: u % 2 == 0 and v % 2 == 0),
    # vii: 48n+13 = 13 (mod 16) is no square, and X^2 + 3Y^2 + 6Z^2 with X
    # even has Y, Z and X/2 odd
    ("vii-nonsquare", (2, 3, 4), 1, 16, 13, (1, 0, 0), lambda *w: False),
    ("vii-odd-slots", (2, 3, 4), 1, 16, 13, (1, 3, 6), lambda x, y, z: x % 2 or (y % 2 and z % 2 and x // 2 % 2)),
    # a: 12n+5 = u^2 + v^2 + 36x^2 has u and v prime to 3, of opposite parity
    ("a-prime-to-3", (3, 0, 1, 2), 1, 12, 5, (1, 1, 36), lambda u, v, _: u % 3 and v % 3 and (u + v) % 2),
    # c: with 3 prime to uv, exactly one of u ± v is divisible by 3
    ("c-one-of-u-pm-v", None, 1, 3, 0, (0, 0, 0), lambda u, v, _: u * v % 3 == 0 or ((u + v) % 3 == 0) != ((u - v) % 3 == 0)),
    # d: for odd p, p^2 = 1 (mod 16) iff p = ±1 (mod 8)
    ("d-square-1-mod-16", None, 1, 16, 0, (0, 0, 0), lambda p, _, __: p % 2 == 0 or (p * p % 16 == 1) == (p % 8 in (1, 7))),
]


@pytest.mark.parametrize("key, scale, q, r, coeffs, claim", [row[1:] for row in RESIDUE_FACTS], ids=[row[0] for row in RESIDUE_FACTS])
def test_residue_facts_hold_for_every_n(key, scale, q, r, coeffs, claim):
    if key is not None:
        rd = recipe(key).reduction
        assert {scale * (rd.M * n + rd.C) % q for n in range(q)} == {r}
    for w in itertools.product(range(q), repeat=3):
        if sum(c * x * x for c, x in zip(coeffs, w)) % q == r:
            assert claim(*w), w


def test_pinned_witnesses():
    # every clause's constructive witness at n = 0, 7, ..., 10^4, byte for byte
    rows = [
        (k, n, tuple(triple_witness(k, n) if len(k) == 3 else quadruple_witness(k, n)))
        for k in PROVEN_TRIPLES + PROVEN_QUADRUPLES
        for n in range(0, 10**4 + 1, 7)
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "54b2c11a258decb58d3450464494c25843bcc46a212a41df066466c3acd7bd79"


def test_pinned_scan_order():
    # every hit of _scan_all, in order, for 300 seeded constrained forms
    # (coefficients <= 30, class moduli <= 24, m <= 20 000; half of the m
    # values of the form), as the scan gave them before its residue test
    rng = random.Random(20261020)
    rows = []
    while len(rows) < 300:
        coeffs = tuple(rng.randint(1, 30) for _ in range(3))
        classes = tuple(CongruenceClass(k, rng.randrange(k)) for k in (rng.randint(1, 24) for _ in range(3)))
        if rng.random() < 0.5:
            m = rng.randint(0, 20000)
        else:
            m = sum(c * (k.residue + k.modulus * rng.randint(-3, 3)) ** 2 for c, k in zip(coeffs, classes))
            if m > 20000:
                continue
        rows.append((coeffs, classes, m, list(search._scan_all(DiagonalForm(coeffs, classes), m))))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "7685990a0fb1b7d89af89c08f1b6700e6d8e33d717c0e8269843b12b49f19bd3"


def broken(monkeypatch, key, build):
    monkeypatch.setitem(_RECIPES, key, dataclasses.replace(_RECIPES[key], build=build))


def test_broken_builder_names_clause_n_step_and_pre(monkeypatch):
    broken(monkeypatch, (2, 3, 3), lambda n: (2, 1, 1))
    with pytest.raises(ConstructionError) as info:
        triple_witness((2, 3, 3), 5)
    err = info.value
    assert (err.step, err.clause, err.n, err.pre) == ("sign", "vi", 5, (2, 1, 1))
    assert all(part in str(err) for part in ("'sign'", "clause vi", "n=5", "(2, 1, 1)"))
    broken(monkeypatch, (2, 3, 3), lambda n: (1, 1, 1))
    with pytest.raises(ConstructionError) as info:
        triple_witness((2, 3, 3), 5)
    assert info.value.step == "clause-identity"


# n = 5 per clause: the step and message a builder's own scan reports on a miss
BUILDER_MISSES = [
    ("i", (1, 2, 3), "three-odd-squares", "131 has no all-odd decomposition"),
    ("ii", (1, 2, 4), "three-squares", "174 is not a sum of three squares"),
    ("iii", (1, 2, 5), "dickson-form", "217 is not 10u^2+5v^2+2w^2"),
    ("iv", (2, 2, 4), "three-squares", "85 is not (2u)^2+(2v)^2+w^2"),
    ("vi", (2, 3, 3), "dickson-form", "127 is not u^2+v^2+3w^2"),
    ("a", (3, 0, 1, 2), "imported-form", "65 is not u^2+v^2+36x^2"),
    ("b0", (3, 1, 1, 2), "three-squares-coprime3", "66 admits no suitable decomposition"),
    ("b1", (3, 1, 2, 2), "three-squares-coprime3", "69 admits no suitable decomposition"),
    ("d", (4, 1, 2, 3), "three-squares", "94 is not a sum of three squares"),
]


@pytest.mark.parametrize("cid, key, step, message", BUILDER_MISSES, ids=[row[0] for row in BUILDER_MISSES])
def test_builder_scan_miss_names_step_and_value(monkeypatch, cid, key, step, message):
    # a builder whose own scan finds nothing names its step and the value
    # it scanned, and leaves pre empty
    monkeypatch.setattr(search, "represent", lambda form, t: None)
    monkeypatch.setattr(witnesses, "represent", lambda form, t: None)
    fn = triple_witness if len(key) == 3 else quadruple_witness
    with pytest.raises(ConstructionError) as info:
        fn(key, 5)
    err = info.value
    assert (err.step, err.message, err.clause, err.n, err.pre) == (step, message, cid, 5, None)


def test_search_method_failure_names_clause_and_n(monkeypatch):
    # the search method runs the same pipeline as the constructive one, so
    # a scan that finds nothing is reported against its clause and n
    monkeypatch.setattr(witnesses, "represent", lambda form, t: None)
    with pytest.raises(ConstructionError) as info:
        triple_witness((1, 2, 3), 5, method="search")
    assert (info.value.step, info.value.clause, info.value.n, info.value.pre) == ("search", "i", 5, None)


def test_search_method_checks_the_clause_identity(monkeypatch):
    # a searched triple outside the clause identity is caught, not lifted
    monkeypatch.setattr(witnesses, "represent", lambda form, t: (1, 1, 1))
    with pytest.raises(ConstructionError) as info:
        triple_witness((1, 2, 3), 5, method="search")
    assert (info.value.step, info.value.clause, info.value.n, info.value.pre) == ("clause-identity", "i", 5, (1, 1, 1))


def test_builder_step_failure_names_clause_n_and_step(monkeypatch):
    # a failed _need inside a builder is reported against its clause and n;
    # at n = 5 clause i asks _pair for 33 = 3x^2 + 6y^2
    monkeypatch.setattr(witnesses, "_pair", lambda *args: None)
    with pytest.raises(ConstructionError) as info:
        triple_witness((1, 2, 3), 5)
    err = info.value
    assert (err.step, err.clause, err.n, err.pre) == ("3x2+6y2", "i", 5, None)
    assert "33 is not of the form 3x^2+6y^2" in str(err)


def test_lemma_errors_name_the_clause_only_inside_a_pipeline(monkeypatch):
    monkeypatch.setattr(lemmas, "represent", lambda form, t: None)
    with pytest.raises(ConstructionError) as info:
        rep_x2_3y2_6z2(10, 0)
    assert (info.value.step, info.value.clause, info.value.n, info.value.pre) == ("exhausted", None, None, None)
    # clause vii feeds 48n+13 = 6*10+1 at n = 1 to the same lemma; the builder fails, so pre stays None
    with pytest.raises(ConstructionError) as info:
        triple_witness((2, 3, 4), 1)
    assert (info.value.step, info.value.clause, info.value.n, info.value.pre) == ("exhausted", "vii", 1, None)


# the other universal sums, each once: Liouville (2,2,2) is also quadruple (2,1,1,1)
OTHER_SUMS = list(
    dict.fromkeys([*map(triple_poly, LIOUVILLE_TRIPLES), *map(quadruple_poly, SMALL_QUADRUPLES), *MIXED_SQUARE_SUMS])
)


@pytest.mark.parametrize("poly", OTHER_SUMS, ids=str)
def test_other_sum_witnesses(poly):
    for n in range(60):
        assert verify(poly, n, represent(poly, n))


def test_other_sum_examples():
    assert len(OTHER_SUMS) == 10 and triple_poly((2, 2, 2)) == quadruple_poly((2, 1, 1, 1))
    assert represent(triple_poly((1, 1, 2)), 0) == Witness(0, 0, 0)
    w = represent(MIXED_SQUARE_SUMS[0], 1)
    assert abs(w.x) == 1 and w.y == 0 and w.z == 0


def test_diagonal_bridge_small():
    report = diagonal_bridge(100)
    assert report.agrees()
    assert report.poly_exceptions == ()
    assert report.diagonal_failures == ()


def test_diagonal_bridge_names_each_mismatch(monkeypatch):
    # a left side that misses values the diagonal side attains: every n it
    # misses is a mismatch (n, False, True), and the right side stays whole
    monkeypatch.setattr(witnesses, "triple_poly", lambda t: PolySum.of((2, 1), (3, 1), (70, 1)))
    report = diagonal_bridge(100)
    missed = exceptional_set(PolySum.of((2, 1), (3, 1), (70, 1)), 100).exceptions
    assert missed and report.poly_exceptions == missed
    assert report.mismatches == tuple((n, False, True) for n in missed)
    assert report.diagonal_failures == ()
    # n = 0 row: 41 = 21 + 14 + 6
    assert oracles.three_square_reps(41, (21, 14, 6))


def test_exceptional_sets_empty_for_proven_families_small():
    for trip in PROVEN_TRIPLES:
        assert exceptional_set(triple_poly(trip), 3000).is_empty()
    for quad in PROVEN_QUADRUPLES:
        assert exceptional_set(quadruple_poly(quad), 3000).is_empty()
