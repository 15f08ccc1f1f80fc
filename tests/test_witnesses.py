import dataclasses
import hashlib
import random

import pytest

import oracles
from terna import (
    CongruenceClass,
    ConstructionError,
    DiagonalForm,
    Witness,
    all_recipes,
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
    recs = all_recipes()
    assert len(recs) == 12
    assert sorted(r.id for r in recs) == sorted(
        ["i", "ii", "iii", "iv", "v", "vi", "vii", "a", "b0", "b1", "c", "d"]
    )
    # each stated identity is the one reduce() derives, which the recipe carries
    assert sorted(_RECIPES) == sorted(oracles.CLAUSE_IDENTITIES)
    for key, (multiplier, constant, coeffs, classes) in oracles.CLAUSE_IDENTITIES.items():
        rd = reduce(triple_poly(key) if len(key) == 3 else quadruple_poly(key))
        form = DiagonalForm(coeffs, tuple(CongruenceClass(m, r) for m, r in classes))
        assert (multiplier, constant, form) == (4 * rd.L, rd.C, rd.constrained)
        assert recipe(key).reduction == rd
        assert recipe(key).steps


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
    # n = 0 row: 41 = 21 + 14 + 6
    assert oracles.three_square_reps(41, (21, 14, 6))


def test_exceptional_sets_empty_for_proven_families_small():
    for trip in PROVEN_TRIPLES:
        assert exceptional_set(triple_poly(trip), 3000).is_empty()
    for quad in PROVEN_QUADRUPLES:
        assert exceptional_set(quadruple_poly(quad), 3000).is_empty()
