"""Differential tests of the search engine (``search._scan_all``).

Every exhaustive search runs through one loop, which walks a sign-symmetric
class over its members w >= 0 and replays each hit at -w.  On seeded random
inputs it must agree with brute force: ``represent_all`` with the box of
``oracles.naive_all_witnesses``, the constrained scan with a plain triple
loop in ``class_members`` order, and each lemma searcher that is now an
engine call with the first decomposition, in its documented order, among
the ones ``oracles.two_square_reps``/``three_square_reps`` list.  The
residue test that lets the scan skip w3 rows is checked the same way, on
cases where it skips some, and its tables against one period of each class.
"""

import random
from math import isqrt

import pytest

import oracles
from terna import (
    CongruenceClass,
    ConstrainedForm,
    DiagonalForm,
    NoOddRepresentationError,
    NotRepresentableError,
    PolySum,
    check_3x2_6y2,
    represent,
    represent_all,
    rep_x2_2y2_odd,
    rep_x2_3y2_6z2,
    rep_x2_y2_2z2_coprime3,
)
from terna import search, witnesses
from terna.lemmas import _is_square
from terna.search import represent_constrained


def random_polys(seed: int, count: int, spread: int) -> list[tuple[tuple, int]]:
    # b up to spread * a: with spread > 1, b > a (terms with negative
    # values) is common
    rng = random.Random(seed)
    return [
        (tuple((a, rng.randint(0, spread * a)) for a in (rng.randint(1, 5) for _ in range(3))), rng.randint(0, 60))
        for _ in range(count)
    ]


def negative_values(polys: list[tuple[tuple, int]]) -> list[tuple[tuple, int]]:
    # every n from the least value of each b > a draw up to -1
    return [
        (pairs, n)
        for pairs, _ in polys
        if any(b > a for a, b in pairs)
        for n in range(sum(oracles.term_min(a, b) for a, b in pairs), 0)
    ]


@pytest.mark.parametrize(
    "pairs, n",
    random_polys(20261018, 40, 1) + random_polys(20261019, 40, 3) + negative_values(random_polys(20261019, 40, 3)),
)
def test_represent_all_matches_box(pairs, n):
    p = PolySum.of(*pairs)
    hits = [tuple(w) for w in represent_all(p, n)]
    assert len(hits) == len(set(hits))
    assert set(hits) == oracles.naive_all_witnesses(pairs, n)
    assert represent(p, n) == (represent_all(p, n)[0] if hits else None)


def test_box_reaches_past_negative_terms():
    # y = 7 needs the other two terms negative: x(x+4) = -4, z(z+7) = -12
    pairs = ((1, 4), (1, 0), (1, 7))
    assert (-2, 7, -4) in oracles.naive_all_witnesses(pairs, 33)
    assert {tuple(w) for w in represent_all(PolySum.of(*pairs), 33)} == oracles.naive_all_witnesses(pairs, 33)


def random_class(rng: random.Random) -> CongruenceClass:
    # half of them sign-symmetric: trivial, residue 0, or residue m/2
    m = rng.randint(1, 8)
    if rng.random() < 0.5:
        return CongruenceClass(m, rng.choice([0, m // 2] if m % 2 == 0 else [0]))
    return CongruenceClass(m, rng.randrange(m))


def box_hits(cf: ConstrainedForm, m: int) -> list[tuple[int, int, int]]:
    # every triple of the box |wi| <= isqrt(m // ci), each coordinate in
    # class_members order, w3 outermost
    c1, c2, c3 = cf.form.coeffs
    k1, k2, k3 = cf.classes

    def members(k, c):
        return list(search.class_members(k.modulus, k.residue, isqrt(m // c)))

    # the w1 of each value c1*w1^2, in class_members order
    by_value: dict[int, list[int]] = {}
    for w1 in members(k1, c1):
        by_value.setdefault(c1 * w1 * w1, []).append(w1)
    return [
        (w1, w2, w3)
        for w3 in members(k3, c3)
        for w2 in members(k2, c2)
        for w1 in by_value.get(m - c2 * w2 * w2 - c3 * w3 * w3, ())
    ]


def random_constrained(seed: int, count: int) -> list[tuple[ConstrainedForm, int]]:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        coeffs = tuple(rng.randint(1, 6) for _ in range(3))
        classes = tuple(random_class(rng) for _ in range(3))
        cases.append((ConstrainedForm(DiagonalForm(coeffs), classes), rng.randint(0, 400)))
    return cases


def period(c: int, k: CongruenceClass) -> set[int]:
    # c*w^2 mod Q over one period of the class
    Q = search._Q
    return {c * w * w % Q for w in range(k.residue, k.residue + k.modulus * Q, k.modulus)}


def brute_residues(coeffs, classes) -> set[int]:
    # every (c1*w1^2 + c2*w2^2) mod Q, each wi in its class
    return {(a + b) % search._Q for a in period(coeffs[0], classes[0]) for b in period(coeffs[1], classes[1])}


def residue_cases(seed: int, count: int) -> list[tuple[ConstrainedForm, int]]:
    # class moduli sharing factors with the residue test's modulus, a w3
    # walk of several steps and residues some w3 rows cannot reach, so the
    # scan skips rows; half of the m are values of the form
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        coeffs = tuple(rng.randint(1, 12) for _ in range(3))
        classes = tuple(CongruenceClass(k, rng.randrange(k)) for k in (rng.choice((2, 3, 4, 6, 8, 12, 16, 24)) for _ in range(3)))
        ws = [k.residue + k.modulus * rng.randint(-4, 3) for k in classes]
        m = rng.randint(0, 3000) if rng.random() < 0.5 else sum(c * w * w for c, w in zip(coeffs, ws))
        k3 = classes[2]
        if m > 3000 or isqrt(m // coeffs[2]) < 2 * k3.modulus:
            continue
        reached = brute_residues(coeffs, classes)
        rows = [w for w in range(isqrt(m // coeffs[2]) + 1) if k3.residue in (w % k3.modulus, -w % k3.modulus)]
        if any((m - coeffs[2] * w3 * w3) % search._Q not in reached for w3 in rows):
            cases.append((ConstrainedForm(DiagonalForm(coeffs), classes), m))
    return cases


RESIDUE_CASES = residue_cases(20261021, 60)


@pytest.mark.parametrize("cf, m", random_constrained(20261019, 150) + RESIDUE_CASES)
def test_constrained_scan_matches_box_order(cf, m):
    expected = box_hits(cf, m)
    assert represent_constrained(cf, m) == (expected[0] if expected else None)
    assert list(search._scan_all(cf, m)) == expected
    assert represent_all(cf, m) == expected


def test_residue_tables_match_brute_force():
    Q = search._Q
    full = (1 << Q) - 1
    periods = {}
    for c in range(1, 31):
        for modulus in range(1, 25):
            for r in range(modulus):
                k = CongruenceClass(modulus, r)
                key = search._slot_key(c, k)
                assert search._slot_residues(*key) == period(c, k)
                periods[key] = period(c, k)
    keys = sorted(periods)
    rng = random.Random(20261022)
    for k1, k2 in [(k, k) for k in keys] + [(rng.choice(keys), rng.choice(keys)) for _ in range(3000)]:
        sums = {(a + b) % Q for a in periods[k1] for b in periods[k2]}
        assert (search._row_test(k1, k2) or full) == sum(1 << v for v in sums)


@pytest.mark.parametrize("cf, m", RESIDUE_CASES[:20])
def test_residue_cases_take_the_residue_test(monkeypatch, cf, m):
    tables = []
    real = search._row_test
    monkeypatch.setattr(search, "_row_test", lambda *slots: tables.append(real(*slots)) or tables[-1])
    list(search._scan_all(cf, m))
    assert tables and all(tables)
    c3, k3 = cf.form.coeffs[2], cf.classes[2]
    rows = search.class_members(k3.modulus, k3.residue, isqrt(m // c3))
    assert any(not tables[0] >> (m - c3 * w3 * w3) % search._Q & 1 for w3 in rows)


def test_residue_table_missing_a_residue_breaks_a_case(monkeypatch):
    cf, m, hits = next((cf, m, box_hits(cf, m)) for cf, m in RESIDUE_CASES if box_hits(cf, m))
    gone = (m - cf.form.coeffs[2] * hits[0][2] ** 2) % search._Q
    real = search._row_test
    monkeypatch.setattr(search, "_row_test", lambda *slots: real(*slots) & ~(1 << gone))
    assert any(list(search._scan_all(cf, m)) != box_hits(cf, m) for cf, m in RESIDUE_CASES)


def test_count_representations_matches_box():
    # a count is the length of represent_all
    rng = random.Random(20261020)
    for _ in range(40):
        f = DiagonalForm(tuple(rng.randint(1, 5) for _ in range(3)))
        m = rng.randint(0, 300)
        trivial = ConstrainedForm(f, (CongruenceClass(1, 0),) * 3)
        assert len(represent_all(f, m)) == len(box_hits(trivial, m))


def test_rep_x2_2y2_odd_is_smallest_odd_v():
    for w in range(1, 400):
        reps = oracles.two_square_reps(w, 1, 2)
        odd = [(u, v) for u, v in reps if u % 2 and v % 2]
        if odd:
            assert rep_x2_2y2_odd(w) == min(odd, key=lambda uv: uv[1])
        elif reps:
            with pytest.raises(NoOddRepresentationError):
                rep_x2_2y2_odd(w)
        else:
            with pytest.raises(NotRepresentableError):
                rep_x2_2y2_odd(w)


def test_check_3x2_6y2_matches_oracle():
    for w in range(300):
        assert check_3x2_6y2(w) == (
            bool(oracles.two_square_reps(w, 3, 6)),
            w % 3 == 0 and bool(oracles.two_square_reps(w, 1, 2)),
        )


def test_rep_x2_3y2_6z2_is_first_by_x_then_z():
    for n in range(1, 150):
        t = 6 * n + 1
        if _is_square(t):
            continue
        reps = oracles.three_square_reps(t, (1, 3, 6))
        for parity in (0, 1):
            first = min((r for r in reps if r[0] % 2 == parity), key=lambda r: (r[0], r[2]))
            assert rep_x2_3y2_6z2(n, parity) == first


def test_rep_x2_y2_2z2_coprime3_is_first_by_z_then_y():
    for n in range(1, 150):
        reps = oracles.three_square_reps(6 * n + 1, (1, 1, 2))
        first = min((r for r in reps if all(x % 3 for x in r)), key=lambda r: (r[2], r[1]))
        assert rep_x2_y2_2z2_coprime3(n) == first


@pytest.mark.parametrize("key, delta", [((3, 1, 1, 2), 0), ((3, 1, 2, 2), 1)])
def test_clause_b_decomposition_is_first_by_w_then_u(key, delta):
    # 12n+6+3*delta = u^2+v^2+w^2, u odd, v of parity 1-delta, w even, all prime to 3
    for n in range(120):
        reps = oracles.three_square_reps(12 * n + 6 + 3 * delta)
        ok = [(u, v, w) for u, v, w in reps if u % 2 and v % 2 != delta and w % 2 == 0 and u * v * w % 3]
        pre = witnesses._BUILDERS[key](n)
        assert pre == min(ok, key=lambda r: (r[2], r[0]))
