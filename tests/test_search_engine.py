"""Differential tests of the search engine (``search._scan_all``).

Every exhaustive search runs through one loop, which walks every class
through ``search._walk`` (a sign-symmetric class over its members w >= 0,
each hit replayed at -w).  On seeded random inputs it must agree with
brute force: ``represent_all`` with the box of
``oracles.naive_all_witnesses``, the constrained scan with a plain triple
loop in ``oracles.class_members`` order, and each lemma searcher that is
now an engine call with the first decomposition, in its documented order,
among the ones ``oracles.two_square_reps``/``three_square_reps`` list.
The residue test that lets the scan skip w3 rows and w2 columns is
checked the same way: the walk-order flags against one period of each
class, cases where rows are skipped, and, at m up to 10^6, where the
flags wrap many times, sign-symmetric and other w2 classes against the
plain triple loop.
"""

import random
from math import gcd, isqrt

import pytest

import oracles
from terna import (
    CongruenceClass,
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


def box_hits(cf: DiagonalForm, m: int) -> list[tuple[int, int, int]]:
    # every triple of the box |wi| <= isqrt(m // ci), each coordinate in
    # class_members order, w3 outermost
    c1, c2, c3 = cf.coeffs
    k1, k2, k3 = cf.classes

    def members(k, c):
        return list(oracles.class_members(k.modulus, k.residue, isqrt(m // c)))

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


def random_constrained(seed: int, count: int) -> list[tuple[DiagonalForm, int]]:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        coeffs = tuple(rng.randint(1, 6) for _ in range(3))
        classes = tuple(random_class(rng) for _ in range(3))
        cases.append((DiagonalForm(coeffs, classes), rng.randint(0, 400)))
    return cases


def period(c: int, k: CongruenceClass) -> set[int]:
    # c*w^2 mod Q over one period of the class
    Q = search._Q
    return {c * w * w % Q for w in range(k.residue, k.residue + k.modulus * Q, k.modulus)}


def brute_residues(coeffs, classes) -> set[int]:
    # every (c1*w1^2 + c2*w2^2) mod Q, each wi in its class
    return {(a + b) % search._Q for a in period(coeffs[0], classes[0]) for b in period(coeffs[1], classes[1])}


def residue_cases(seed: int, count: int) -> list[tuple[DiagonalForm, int]]:
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
            cases.append((DiagonalForm(coeffs, classes), m))
    return cases


RESIDUE_CASES = residue_cases(20261021, 60)


def large_m_cases(seed: int, count: int, symmetric: bool = True) -> list[tuple[DiagonalForm, int]]:
    # m in [10^5, 10^6], half of them values of the form, and a w2 class,
    # sign-symmetric or not, whose walk at w3 = 0 is at least two periods
    # of its column flags long
    Q = search._Q
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        coeffs = tuple(rng.randint(1, 30) for _ in range(3))
        m2 = rng.randint(1, 24) if symmetric else rng.randint(3, 24)
        k2 = CongruenceClass(m2, rng.choice([r for r in range(m2) if (-r % m2 == r) == symmetric]))
        k1, k3 = (CongruenceClass(k, rng.randrange(k)) for k in (rng.randint(1, 24), rng.randint(1, 24)))
        classes = (k1, k2, k3)
        if rng.random() < 0.5:
            m = rng.randint(10**5, 10**6)
        else:
            m = sum(
                c * (k.residue + k.modulus * rng.randint(-s, s)) ** 2
                for c, k in zip(coeffs, classes)
                for s in [isqrt(10**6 // (3 * c)) // k.modulus]
            )
        if not 10**5 <= m <= 10**6 or isqrt(m // coeffs[1]) < 2 * m2 * (Q // gcd(m2, Q)):
            continue
        cases.append((DiagonalForm(coeffs, classes), m))
    return cases


LARGE_M_CASES = large_m_cases(20261023, 60)
ASYMMETRIC_LARGE_M_CASES = large_m_cases(20261024, 60, symmetric=False)


@pytest.mark.parametrize("cf, m", random_constrained(20261019, 150) + RESIDUE_CASES)
def test_constrained_scan_matches_box_order(cf, m):
    expected = box_hits(cf, m)
    assert represent(cf, m) == (expected[0] if expected else None)
    assert list(search._scan_all(cf, m)) == expected
    assert represent_all(cf, m) == expected


def unfold(k: CongruenceClass, walk) -> list[int]:
    # a walk with each member w > 0 of a sign-symmetric class followed by
    # -w, as the scan replays it
    if -k.residue % k.modulus != k.residue:
        return list(walk)
    return [v for w in walk for v in ((w, -w) if w else (w,))]


def walk_index(k: CongruenceClass, w: int) -> int:
    # the position of member w in its class's walk: w >= 0 alone for a
    # sign-symmetric class, else r + m*i at 2i and r - m*(i + 1) at 2i + 1
    if -k.residue % k.modulus == k.residue:
        return (abs(w) - k.residue) // k.modulus
    return 2 * ((w - k.residue) // k.modulus) if w >= 0 else 2 * ((k.residue - w) // k.modulus) - 1


def test_walk_matches_class_members():
    # every class of modulus <= 30 and bound <= 120: both tails, negatives a
    # step longer (r > m/2) and positives a step longer (r < m/2), occur.
    # With all-one flags the walk is class_members order; with seeded flags
    # of the period of the flags the scan builds, it keeps the members whose
    # flag at their walk position is 1
    rng = random.Random(20261026)
    for m in range(1, 31):
        for r in range(m):
            k = CongruenceClass(m, r)
            length = search._Q // gcd(m, search._Q) * (1 if -r % m == r else 2)
            flags = bytes(rng.random() < 0.7 for _ in range(length))
            for bound in range(121):
                members = list(oracles.class_members(m, r, bound))
                assert unfold(k, search._walk(k, bound, search._EVERY)) == members
                kept = [w for w in members if (w >= 0 or -r % m != r) and flags[walk_index(k, w) % length]]
                assert list(search._walk(k, bound, flags)) == kept


def test_slot_residues_match_brute_force():
    for c in range(1, 31):
        for modulus in range(1, 25):
            for r in range(modulus):
                k = CongruenceClass(modulus, r)
                assert search._slot_residues(*search._slot_key(c, k)) == period(c, k)


def column_pairs(seed: int) -> list[tuple[int, CongruenceClass]]:
    # (c2, k2): every coefficient <= 30 and class modulus <= 24 on the w2
    # side, each once with a sign-symmetric class and once, where there is
    # one, with a class that is not, plus 40 random pairs and 150k+3, whose
    # modulus mod Q makes it look like the sign-symmetric 6k+3
    rng = random.Random(seed)
    draws = [(c, rng.randint(1, 24)) for c in range(1, 31)] + [(rng.randint(1, 30), m) for m in range(1, 25)]
    draws += [(rng.randint(1, 30), rng.randint(1, 24)) for _ in range(40)]
    pairs = []
    for c2, m2 in draws:
        for symmetric in (True, False):
            residues = [r for r in range(m2) if (-r % m2 == r) == symmetric]
            if residues:
                pairs.append((c2, CongruenceClass(m2, rng.choice(residues))))
    return pairs + [(rng.randint(1, 30), CongruenceClass(150, 3))]


def test_column_flags_match_brute_force():
    # each (c2, k2) against a slot 1 running through every coefficient <= 30
    # and class modulus <= 24, at every row remainder t: the flags are one
    # period of the walk, the walk over two periods keeps the w2 for which
    # some w1 in its class makes c1*w1^2 + c2*w2^2 = t (mod Q), and the row
    # test, a 1 among the flags, holds iff some w1, w2 reach t
    Q = search._Q
    rng = random.Random(20261025)
    for i, (c2, k2) in enumerate(column_pairs(20261023)):
        c1, k1 = i % 30 + 1, CongruenceClass(i % 24 + 1, rng.randrange(i % 24 + 1))
        symmetric = -k2.residue % k2.modulus == k2.residue
        column = (search._slot_key(c1, k1), c2 % Q, k2.modulus % Q, k2.residue % Q, symmetric)
        steps = Q // gcd(k2.modulus, Q)
        bound = k2.residue + 2 * steps * k2.modulus
        members = [w for w in oracles.class_members(k2.modulus, k2.residue, bound) if w >= 0 or not symmetric]
        values, reached = period(c1, k1), brute_residues((c1, c2), (k1, k2))
        for t in range(Q):
            flags = search._column_flags(*column, t)
            assert len(flags) == (1 if symmetric else 2) * steps
            expected = [w for w in members if (t - c2 * w * w) % Q in values]
            assert list(search._walk(k2, bound, flags)) == expected
            assert (1 in flags) == (t in reached)


def test_modulus_past_q_keeps_its_own_flags():
    # 150k+3 and 6k+3 agree mod Q, but only 6k+3 is sign-symmetric: each
    # scan, run after the other, still matches the plain triple loop
    for m2 in (6, 150, 6):
        cf = DiagonalForm((1, 1, 2), (CongruenceClass(1, 0), CongruenceClass(m2, 3), CongruenceClass(4, 1)))
        for m in (147**2 + 2, 10**5 + 3):
            assert list(search._scan_all(cf, m)) == box_hits(cf, m)


@pytest.mark.parametrize("cf, m", RESIDUE_CASES[:20])
def test_residue_cases_skip_rows_by_their_flags(monkeypatch, cf, m):
    # the flags each row fetches hold no 1 exactly when m - c3*w3^2 mod Q is
    # no sum that c1*w1^2 + c2*w2^2 reaches, and each case skips some rows
    rows = []
    real = search._column_flags
    monkeypatch.setattr(search, "_column_flags", lambda *key: rows.append(real(*key)) or rows[-1])
    list(search._scan_all(cf, m))
    c3, k3 = cf.coeffs[2], cf.classes[2]
    reached = brute_residues(cf.coeffs, cf.classes)
    walk = search._walk(k3, isqrt(m // c3), search._EVERY)
    assert [1 in flags for flags in rows] == [(m - c3 * w3 * w3) % search._Q in reached for w3 in walk]
    assert any(1 not in flags for flags in rows)


def test_row_flags_cleared_break_a_case(monkeypatch):
    # the flags of the first hit's row, all cleared, lose that row's hits
    cf, m, hits = next((cf, m, box_hits(cf, m)) for cf, m in RESIDUE_CASES if box_hits(cf, m))
    gone = (m - cf.coeffs[2] * hits[0][2] ** 2) % search._Q
    real = search._column_flags
    monkeypatch.setattr(search, "_column_flags", lambda *key: bytes(len(real(*key))) if key[-1] == gone else real(*key))
    assert hits[0] not in search._scan_all(cf, m)
    assert any(list(search._scan_all(cf, m)) != box_hits(cf, m) for cf, m in RESIDUE_CASES)


@pytest.mark.parametrize("cases, sign", [(LARGE_M_CASES, 1), (ASYMMETRIC_LARGE_M_CASES, -1)], ids=["symmetric", "negative"])
def test_column_flag_cleared_breaks_a_case(monkeypatch, cases, sign):
    # the flag of a hit's w2 column, cleared, loses that hit: a member of a
    # sign-symmetric class, and a negative member of a class that is not
    cf, m, hit = next((cf, m, h) for cf, m in cases for h in box_hits(cf, m) if sign * h[1] > 0)
    (c1, c2, c3), (k1, k2, _) = cf.coeffs, cf.classes
    Q = search._Q
    symmetric = -k2.residue % k2.modulus == k2.residue
    row = (search._slot_key(c1, k1), c2 % Q, k2.modulus % Q, k2.residue % Q, symmetric, (m - c3 * hit[2] ** 2) % Q)
    real = search._column_flags

    def cleared(*key):
        flags = bytearray(real(*key))
        if key == row:
            j = walk_index(k2, hit[1]) % len(flags)
            assert flags[j]
            flags[j] = 0
        return bytes(flags)

    monkeypatch.setattr(search, "_column_flags", cleared)
    hits = list(search._scan_all(cf, m))
    assert hit not in hits and hits != box_hits(cf, m)


@pytest.mark.parametrize("cf, m", LARGE_M_CASES)
def test_large_m_scan_matches_box_order(cf, m):
    assert list(search._scan_all(cf, m)) == box_hits(cf, m)


@pytest.mark.parametrize("cf, m", ASYMMETRIC_LARGE_M_CASES)
def test_asymmetric_large_m_scan_matches_box_order(cf, m):
    assert list(search._scan_all(cf, m)) == box_hits(cf, m)


def test_count_representations_matches_box():
    # a count is the length of represent_all
    rng = random.Random(20261020)
    for _ in range(40):
        f = DiagonalForm(tuple(rng.randint(1, 5) for _ in range(3)))
        m = rng.randint(0, 300)
        assert len(represent_all(f, m)) == len(box_hits(f, m))


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
        pre = witnesses.recipe(key).build(12 * n + 6 + 3 * delta)
        assert pre == min(ok, key=lambda r: (r[2], r[0]))
