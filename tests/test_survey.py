import random
from functools import lru_cache

import pytest

import oracles
from terna import (
    filter_universal_quadruples,
    filter_universal_triples,
    quadruple_poly,
    represent,
    scan_5x2_5y2_4z2,
    triple_poly,
    verify_conjectured_triples,
)
from terna import ResourceLimitError, search, survey
from terna.search import DEFAULT_MAX_BITS
from terna.survey import DEFAULT_TEST_VALUES, reverify_quadruples

SEVENTEEN = [
    (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10),
]

FIVE_QUADRUPLES = [(3, 0, 1, 2), (3, 1, 1, 2), (3, 1, 2, 2), (3, 1, 2, 3), (4, 1, 2, 3)]

LISTED_SMALL_QUADRUPLES = [(1, 0, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1)]


def test_triple_filter_is_the_seventeen():
    # c_max = 12 already covers every listed c; the c_max = 50 run is in the
    # acceptance suite
    assert filter_universal_triples(12) == SEVENTEEN


def test_triple_filter_excludes_236_via_48():
    assert represent(triple_poly((2, 3, 6)), 48) is None
    assert (2, 3, 6) not in filter_universal_triples(8)


def test_weaker_test_set_gives_superset():
    strong = set(filter_universal_triples(8))
    weak = set(filter_universal_triples(8, test_values=(1,)))
    assert strong <= weak
    assert len(weak) > len(strong)


def test_filter_monotone_in_test_set():
    base = set(filter_universal_triples(6, test_values=(1, 2)))
    more = set(filter_universal_triples(6, test_values=(1, 2, 4, 5)))
    assert more <= base


_rng = random.Random(13)
TRIPLE_TEST_SETS = [(), (0,), (1,), (2,), (1, 2), (48,), (-1, 1), (3, 7, 100), DEFAULT_TEST_VALUES] + [
    tuple(_rng.sample(range(201), k)) for k in (1, 2, 4, 6)
]
TRIPLE_C_MAXES = [0, 1, 2, 6, 12]


@lru_cache(maxsize=None)
def _represent_every_test_value(c_max, tests):
    # the filter's definition: one represent query per triple per test value
    return [
        (a, b, c)
        for a in range(1, c_max + 1)
        for b in range(a, c_max + 1)
        for c in range(b, c_max + 1)
        if all(represent(triple_poly((a, b, c)), n) is not None for n in tests)
    ]


@pytest.mark.parametrize("tests", TRIPLE_TEST_SETS)
@pytest.mark.parametrize("c_max", TRIPLE_C_MAXES)
def test_triple_filter_matches_represent_every_test_value(c_max, tests):
    assert filter_universal_triples(c_max, tests) == _represent_every_test_value(c_max, tests)


def test_triple_filter_comparison_catches_a_dropped_term_value(monkeypatch):
    # mutation check: without x(2x+1) = 1 at x = -1 the sumset misses
    # triples that the restated definition keeps, and some case shows it
    term_values = survey._term_values
    monkeypatch.setattr(survey, "_term_values", lambda a, b, top: [v for v in term_values(a, b, top) if (a, v) != (2, 1)])
    assert any(
        filter_universal_triples(c_max, tests) != _represent_every_test_value(c_max, tests)
        for c_max in TRIPLE_C_MAXES
        for tests in TRIPLE_TEST_SETS
    )


# prefixes of bit 0 alone, of one byte, and past every width; the default
# prefix is the case above
STAGE_PREFIXES = [1, 8, 1 << 40]


@pytest.mark.parametrize("tests", TRIPLE_TEST_SETS)
@pytest.mark.parametrize("c_max", TRIPLE_C_MAXES)
@pytest.mark.parametrize("prefix", STAGE_PREFIXES)
def test_triple_filter_stages_match_represent_every_test_value(monkeypatch, prefix, c_max, tests):
    # whatever the prefix, the prefix stage refutes only sums that miss a
    # test value, and the full-width stage decides the rest
    monkeypatch.setattr(survey, "_PREFIX", prefix)
    assert filter_universal_triples(c_max, tests) == _represent_every_test_value(c_max, tests)


@pytest.mark.parametrize("tests", [t for t in TRIPLE_TEST_SETS if 1 in t])
def test_triple_survivors_have_a_at_most_2_when_1_is_tested(tests):
    # 1 is a sum of term values >= 0 only if some x(kx+1) = 1, which needs
    # k = 2 (x = -1); a is the smallest coefficient
    assert all(t[0] <= 2 for t in filter_universal_triples(12, tests))


def _brute_survivors(values, need, width):
    # the contract of survey._survivors restated: every index triple
    # i <= j <= k whose sums of one value from each list hit each bit of need
    needed = {n for n in range(width) if need >> n & 1}
    return [
        (i, j, k)
        for i in range(len(values))
        for j in range(i, len(values))
        for k in range(j, len(values))
        if needed <= {u + v + w for u in values[i] for v in values[j] for w in values[k]}
    ]


# widths 1 and 64 lie inside one prefix, 65 and 100 need the full-width stage
SURVIVOR_WIDTHS = [1, 2, 5, 17, 64, 65, 100]


@pytest.mark.parametrize("case", range(200))
def test_survivors_match_a_brute_force_sumset(case):
    rng = random.Random(case)
    width = SURVIVOR_WIDTHS[case % len(SURVIVOR_WIDTHS)]
    values = []
    for _ in range(rng.randint(1, 6)):
        # duplicates come from choices; a list with no 0 from every third case
        vals = rng.choices(range(min(width, rng.choice([3, 12, width]))), k=rng.randint(0, 6))
        if case % 3 == 0:
            vals = [v for v in vals if v]
        elif rng.random() < 0.5:
            vals.append(0)
        values.append(sorted(vals) if rng.random() < 0.5 else vals)
    if rng.random() < 0.5:
        # bits one triple of lists can set, so some cases keep survivors
        i, j, k = sorted(rng.choices(range(len(values)), k=3))
        sums = sorted({u + v + w for u in values[i] for v in values[j] for w in values[k] if u + v + w < width})
        need = sum(1 << n for n in rng.sample(sums, min(len(sums), rng.randint(1, 4))))
    else:
        need = rng.getrandbits(width) if rng.random() < 0.3 else sum(1 << n for n in rng.sample(range(width), min(width, 3)))
    if case % 4 == 1:
        need &= ~1  # no bit 0
    assert list(survey._survivors(values, need, width)) == _brute_survivors(values, need, width)


def test_triple_filter_reduces_once_per_survivor(monkeypatch):
    # one reduction per survivor and one scan per survivor per test value
    reduced, scanned = [], []
    reduce, represent_ = search.reduce, survey.represent
    monkeypatch.setattr(search, "reduce", lambda p: reduced.append(p) or reduce(p))
    monkeypatch.setattr(survey, "represent", lambda f, m: scanned.append(m) or represent_(f, m))
    assert filter_universal_triples() == SEVENTEEN
    assert len(reduced) == 17
    assert len(scanned) == 17 * len(DEFAULT_TEST_VALUES) == 102


def test_quadruple_filter_main_range():
    assert filter_universal_quadruples((3, 13), 1000) == FIVE_QUADRUPLES


def test_quadruple_filter_has_no_a5_row():
    assert all(q[0] != 5 for q in filter_universal_quadruples((3, 13), 1000))


def test_quadruple_filter_small_range_actual_behavior():
    # The a in {1,2} scan finds the five listed quadruples PLUS (2,0,1,2) and
    # (2,1,1,2); both extras are genuinely universal at every tested range
    # ((2,1,1,2) is the classical triangular sum T+T+4T in disguise), which the
    # naive oracle confirms below.  The acceptance suite records the
    # discrepancy against the expected list of five.
    got = filter_universal_quadruples((1, 2), 1000)
    assert got == sorted(LISTED_SMALL_QUADRUPLES + [(2, 0, 1, 2), (2, 1, 1, 2)])
    for quad in [(2, 0, 1, 2), (2, 1, 1, 2)]:
        a, b, c, d = quad
        assert oracles.naive_exceptions(((a, b), (a, c), (a, d)), 2000) == []


def test_quadruple_filter_monotone_in_n_limit():
    lo = set(filter_universal_quadruples((3, 6), 40))
    hi = set(filter_universal_quadruples((3, 6), 400))
    assert hi <= lo


def _quadruples(a_range):
    a_lo, a_hi = a_range
    return [
        (a, b, c, d)
        for a in range(a_lo, a_hi + 1)
        for b in range(a + 1)
        for c in range(b, a + 1)
        for d in range(c, a + 1)
    ]


@lru_cache(maxsize=None)
def _represent_every_n(a_range, n_limit):
    # the filter's definition: one represent query per n <= n_limit
    return [q for q in _quadruples(a_range) if all(represent(quadruple_poly(q), n) is not None for n in range(n_limit + 1))]


# 63, 64 and 65 straddle the default prefix
QUADRUPLE_A_RANGES = [(3, 6), (1, 2), (4, 4), (5, 4)]
QUADRUPLE_N_LIMITS = [0, 1, 2, 31, 32, 33, 40, 63, 64, 65, 200]


@pytest.mark.parametrize("a_range", QUADRUPLE_A_RANGES)
@pytest.mark.parametrize("n_limit", QUADRUPLE_N_LIMITS)
def test_quadruple_filter_matches_represent_every_n(a_range, n_limit):
    assert filter_universal_quadruples(a_range, n_limit) == _represent_every_n(a_range, n_limit)


@pytest.mark.parametrize("a_range", QUADRUPLE_A_RANGES)
@pytest.mark.parametrize("n_limit", QUADRUPLE_N_LIMITS)
@pytest.mark.parametrize("prefix", STAGE_PREFIXES)
def test_quadruple_filter_stages_match_represent_every_n(monkeypatch, prefix, a_range, n_limit):
    monkeypatch.setattr(survey, "_PREFIX", prefix)
    assert filter_universal_quadruples(a_range, n_limit) == _represent_every_n(a_range, n_limit)


def test_quadruple_filter_range_to_10_4():
    # the seven a <= 2 survivors, then the five of a in [3, 13]
    seven = sorted(LISTED_SMALL_QUADRUPLES + [(2, 0, 1, 2), (2, 1, 1, 2)])
    assert filter_universal_quadruples((1, 13), 10**4) == seven + FIVE_QUADRUPLES


@pytest.mark.parametrize(
    "a_range, n_limit",
    [((3, 6), 200), ((1, 2), 1000), ((3, 13), 1000), ((1, 13), 60), ((7, 7), 0)],
)
def test_quadruple_filter_matches_one_sieve_per_quadruple(a_range, n_limit):
    # the sumset filter against the independent sieve engine, on the
    # paper's range too: every one of its quadruples, not only survivors
    assert filter_universal_quadruples(a_range, n_limit) == reverify_quadruples(_quadruples(a_range), n_limit)


def test_quadruple_filter_rejects_bad_ranges():
    with pytest.raises(ValueError, match="n_limit"):
        filter_universal_quadruples((3, 4), -1)
    with pytest.raises(ValueError, match="a >= 1"):
        filter_universal_quadruples((0, 2), 10)


def test_surveys_refuse_a_width_past_the_bit_cap():
    # the check comes before any term value or bitset is built
    with pytest.raises(ResourceLimitError, match=str(DEFAULT_MAX_BITS)):
        filter_universal_quadruples((3, 3), 2**31)
    with pytest.raises(ResourceLimitError, match=str(DEFAULT_MAX_BITS)):
        filter_universal_triples(5, (2**31,))


def test_reverify_keeps_survivors():
    assert reverify_quadruples(FIVE_QUADRUPLES, 10**4) == FIVE_QUADRUPLES


def test_conjectured_triples_scan():
    reports = verify_conjectured_triples(10**4)
    assert [t for t, _ in reports] == [(2, 2, 6), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10)]
    assert all(r.is_empty() for _, r in reports)


def test_scan_5x2_5y2_4z2():
    report = scan_5x2_5y2_4z2(10**4)
    assert report.exceptions[6] == (0, 11)
    assert report.exceptions[14] == (1, 10)
    # hand check: 6 is not 5x^2+5y^2+4z^2
    assert not oracles.three_square_reps(6, (5, 5, 4))
