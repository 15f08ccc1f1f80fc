import pytest

import oracles
from oracles import class_members
from terna import (
    CongruenceClass,
    DiagonalForm,
    PolySum,
    ResourceLimitError,
    Witness,
    evaluate,
    exceptional_set,
    represent,
    represent_all,
)
from terna.search import DEFAULT_MAX_BITS


def cf(coeffs, classes):
    return DiagonalForm(coeffs, tuple(CongruenceClass(m, r) for m, r in classes))


def test_class_members_order():
    assert list(class_members(4, 1, 10)) == [1, -3, 5, -7, 9]
    assert list(class_members(4, 1, 11)) == [1, -3, 5, -7, 9, -11]
    assert list(class_members(1, 0, 3)) == [0, 1, -1, 2, -2, 3, -3]
    assert list(class_members(6, 1, 5)) == [1, -5]
    assert list(class_members(6, 1, 4)) == [1]
    assert list(class_members(2, 0, 5)) == [0, 2, -2, 4, -4]


def test_represent_examples():
    t = PolySum.of((2, 1), (2, 1), (2, 1))
    assert represent(t, 0) == Witness(0, 0, 0)
    assert represent(PolySum.of((2, 1), (3, 1), (6, 1)), 48) is None
    w = represent(PolySum.of((1, 1), (2, 1), (3, 1)), 1)
    assert w is not None and evaluate(PolySum.of((1, 1), (2, 1), (3, 1)), w) == 1
    with pytest.raises(TypeError, match="not a form: object"):
        represent(object(), 1)


def test_represent_deterministic():
    p = PolySum.of((2, 1), (3, 1), (4, 1))
    assert represent(p, 123) == represent(p, 123)


def test_represent_diag_examples():
    assert represent(DiagonalForm((1, 1, 1)), 7) is None
    assert represent(DiagonalForm((1, 1, 3)), 6) is None
    assert represent(DiagonalForm((21, 14, 6)), 41) == (1, 1, 1)


def test_represent_constrained_examples():
    c1 = cf((6, 3, 2), ((2, 1), (4, 1), (6, 1)))
    assert represent(c1, 11) == (1, 1, 1)
    assert represent(c1, 10) is None
    c2 = cf((1, 1, 1), ((6, 0), (6, 1), (6, 2)))
    assert represent(c2, 5) == (0, 1, 2)


def test_count_representations():
    f = DiagonalForm((1, 1, 1))
    assert len(represent_all(f, 0)) == 1
    assert len(represent_all(f, 1)) == 6
    assert len(represent_all(f, 2)) == 12
    # against the nonnegative-octant oracle with sign multiplicities
    for m in range(60):
        expected = 0
        for (u, v, w) in oracles.three_square_reps(m):
            expected += (1 if u == 0 else 2) * (1 if v == 0 else 2) * (1 if w == 0 else 2)
        assert len(represent_all(f, m)) == expected


def test_exceptional_set_gauss_legendre_100():
    report = exceptional_set(DiagonalForm((1, 1, 1)), 100)
    assert list(report.exceptions) == [7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95]
    assert [n for n in range(101) if oracles.gauss_legendre_excluded(n)] == list(report.exceptions)


def test_exceptional_set_triangular_universal():
    assert exceptional_set(PolySum.of((2, 1), (2, 1), (2, 1)), 10**4).is_empty()


def test_exceptional_set_finds_48():
    report = exceptional_set(PolySum.of((2, 1), (3, 1), (6, 1)), 100)
    assert 48 in report.exceptions


NAIVE_FORMS = [
    ((1, 1), (2, 1), (3, 1)),
    ((2, 1), (3, 1), (6, 1)),
    ((3, 0), (3, 1), (3, 2)),
    ((1, 0), (4, 1), (4, 3)),
    ((1, 5), (2, 1), (3, 2)),  # negative term values exercise the offset path
    ((2, 7), (3, 4), (5, 0)),
]


@pytest.mark.parametrize("pairs", NAIVE_FORMS)
def test_sieve_matches_naive_triple_loop(pairs):
    got = exceptional_set(PolySum.of(*pairs), 2000).exceptions
    assert list(got) == oracles.naive_exceptions(pairs, 2000)


def test_sieve_matches_naive_diagonal():
    for coeffs in [(1, 1, 1), (1, 1, 3), (10, 5, 2), (5, 5, 4), (21, 14, 6)]:
        got = exceptional_set(DiagonalForm(coeffs), 3000).exceptions
        assert list(got) == oracles.naive_diag_exceptions(coeffs, 3000)


def test_sieve_constrained_matches_scan():
    c = cf((6, 3, 2), ((2, 1), (4, 1), (6, 1)))
    report = exceptional_set(c, 500)
    for m in range(501):
        assert (m in report.exceptions) == (represent(c, m) is None)


def test_sieve_below_smallest_value():
    # every value of c is at least 27, so nothing up to the limit is attained
    c = cf((1, 1, 1), ((6, 3), (6, 3), (6, 3)))
    for limit in (0, 1, 26):
        assert exceptional_set(c, limit).exceptions == tuple(range(limit + 1))
    assert 27 not in exceptional_set(c, 27).exceptions


SEARCH_AGREE_FORMS = [
    PolySum.of((2, 1), (3, 1), (6, 1)),
    PolySum.of((2, 1), (2, 1), (5, 1)),
    PolySum.of((1, 1), (2, 1), (3, 1)),
    PolySum.of((3, 1), (3, 2), (3, 3)),
    PolySum.of((1, 0), (3, 1), (3, 2)),
]


@pytest.mark.parametrize("poly", SEARCH_AGREE_FORMS, ids=str)
def test_sieve_search_agreement_at_1e4(poly):
    # n in exceptional_set(f, N)  <=>  represent(f, n) is None, N = 10^4
    missing = frozenset(exceptional_set(poly, 10**4).exceptions)
    for n in range(10**4 + 1):
        assert (n in missing) == (represent(poly, n) is None), n


def test_monotone_consistency():
    for form in (DiagonalForm((1, 1, 1)), DiagonalForm((10, 5, 2))):
        small = exceptional_set(form, 1000).exceptions
        large = exceptional_set(form, 10**4).exceptions
        assert list(small) == [n for n in large if n <= 1000]


def test_parallel_determinism():
    for form in (DiagonalForm((1, 1, 1)), PolySum.of((2, 1), (3, 1), (6, 1))):
        solo = exceptional_set(form, 20000, workers=1)
        duo = exceptional_set(form, 20000, workers=2)
        assert solo.exceptions == duo.exceptions


def test_clamp_workers():
    from terna.search import clamp_workers

    assert clamp_workers(500, 2, 10**6) == 2  # one per CPU
    assert clamp_workers(3, 8, 1000) == 3  # no more than asked for
    assert clamp_workers(8, 8, 7) == 3  # at least two shifts each
    assert clamp_workers(2, 2, 3) == 1
    assert clamp_workers(1, 64, 1000) == 1


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        exceptional_set(DiagonalForm((1, 1, 1)), DEFAULT_MAX_BITS)


def test_represent_all_matches_box_enumeration():
    pairs = ((1, 1), (2, 1), (3, 1))
    p = PolySum.of(*pairs)
    for n in (0, 1, 9, 20, 48):
        got = represent_all(p, n)
        assert set(tuple(w) for w in got) == oracles.naive_all_witnesses(pairs, n)
        if got:
            assert got[0] == represent(p, n)


def test_represent_diag_all():
    hits = represent_all(DiagonalForm((1, 1, 1)), 1)
    assert set(hits) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert len(represent_all(DiagonalForm((1, 1, 1)), 2)) == 12


def test_sieve_report_fields():
    r = exceptional_set(DiagonalForm((1, 1, 1)), 50)
    assert r.limit == 50
    assert r.form == "x^2+y^2+z^2"
    assert r.elapsed_ms >= 0
    assert list(r.exceptions) == sorted(r.exceptions)


def test_worker_default_env_fallback(monkeypatch):
    from terna.search import env_workers

    monkeypatch.setenv("TERNA_THREADS", "3")
    assert env_workers() == 3
    monkeypatch.setenv("TERNA_THREADS", "")
    assert env_workers() is None
    monkeypatch.delenv("TERNA_THREADS")
    assert env_workers() is None
    for bad in ("junk", "0"):
        monkeypatch.setenv("TERNA_THREADS", bad)
        with pytest.raises(ValueError, match="TERNA_THREADS"):
            env_workers()


def test_exact_arithmetic_beyond_word_sizes():
    # everything is plain int: the reduction identity holds far past 2**40
    p = PolySum.of((2, 1), (3, 1), (7, 1))
    big = (2**26, -(2**27), 2**25)
    n = evaluate(p, big)
    assert n > 2**50
    from terna import embed, reduce

    rd = reduce(p)
    ws = embed(rd, big)
    assert sum(c * w * w for c, w in zip(rd.constrained.coeffs, ws)) == rd.M * n + rd.C
