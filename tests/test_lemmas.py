import hashlib
import tracemalloc

import pytest

import oracles
from terna import (
    NoOddRepresentationError,
    NotRepresentableError,
    PreconditionError,
    ResourceLimitError,
    anomalies_x2_2y2,
    check_3x2_6y2,
    five_descent,
    rep_5x2_5y2_z2_odd,
    rep_x2_2y2_odd,
    rep_x2_3y2_6z2,
    rep_x2_y2_2z2_coprime3,
)
from terna import search
from terna.lemmas import scan_3x2_6y2


def descent_valid(u, v):
    (x, y), trace = five_descent(u, v)
    assert x * x + y * y == u * u + v * v
    assert x % 5 and y % 5
    for step in trace.steps:
        bu, bv = step.before
        au, av = step.after
        assert au * au + av * av == 25 * (bu * bu + bv * bv)
    return (x, y), trace


def test_five_descent_examples():
    (x, y), trace = descent_valid(1, 2)
    assert (x, y) == (1, 2) and trace.initial_order == 0 and not trace.steps

    (x, y), trace = descent_valid(5, 5)
    assert (x, y) == (7, 1)
    assert trace.initial_order == 1 and trace.steps[0].signs == (1, 1)
    assert {abs(x), abs(y)} <= {a for a, b in oracles.two_square_reps(50)} | {b for a, b in oracles.two_square_reps(50)}

    (x, y), _ = descent_valid(0, 5)
    assert {abs(x), abs(y)} == {3, 4}


def test_five_descent_preconditions():
    with pytest.raises(PreconditionError):
        five_descent(0, 0)
    with pytest.raises(PreconditionError):
        five_descent(1, 1)


def test_five_descent_exhaustive_small():
    for u in range(-60, 61):
        for v in range(-60, 61):
            s = u * u + v * v
            if s and s % 5 == 0:
                descent_valid(u, v)


def test_pinned_lemma_2_2_and_descent():
    # rep_5x2_5y2_z2_odd for r in {6, 14} and n <= 2000, then five_descent
    # with its trace on every (u, v) in [-60, 60]^2 with 5 | u^2 + v^2 > 0,
    # byte for byte
    rows = [(n, r, rep_5x2_5y2_z2_odd(n, r)) for r in (6, 14) for n in range(2001)]
    rows += [
        (u, v, five_descent(u, v))
        for u in range(-60, 61)
        for v in range(-60, 61)
        if u * u + v * v and (u * u + v * v) % 5 == 0
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "847eeb672fb16b0eb8e32bb33a4bda5ce04391c365417dadc03ba281ee044536"


def rep22_valid(n, r):
    x, y, z = rep_5x2_5y2_z2_odd(n, r)
    assert 5 * x * x + 5 * y * y + z * z == 20 * n + r
    assert z % 2 == 1
    return x, y, z


def test_rep_5x2_5y2_z2_odd_examples():
    x, y, z = rep22_valid(0, 6)
    assert sorted((abs(x), abs(y))) == [0, 1] and abs(z) == 1
    x, y, z = rep22_valid(0, 14)
    assert sorted((abs(x), abs(y))) == [0, 1] and abs(z) == 3
    rep22_valid(1, 6)  # 26 = 5 + 20 + 1


def test_rep_5x2_5y2_z2_odd_range():
    for r in (6, 14):
        for n in range(400):
            rep22_valid(n, r)


def test_rep_5x2_5y2_z2_odd_preconditions():
    with pytest.raises(PreconditionError):
        rep_5x2_5y2_z2_odd(0, 7)
    with pytest.raises(PreconditionError):
        rep_5x2_5y2_z2_odd(-1, 6)


def test_rep_x2_2y2_odd_examples():
    assert rep_x2_2y2_odd(3) == (1, 1)
    assert rep_x2_2y2_odd(11) == (3, 1)
    with pytest.raises(NoOddRepresentationError):
        rep_x2_2y2_odd(9)  # representable (9 = 3^2, 1 + 2*4) but never odd-odd
    with pytest.raises(NoOddRepresentationError):
        rep_x2_2y2_odd(1)
    with pytest.raises(NotRepresentableError):
        rep_x2_2y2_odd(5)
    with pytest.raises(PreconditionError):
        rep_x2_2y2_odd(0)


def test_rep_x2_2y2_odd_versus_oracle():
    for w in range(1, 600):
        reps = oracles.two_square_reps(w, 1, 2)
        odd = {(u, v) for u, v in reps if u % 2 and v % 2}
        if odd:
            u, v = rep_x2_2y2_odd(w)
            assert (abs(u), abs(v)) in odd
        elif reps:
            with pytest.raises(NoOddRepresentationError):
                rep_x2_2y2_odd(w)
        else:
            with pytest.raises(NotRepresentableError):
                rep_x2_2y2_odd(w)


def test_anomalies_x2_2y2():
    got = anomalies_x2_2y2(100)
    expected = []
    for w in range(1, 101):
        reps = oracles.two_square_reps(w, 1, 2)
        if reps and not any(u % 2 and v % 2 for u, v in reps):
            expected.append(w)
    assert got == expected
    assert 9 in got and 1 in got
    assert 3 not in got
    # odd-odd values of x^2+2y^2 are exactly those = 3 (mod 8)
    assert all(w % 8 != 3 for w in got)


def test_check_3x2_6y2_examples():
    assert check_3x2_6y2(3) == (True, True)
    assert check_3x2_6y2(6) == (True, True)
    assert check_3x2_6y2(12) == (True, True)
    assert check_3x2_6y2(1) == (False, False)
    assert check_3x2_6y2(2) == (False, False)
    with pytest.raises(PreconditionError):
        check_3x2_6y2(-1)


def test_check_3x2_6y2_agreement():
    for w in range(800):
        lhs, rhs = check_3x2_6y2(w)
        assert lhs == bool(oracles.two_square_reps(w, 3, 6))
        assert rhs == (w % 3 == 0 and bool(oracles.two_square_reps(w, 1, 2)))
        assert lhs == rhs  # the equivalence itself


def test_scan_3x2_6y2():
    assert scan_3x2_6y2(10**4) == []


def test_scan_3x2_6y2_checks_the_bit_cap_before_allocating(monkeypatch):
    # a limit over the cap is refused before any limit-bit wide int is built
    monkeypatch.setattr(search, "DEFAULT_MAX_BITS", 1000)
    limit = 10**8
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            scan_3x2_6y2(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit // 8 // 4


def rep23iii_valid(n, parity):
    x, y, z = rep_x2_3y2_6z2(n, parity)
    assert x * x + 3 * y * y + 6 * z * z == 6 * n + 1
    assert x % 2 == parity
    return x, y, z


def test_rep_x2_3y2_6z2_examples():
    assert rep23iii_valid(2, 1) == (1, 2, 0)
    assert rep23iii_valid(2, 0) == (2, 1, 1)
    with pytest.raises(PreconditionError):
        rep_x2_3y2_6z2(0, 1)  # 6*0+1 = 1 is a square
    with pytest.raises(PreconditionError):
        rep_x2_3y2_6z2(4, 0)  # 25
    with pytest.raises(PreconditionError):
        rep_x2_3y2_6z2(2, 2)
    with pytest.raises(PreconditionError):
        rep_x2_3y2_6z2(-1, 0)


def test_rep_x2_3y2_6z2_range():
    from terna.lemmas import _is_square

    for n in range(1, 500):
        if _is_square(6 * n + 1):
            continue
        for parity in (0, 1):
            rep23iii_valid(n, parity)


def rep31_valid(n):
    x, y, z = rep_x2_y2_2z2_coprime3(n)
    assert x * x + y * y + 2 * z * z == 6 * n + 1
    assert x % 3 and y % 3 and z % 3
    return x, y, z


def test_rep_x2_y2_2z2_coprime3_examples():
    assert rep31_valid(1) == (2, 1, 1)
    assert rep31_valid(2) == (2, 1, 2)
    assert rep31_valid(4) == (4, 1, 2)
    with pytest.raises(PreconditionError):
        rep_x2_y2_2z2_coprime3(0)


def test_rep_x2_y2_2z2_coprime3_range():
    for n in range(1, 500):
        rep31_valid(n)
