"""Differential tests of the sieve engines.

On seeded random small forms, the residual-candidate sieve
(``value_mask``) must give the same attainable-value bitset as the dense
fold it replaces (``_dense_value_mask``, kept as the reference), and
``exceptional_set`` the same exceptional set as the brute-force triple
loop of ``oracles.naive_exceptions``, for any worker count and wherever
the residual sieve switches to testing candidates.
"""

import random

import pytest

import oracles
from terna import PolySum
from terna import search
from terna.search import _dense_value_mask, exceptional_set, value_mask

# switch points: the module's own, one that tests candidates after the
# first batch, and one that never leaves the fold while a value is missing
SWITCHES = {"default": search._BITS_PER_CANDIDATE, "candidates": 0, "fold": 1 << 62}


def random_cases(seed: int, count: int) -> list[tuple[tuple, int]]:
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        if k % 3 == 0:
            # a squares-only form: dense exceptional set, as for Gauss and Dickson
            pairs = tuple((rng.randint(1, 3), 0) for _ in range(3))
        else:
            # b up to 3a, so b > a (negative term values) is common
            pairs = tuple((a, rng.randint(0, 3 * a)) for a in (rng.randint(1, 6) for _ in range(3)))
        limit = (0, 1, 7, rng.randint(0, 3000))[k % 4]
        cases.append((pairs, limit))
    return cases


CASES = random_cases(20261018, 24)


# fold piece sizes: the module's own, and 64 bits so that small sieves
# span many pieces
PIECES = (search._PIECE, 64)


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize("pairs,limit", CASES, ids=[f"{p}@{n}" for p, n in CASES])
def test_engines_agree_with_oracle(monkeypatch, pairs, limit, switch, piece):
    monkeypatch.setattr(search, "_BITS_PER_CANDIDATE", SWITCHES[switch])
    monkeypatch.setattr(search, "_PIECE", piece)
    form = PolySum.of(*pairs)
    dense = _dense_value_mask(form, limit)
    assert value_mask(form, limit, workers=1) == dense
    assert value_mask(form, limit, workers=2) == dense
    expected = tuple(oracles.naive_exceptions(pairs, limit))
    assert exceptional_set(form, limit, workers=1).exceptions == expected
    assert exceptional_set(form, limit, workers=2).exceptions == expected


def test_dense_reference_independent_of_workers():
    for pairs, limit in CASES:
        form = PolySum.of(*pairs)
        assert _dense_value_mask(form, limit, workers=2) == _dense_value_mask(form, limit, workers=1)


def test_candidate_stage_keeps_48(monkeypatch):
    # at the module's switch point the sieve of (2,3,6) to 10^5 stops
    # folding with 48 still a candidate, and 48 stays an exception
    seen = []
    unreached = search._unreached

    def spy(candidates, *rest):
        seen.append(list(candidates))
        return unreached(candidates, *rest)

    monkeypatch.setattr(search, "_unreached", spy)
    form = PolySum.of((2, 1), (3, 1), (6, 1))
    report = exceptional_set(form, 10**5)
    assert len(seen) == 1 and 48 in seen[0]  # offset 0: bit n is value n
    assert value_mask(form, 10**5) == _dense_value_mask(form, 10**5)
    assert report.exceptions == (48,)


def test_dense_forms_finish_the_fold(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "_unreached", lambda *args: calls.append(args))
    report = exceptional_set(PolySum.of((1, 0), (1, 0), (1, 0)), 3000)
    assert not calls
    assert list(report.exceptions) == [n for n in range(3001) if oracles.gauss_legendre_excluded(n)]


def test_set_bits():
    assert search._set_bits(0) == []
    assert search._set_bits(1) == [0]
    rng = random.Random(7)
    for width in (9, 64, 1000, 5000):
        x = rng.getrandbits(width)
        assert search._set_bits(x) == [k for k in range(width) if x >> k & 1]
