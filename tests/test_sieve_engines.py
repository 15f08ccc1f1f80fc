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
from terna import CongruenceClass, ConstrainedForm, DiagonalForm, PolySum
from terna import search
from terna.search import _dense_value_mask, attainable, exceptional_set, value_mask

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
    assert dense[1] == sum(oracles.term_min(a, b) for a, b in pairs)
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


# --- progression sieve ------------------------------------------------------
#
# value_mask/attainable with progression (M, C): bit n stands for M*n + C.
# Checked against the brute-force oracle for M*n + C, against the dense
# mask of the whole range [0, M*limit + C] read at M*n + C, and across
# worker counts and switch points.


def random_class(rng: random.Random) -> tuple[int, int]:
    m = rng.randint(1, 6)
    return m, rng.choice([0, 1 % m, rng.randrange(m)])


def random_progression_cases(seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        coeffs = tuple(rng.randint(1, 6) for _ in range(3))
        classes = [random_class(rng) for _ in range(3)]
        # every fourth case: one odd and one residue-0 coordinate
        if k % 4 == 3:
            classes[0], classes[1] = (2, 1), (rng.randint(2, 5), 0)
        modulus = (1, rng.randint(2, 8), rng.randint(9, 40))[k % 3]
        # C >= M in about half of the cases
        constant = rng.randint(0, 2 * modulus)
        limit = (0, 1, rng.randint(0, 3000 // modulus), 3000 // modulus)[k % 4]
        cases.append((coeffs, tuple(classes), (modulus, constant), limit))
    return cases


PROGRESSION_CASES = random_progression_cases(20261018, 32)


def constrained(coeffs, classes) -> ConstrainedForm:
    return ConstrainedForm(DiagonalForm(coeffs), tuple(CongruenceClass(m, r) for m, r in classes))


# (batch, probe): the module's own, and one that leaves the probe after
# four shifts of each group, so that the fold finishes through the pool
PROBES = ((search._BATCH, search._PROBE_SHIFTS), (2, 4))


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize(
    "coeffs,classes,progression,limit",
    PROGRESSION_CASES,
    ids=[f"{c}{k}{p}@{n}" for c, k, p, n in PROGRESSION_CASES],
)
def test_progression_sieve(monkeypatch, coeffs, classes, progression, limit, switch, probe):
    monkeypatch.setattr(search, "_BITS_PER_CANDIDATE", SWITCHES[switch])
    monkeypatch.setattr(search, "_BATCH", probe[0])
    monkeypatch.setattr(search, "_PROBE_SHIFTS", probe[1])
    form = constrained(coeffs, classes)
    modulus, constant = progression
    top = modulus * limit + constant
    reach = oracles.naive_class_values(coeffs, classes, top)
    expected = [n for n in range(limit + 1) if not reach[modulus * n + constant]]

    assert attainable(form, limit, progression=progression).missing() == expected
    mask = value_mask(form, limit, workers=1, progression=progression)
    assert value_mask(form, limit, workers=2, progression=progression) == mask
    assert _dense_value_mask(form, limit, progression=progression) == mask
    assert _dense_value_mask(form, limit, workers=2, progression=progression) == mask

    # bit v - offset of the dense mask is value v; values below offset are
    # not attained
    dense, offset = _dense_value_mask(form, top)
    bits = [modulus * n + constant - offset for n in range(limit + 1)]
    assert [n for n, k in enumerate(bits) if k < 0 or not dense >> k & 1] == expected


@pytest.mark.parametrize("pairs,limit", CASES[:8], ids=[f"{p}@{n}" for p, n in CASES[:8]])
@pytest.mark.parametrize("progression", [(3, 1), (7, 12), (12, 5)])
def test_progression_sieve_polysum(pairs, limit, progression):
    # terms with negative values: the offset of the bits may be negative
    modulus, constant = progression
    limit //= modulus
    missing = set(oracles.naive_exceptions(pairs, modulus * limit + constant))
    expected = [n for n in range(limit + 1) if modulus * n + constant in missing]
    form = PolySum.of(*pairs)
    for workers in (1, 2):
        assert attainable(form, limit, workers=workers, progression=progression).missing() == expected
        mask = value_mask(form, limit, workers=workers, progression=progression)
        assert mask == _dense_value_mask(form, limit, workers=workers, progression=progression)


def test_default_progression_is_the_plain_sieve():
    # (1, 0) keeps one fold group: the two shorter slots' bitset and the
    # longest slot's values, as before progressions; a PolySum, sieved as
    # its reduction on (4L, C), is not split into residue groups (the
    # second form has b > a and L = 6)
    for pairs, offset in [(((2, 1), (3, 1), (7, 1)), 0), (((3, 7), (2, 5), (6, 1)), -7)]:
        form = PolySum.of(*pairs)
        levels = search._levels(form, 10**4, search.DEFAULT_MAX_BITS, (1, 0))
        assert (levels[0], levels[1], len(levels[2])) == (offset, 10**4 + 1 - offset, 1)
        assert attainable(form, 10**4, progression=(1, 0)) == attainable(form, 10**4)


def test_progression_rejects_modulus_below_one():
    with pytest.raises(ValueError):
        value_mask(DiagonalForm((1, 1, 1)), 10, progression=(0, 1))


def test_sieve_rejects_negative_limit():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        attainable(DiagonalForm((1, 1, 1)), -1)


def test_value_mask_repr_leaves_out_the_mask():
    # the mask of 10^5 bits has more decimal digits than str() allows
    assert repr(attainable(DiagonalForm((1, 1, 1)), 10**5)) == "ValueMask(offset=0, limit=100000)"
