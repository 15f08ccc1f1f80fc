"""Differential tests of the sieve engines.

On seeded random small forms, the residual-candidate sieve
(``value_mask``) must give the same attainable-value bitset as the dense
fold it replaces (``_dense_value_mask``, kept here as the reference), and
``exceptional_set`` the same exceptional set as the brute-force triple
loop of ``oracles.naive_exceptions``, for any worker count, wherever
the residual sieve switches to testing candidates and whichever path
(residual, exact completion, dense) it takes.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from terna import CongruenceClass, DiagonalForm, PolySum
from terna import search
from terna.search import _fold, _levels, _pairs, attainable, exceptional_set, value_mask


def _dense_value_mask(form, limit: int, workers: int = 1, progression: tuple[int, int] = (1, 0)) -> tuple[int, int]:
    # reference engine: value_mask with every shift folded
    offset, width, groups = _levels(form, limit, progression)
    return _fold([(_pairs(parts, width), longest) for parts, longest in groups], width, workers), offset


# switch points: the module's own, one that tests candidates after the
# first probe, and one that never leaves the fold while a value is missing
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
    # folding with 48 among the first candidates; the exact completion
    # tests 48 alone, and 48 stays the one exception
    seen = []
    unreached = search._unreached

    def spy(candidates, *rest):
        seen.append(list(candidates))
        return unreached(candidates, *rest)

    monkeypatch.setattr(search, "_unreached", spy)
    form = PolySum.of((2, 1), (3, 1), (6, 1))
    report = exceptional_set(form, 10**5)
    assert 48 in seen[0] and seen[-1] == [48]  # offset 0: bit n is value n
    assert value_mask(form, 10**5) == _dense_value_mask(form, 10**5)
    assert report.exceptions == (48,)


def test_dense_forms_finish_the_fold(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "_unreached", lambda *args: calls.append(args))
    report = exceptional_set(PolySum.of((1, 0), (1, 0), (1, 0)), 3000)
    assert not calls
    assert list(report.exceptions) == [n for n in range(3001) if oracles.gauss_legendre_excluded(n)]


def naive_set_bits(x: int) -> list[int]:
    return [k for k in range(x.bit_length()) if x >> k & 1]


def test_set_bits():
    assert search._set_bits(0) == []
    assert search._set_bits(1) == [0]
    rng = random.Random(7)
    for width in (9, 64, 1000, 5000):
        x = rng.getrandbits(width)
        assert search._set_bits(x) == naive_set_bits(x)
    # every width across the first byte boundaries: all ones, the top bit
    # alone and a random int, which take both regimes
    for width in range(1, 71):
        for x in ((1 << width) - 1, 1 << width - 1, rng.getrandbits(width) | 1 << width - 1):
            assert search._set_bits(x) == naive_set_bits(x)


def random_bits(rng: random.Random, width: int, count: int) -> int:
    # count set bits, the top one at width - 1
    return sum(1 << k for k in rng.sample(range(width - 1), count - 1)) | 1 << width - 1


# W a multiple of the cutoff, so that CUT bits sit exactly on it
W = search._DENSE_SHARE << 12
CUT = W // search._DENSE_SHARE  # the fewest set bits read as dense


@pytest.mark.parametrize(
    "count,dense",
    [(W // 4096, False), (CUT - 1, False), (CUT, True), (W // 2, True), (W, True)],
    ids=["1/4096", "below-cutoff", "at-cutoff", "1/2", "all-ones"],
)
def test_set_bits_regimes(monkeypatch, count, dense):
    # each regime gives the naive positions, and the cutoff decides which
    # one reads x
    spread = []
    flags = search._flags
    monkeypatch.setattr(search, "_flags", lambda x, width: spread.append(width) or flags(x, width))
    x = random_bits(random.Random(count), W, count)
    assert x.bit_count() == count
    assert search._set_bits(x) == naive_set_bits(x)
    assert spread == ([W] if dense else [])


def test_missing_flags_match_missing():
    # x(x+4)+y^2+z^2 = (x+2)^2+y^2+z^2-4: offset -4, about one value in
    # six missing, so missing() reads the dense regime
    pairs, limit = ((1, 4), (1, 0), (1, 0)), 2003
    mask = attainable(PolySum.of(*pairs), limit)
    expected = oracles.naive_exceptions(pairs, limit)
    assert mask.offset == -4
    assert len(expected) * search._DENSE_SHARE >= limit + 1
    assert mask.missing() == expected
    assert mask.missing_flags() == bytearray(n in expected for n in range(limit + 1))
    # x^2+y^2+z^2 at 4n - 37, a value from n = 10 on: offset 10
    limit = 501
    mask = attainable(DiagonalForm((1, 1, 1)), limit, progression=(4, -37))
    reach = oracles.naive_class_values((1, 1, 1), [(1, 0)] * 3, 4 * limit - 37)
    expected = [n for n in range(limit + 1) if n < 10 or not reach[4 * n - 37]]
    assert mask.offset == 10
    assert mask.missing() == expected
    assert mask.missing_flags() == bytearray(n in expected for n in range(limit + 1))


P = search._PIECE


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, P - 1, P, P + 1, 3 * P + 5])
def test_or_shifts_matches_naive_or(width):
    # a bitset of one piece is shifted whole, a wider one piece by piece;
    # both must be the OR of base << s over the shifts s < width
    rng = random.Random(width)
    base = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width) if width else 0
    ones = [k for k, bit in enumerate(reversed(bin(base)[2:])) if bit == "1"]
    spread = rng.sample(range(2 * width + 2), min(6, 2 * width + 2))
    for shifts in ([], [0], [width, width + 1, 3 * width + 8], [0, 1, width - 1, width, P, P + 3], spread):
        raw = bytearray((width + 7) // 8)
        for k in (p + s for p in ones for s in shifts if 0 <= s and p + s < width):
            raw[k >> 3] |= 1 << (k & 7)
        assert search._or_shifts(base, [s for s in shifts if s >= 0], width) == int.from_bytes(raw, "little")


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


def constrained(coeffs, classes) -> DiagonalForm:
    return DiagonalForm(coeffs, tuple(CongruenceClass(m, r) for m, r in classes))


# probe shifts: the module's own, and four shifts of each group, so that
# the fold finishes through the pool
PROBES = (search._PROBE_SHIFTS, 4)


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize(
    "coeffs,classes,progression,limit",
    PROGRESSION_CASES,
    ids=[f"{c}{k}{p}@{n}" for c, k, p, n in PROGRESSION_CASES],
)
def test_progression_sieve(monkeypatch, coeffs, classes, progression, limit, switch, probe):
    monkeypatch.setattr(search, "_BITS_PER_CANDIDATE", SWITCHES[switch])
    monkeypatch.setattr(search, "_PROBE_SHIFTS", probe)
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
        levels = search._levels(form, 10**4, (1, 0))
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


# --- truncated pair fold ------------------------------------------------------
#
# value_mask takes one of three paths.  A sparse form folds the first K
# short values into B_K and tests the bits left missing (residual); the
# bits B_K leaves unreached are then tested against the short values past
# K (completion).  A form that leaves too many bits missing grows the
# probe P while it looks sparse and some longest-slot shifts are left;
# otherwise it builds the rest of B and finishes the fold (dense).
# Each path is forced here and checked against the dense reference and
# the brute-force oracles, at one and two workers.

PATHS = {
    # candidates tested after the first probe, from the module's K
    "residual": {"_BITS_PER_CANDIDATE": 0},
    # the same from K = 1: B_1 leaves bits that only later short values reach
    "completion": {"_BITS_PER_CANDIDATE": 0, "_START_SHARE": 1 << 30},
    # a probe of no shifts leaves every bit missing and never grows: the
    # rest of B is built at once, and every shift goes to the fold
    "dense": {"_PROBE_SHIFTS": 0},
    # a probe of one shift that every form grows, dense ones too, until one
    # bit in 64 is missing or the shifts run out; then the rest of B is
    # folded with all the shifts taken so far
    "probe": {"_PROBE_SHIFTS": 1, "_SPARSE_SHARE": 0, "_SPARSE_DROP": 0, "_BITS_PER_CANDIDATE": 64},
}

# sparse triples, so the module's own K takes the residual path
PATH_POLYSUMS = CASES + [(((2, 1), (3, 1), (6, 1)), 3000), (((2, 1), (3, 1), (7, 1)), 3000)]

# several fold groups, some of several parts (one per residue pair of
# the short and middle slots)
MULTI_GROUP = [
    ((1, 1, 1), ((1, 0), (1, 0), (1, 0)), (20, 1), 150),
    ((1, 1, 1), ((2, 1), (3, 0), (1, 0)), (7, 3), 400),
    ((1, 1, 1), ((4, 1), (2, 1), (3, 1)), (5, 1), 600),
    ((1, 2, 3), ((2, 1), (3, 0), (1, 0)), (5, 1), 600),
]


def force(monkeypatch, path):
    for name, value in PATHS[path].items():
        monkeypatch.setattr(search, name, value)


def assert_engines_agree(form, limit, progression, expected):
    mask = value_mask(form, limit, workers=1, progression=progression)
    assert value_mask(form, limit, workers=2, progression=progression) == mask
    assert _dense_value_mask(form, limit, progression=progression) == mask
    for workers in (1, 2):
        assert attainable(form, limit, workers=workers, progression=progression).missing() == expected


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("pairs,limit", PATH_POLYSUMS, ids=[f"{p}@{n}" for p, n in PATH_POLYSUMS])
def test_paths_agree_polysum(monkeypatch, pairs, limit, path):
    force(monkeypatch, path)
    assert_engines_agree(PolySum.of(*pairs), limit, (1, 0), oracles.naive_exceptions(pairs, limit))


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize(
    "coeffs,classes,progression,limit",
    PROGRESSION_CASES[:12] + MULTI_GROUP,
    ids=[f"{c}{k}{p}@{n}" for c, k, p, n in PROGRESSION_CASES[:12] + MULTI_GROUP],
)
def test_paths_agree_progression(monkeypatch, coeffs, classes, progression, limit, path):
    force(monkeypatch, path)
    modulus, constant = progression
    reach = oracles.naive_class_values(coeffs, classes, modulus * limit + constant)
    expected = [n for n in range(limit + 1) if not reach[modulus * n + constant]]
    assert_engines_agree(constrained(coeffs, classes), limit, progression, expected)


def test_multi_group_cases_have_groups_of_parts():
    for coeffs, classes, progression, limit in MULTI_GROUP:
        _, _, groups = search._levels(constrained(coeffs, classes), limit, progression)
        assert len(groups) > 1 and max(len(parts) for parts, _ in groups) > 1


def paths_taken(monkeypatch, form, limit) -> set[str]:
    # "dense" when the fold is finished, "residual" when missing bits are
    # tested, "completion" when B_K leaves some unreached, "probe grown"
    # when B_K is folded with longest-slot shifts past the probe's first P
    taken = set()
    fold, complete, unreached, pairs, or_shifts = search._fold, search._complete, search._unreached, search._pairs, search._or_shifts
    longest = [shifts for _, shifts in _levels(form, limit, (1, 0))[2]]
    nested = []

    def spy_fold(*args):
        taken.add("dense")
        nested.append(1)
        try:
            return fold(*args)
        finally:
            nested.pop()

    def spy_complete(*args):
        taken.add("completion")
        return complete(*args)

    def spy_unreached(*args):
        taken.add("residual")
        return unreached(*args)

    def spy_pairs(parts, width, lo=0, hi=None):
        nested.append(1)
        try:
            return pairs(parts, width, lo, hi)
        finally:
            nested.pop()

    def spy_or_shifts(base, shifts, width):
        # value_mask's own folds take a group's longest shifts: a prefix of
        # them in the first probe and for the rest of B, later ones when P
        # grows
        if not nested and shifts and all(shifts != group[: len(shifts)] for group in longest):
            taken.add("probe grown")
        return or_shifts(base, shifts, width)

    monkeypatch.setattr(search, "_fold", spy_fold)
    monkeypatch.setattr(search, "_complete", spy_complete)
    monkeypatch.setattr(search, "_unreached", spy_unreached)
    monkeypatch.setattr(search, "_pairs", spy_pairs)
    monkeypatch.setattr(search, "_or_shifts", spy_or_shifts)
    value_mask(form, limit)
    return taken


SIX = ((2, 1), (3, 1), (6, 1))
SEVEN = ((2, 1), (3, 1), (7, 1))
GAUSS = ((1, 0), (1, 0), (1, 0))
# x(x+1)+y(2y+1)+z(4z+1): the module's first probe leaves too many bits
# missing, and the probe grows once
GROWING = ((1, 1), (2, 1), (4, 1))
# x^2+y^2+z(4z+1) to 10^4: the probe takes all 101 longest-slot shifts and
# still leaves too many bits missing, so the rest of B is built and the
# fold finishes with no shifts left
EXHAUSTED = ((1, 0), (1, 0), (4, 1))


@pytest.mark.parametrize(
    "path,pairs,limit,taken",
    [
        # the module's own constants
        (None, SEVEN, 10**4, {"residual"}),
        (None, SIX, 10**4, {"residual", "completion"}),
        (None, GAUSS, 3000, {"dense"}),
        (None, GROWING, 10**6, {"probe grown", "residual"}),
        # B_K from isqrt(width) // 8 short values, the probe grown once
        (None, SEVEN, 10**7, {"probe grown", "residual"}),
        (None, EXHAUSTED, 10**4, {"probe grown", "dense"}),
        # forced
        ("residual", GAUSS, 3000, {"residual", "completion"}),
        ("completion", SEVEN, 3000, {"residual", "completion"}),
        ("dense", SEVEN, 3000, {"dense"}),
        ("probe", GAUSS, 3000, {"probe grown", "dense"}),
    ],
)
def test_each_path_is_taken(monkeypatch, path, pairs, limit, taken):
    if path:
        force(monkeypatch, path)
    assert paths_taken(monkeypatch, PolySum.of(*pairs), limit) == taken


def fold_calls(monkeypatch, form, limit) -> list[tuple]:
    # ("pairs", lo, hi) for each _pairs call and ("or", shifts) for each
    # _or_shifts call, in order, at one worker
    calls = []
    pairs, or_shifts = search._pairs, search._or_shifts

    def spy_pairs(parts, width, lo=0, hi=None):
        calls.append(("pairs", lo, hi))
        return pairs(parts, width, lo, hi)

    def spy_or_shifts(base, shifts, width):
        calls.append(("or", len(shifts)))
        return or_shifts(base, shifts, width)

    monkeypatch.setattr(search, "_pairs", spy_pairs)
    monkeypatch.setattr(search, "_or_shifts", spy_or_shifts)
    value_mask(form, limit)
    return calls


@pytest.mark.parametrize(
    "coeffs,calls",
    [
        # Gauss never grows the probe: B_K of the first 79 squares meets the
        # first 64 shifts, the rest of B (238 squares) meets them too, and
        # all of B the other 253
        (
            (1, 1, 1),
            [
                ("pairs", 0, 6241), ("or", 79), ("or", 64),
                ("pairs", 6241, None), ("or", 238), ("or", 64),
                ("or", 253),
            ],
        ),
        (
            (10, 5, 2),
            [
                ("pairs", 0, 62410), ("or", 79), ("or", 64),
                ("pairs", 62410, None), ("or", 22), ("or", 64),
                ("or", 160),
            ],
        ),
        # x^2+y^2+11z^2 grows the probe once, to 128 shifts, and then the
        # rest of B meets all of them
        (
            (1, 1, 11),
            [
                ("pairs", 0, 68651), ("or", 79), ("or", 64), ("or", 64),
                ("pairs", 68651, None), ("or", 17), ("or", 128),
                ("or", 189),
            ],
        ),
    ],
)
def test_dense_work_is_pinned(monkeypatch, coeffs, calls):
    # the fold to 10^5 folds each (slice of B, shift) pair once, call for
    # call
    assert fold_calls(monkeypatch, DiagonalForm(coeffs), 10**5) == calls


def test_sparse_work_is_pinned(monkeypatch):
    # (2,3,7), a form of the sparse sieve workload, to 10^6: B_K, one
    # probe of 64 shifts, then the residual test
    assert fold_calls(monkeypatch, PolySum.of(*SEVEN), 10**6) == [("pairs", 0, 109500), ("or", 1155), ("or", 64)]


def test_skipping_completion_is_caught(monkeypatch):
    # mutation check: with the completion step skipped, the bits B_1 leaves
    # unreached stay missing, and the masks differ from the reference
    force(monkeypatch, "completion")
    monkeypatch.setattr(search, "_complete", lambda unreached, groups, cut: unreached)
    cases = [(PolySum.of(*pairs), limit) for pairs, limit in PATH_POLYSUMS]
    assert any(value_mask(form, limit) != _dense_value_mask(form, limit) for form, limit in cases)


# --- whole-range reference ----------------------------------------------------
#
# value_mask against oracles.shifted_values_mask, which ORs whole-int
# shifts over the literal term values and shares nothing with the pieces,
# residue buckets and carries of _levels, _pairs and _or_shifts.

REFERENCE_FORMS = [
    (PolySum.of(*SEVEN), SEVEN),
    (PolySum.of(*SIX), SIX),
    (DiagonalForm((1, 1, 1)), ((1, 1, 0),) * 3),
    (DiagonalForm((10, 5, 2)), ((10, 1, 0), (5, 1, 0), (2, 1, 0))),
    (DiagonalForm((1, 1, 11)), ((1, 1, 0), (1, 1, 0), (11, 1, 0))),
]


def reference_mask(terms, limit: int, progression: tuple[int, int]) -> tuple[int, int]:
    # the reference over [0, M*limit + C], read at every M*n + C
    modulus, constant = progression
    whole, low = oracles.shifted_values_mask(terms, modulus * limit + constant)
    offset = -((constant - low) // modulus)  # the least n with M*n + C >= low
    mask = sum(1 << n - offset for n in range(offset, limit + 1) if whole >> modulus * n + constant - low & 1)
    return mask, offset


@pytest.mark.parametrize("form,terms", REFERENCE_FORMS, ids=[str(f) for f, _ in REFERENCE_FORMS])
def test_value_mask_matches_whole_range_reference(form, terms):
    expected = oracles.shifted_values_mask(terms, 10**5)
    for workers in (1, 2):
        assert value_mask(form, 10**5, workers=workers) == expected


@pytest.mark.parametrize(
    "form,terms,progression,limit",
    [(*REFERENCE_FORMS[0], (5, 3), 2000), (*REFERENCE_FORMS[4], (7, 2), 1500)],
    ids=["237-mod5", "x2+y2+11z2-mod7"],
)
def test_progressions_match_whole_range_reference(form, terms, progression, limit):
    # several residue pairs per progression, whose sums carry past M
    expected = reference_mask(terms, limit, progression)
    for workers in (1, 2):
        assert value_mask(form, limit, workers=workers, progression=progression) == expected


SPAWNED_POOL = """
import multiprocessing

from terna import DiagonalForm, exceptional_set, search

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    # a broken pool raises here instead of falling back to the in-process fold
    search.BrokenExecutor = type("Unraised", (Exception,), {})
    for coeffs in ((1, 1, 1), (10, 5, 2)):
        one, two = (exceptional_set(DiagonalForm(coeffs), 10**5, workers=w).exceptions for w in (1, 2))
        print(len(one), one == two)
"""


def test_pool_under_spawn_start_method():
    # spawned workers import terna afresh instead of inheriting the parent's
    # memory, as under macOS's default start method and Python 3.14's
    # forkserver; both dense folds must still match one worker
    src = str(Path(search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", SPAWNED_POOL], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["16664 True", "48959 True"]
