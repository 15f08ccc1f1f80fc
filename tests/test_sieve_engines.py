"""Differential tests of the sieve engines.

On seeded random small forms, the residual-candidate sieve
(``value_mask``) must give the same attainable-value bitset as the dense
fold it replaces (``_dense_value_mask``, kept here as the reference), and
``exceptional_set`` the same exceptional set as the brute-force triple
loop of ``oracles.naive_exceptions``, wherever the residual sieve
switches to testing candidates and whichever path (image, residual,
exact completion, exhausted probe) it takes.
"""

import inspect
import random
from math import gcd, lcm

import pytest

import oracles
from terna import CongruenceClass, DiagonalForm, PolySum
from terna import lemmas, search
from terna.search import _levels, _pairs, attainable, exceptional_set, value_mask


def _aligned(mask: int, offset: int) -> int:
    # bit k - offset of mask moved to bit k
    return mask << offset if offset >= 0 else mask >> -offset


def _dense_value_mask(form, limit: int, progression: tuple[int, int] = (1, 0)) -> int:
    # reference engine: all of B folded with every shift over the whole
    # width, in one class
    pairs, [(offset, width, groups)] = _levels(form, limit, progression)
    fold = 0
    for s, longest in groups:
        fold |= search._or_shifts(_pairs(pairs[s], width), longest, width)
    return _aligned(fold, offset)


@pytest.fixture
def split(monkeypatch):
    # classes of one bit and up: the small widths here would stay below the
    # module's floor and fold whole
    monkeypatch.setattr(search, "_FLOOR", 1)


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
    assert value_mask(form, limit) == dense
    assert exceptional_set(form, limit).exceptions == tuple(oracles.naive_exceptions(pairs, limit))


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
    assert 48 in seen[0] and seen[-1] == [48]  # offset 0: bit k of the fold is value k
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
    # zero runs of thousands of bytes below the first set byte and between
    # set bytes
    x = 1 << 40_000 | 0b1010_0101 << 40_003 | 1 << 99_999 | 0xFF << 100_008 | 1 << 200_000
    assert search._set_bits(x) == naive_set_bits(x)
    # every width across the first byte boundaries: all ones, the top bit
    # alone and a random int
    for width in range(1, 71):
        for x in ((1 << width) - 1, 1 << width - 1, rng.getrandbits(width) | 1 << width - 1):
            assert search._set_bits(x) == naive_set_bits(x)


def random_bits(rng: random.Random, width: int, count: int) -> int:
    # count set bits, the top one at width - 1
    return sum(1 << k for k in rng.sample(range(width - 1), count - 1)) | 1 << width - 1


W = 12 << 12


@pytest.mark.parametrize(
    "count",
    [W // 4096, W // 12 - 1, W // 12, W // 2, W],
    ids=["1/4096", "1/12-less-1", "1/12", "1/2", "all-ones"],
)
def test_set_bits_density_sweep(count):
    # one reader for every density, from a few bits to all ones
    x = random_bits(random.Random(count), W, count)
    assert x.bit_count() == count
    assert search._set_bits(x) == naive_set_bits(x)


@pytest.mark.parametrize(
    "start,step,stop",
    [(5, 3, 5), (9, 2, 4), (5, 3, 6), (5, 3, 9), (0, 3, 24), (0, 3, 25), (7, 8, 7 + 8 * 64), (7, 8, 7 + 8 * 65), (4, 1, 1000), (0, 1, 1)],
    ids=["count-0", "start-past-stop", "count-1", "count-2", "count-8", "count-9", "count-64", "count-65", "step-1", "step-1-count-1"],
)
def test_every_matches_naive_bits(start, step, stop):
    assert search._every(start, step, stop) == sum(1 << k for k in range(start, stop, step))


def assert_absent_matches(mask, limit: int, expected: list[int]):
    # bit n of the mask is n, and no bit lies past limit
    assert mask.mask.bit_length() <= limit + 1
    assert mask.missing() == expected
    assert mask.absent() == sum(1 << n for n in expected)


def test_absent_matches_missing():
    # x(x+4)+y^2+z^2 = (x+2)^2+y^2+z^2-4: its terms take negative values,
    # and about one value in six is missing
    pairs, limit = ((1, 4), (1, 0), (1, 0)), 2003
    assert_absent_matches(attainable(PolySum.of(*pairs), limit), limit, oracles.naive_exceptions(pairs, limit))
    # x^2+y^2+z^2 at 4n - 37, a value from n = 10 on
    limit = 501
    reach = oracles.naive_class_values((1, 1, 1), [(1, 0)] * 3, 4 * limit - 37)
    expected = [n for n in range(limit + 1) if n < 10 or not reach[4 * n - 37]]
    assert_absent_matches(attainable(DiagonalForm((1, 1, 1)), limit, progression=(4, -37)), limit, expected)
    # x(4x+4)+y(5y+5)+z(6z+6): reduced on M = 240, its three slots' least
    # values, 240, 300 and 360, are all at least M
    pairs, limit = ((4, 4), (5, 5), (6, 6)), 2000
    assert_absent_matches(attainable(PolySum.of(*pairs), limit), limit, oracles.naive_exceptions(pairs, limit))


P = search._PIECE


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, P - 1, P, P + 1, 2 * P, 3 * P + 5])
def test_or_shifts_matches_naive_or(width):
    # a bitset of one piece is shifted whole, a wider one piece by piece;
    # both must be the OR of base << s over the shifts s < width, also where
    # the base is wider than width, as a class fold's B_s built for a wider
    # class is
    rng = random.Random(width)
    base = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width) if width else 0
    spread = rng.sample(range(2 * width + 2), min(6, 2 * width + 2))
    for base in (base, base | rng.getrandbits(2) << width | 1 << width + 2):
        ones = [k for k, bit in enumerate(reversed(bin(base)[2:])) if bit == "1"]
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
# switch points.


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


# probe shifts: the module's own, and four shifts of each group in a wide
# probe, so that the probe grows, and runs out of shifts, on small sieves
# too
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
    if probe != search._PROBE_SHIFTS:
        monkeypatch.setattr(search, "_narrower", lambda *args: False)
    form = constrained(coeffs, classes)
    modulus, constant = progression
    top = modulus * limit + constant
    reach = oracles.naive_class_values(coeffs, classes, top)
    expected = [n for n in range(limit + 1) if not reach[modulus * n + constant]]

    assert attainable(form, limit, progression=progression).missing() == expected
    # any (M, C) pair will do, a list too
    assert attainable(form, limit, progression=list(progression)).missing() == expected
    assert _dense_value_mask(form, limit, progression=progression) == value_mask(form, limit, progression=progression)

    # bit v of the dense mask is value v
    dense = _dense_value_mask(form, top)
    assert [n for n in range(limit + 1) if not dense >> modulus * n + constant & 1] == expected


@pytest.mark.parametrize("pairs,limit", CASES[:8], ids=[f"{p}@{n}" for p, n in CASES[:8]])
@pytest.mark.parametrize("progression", [(3, 1), (7, 12), (12, 5)])
def test_progression_sieve_polysum(pairs, limit, progression):
    # terms with negative values: the fold's bits start below n = 0
    modulus, constant = progression
    limit //= modulus
    missing = set(oracles.naive_exceptions(pairs, modulus * limit + constant))
    expected = [n for n in range(limit + 1) if modulus * n + constant in missing]
    form = PolySum.of(*pairs)
    assert attainable(form, limit, progression=progression).missing() == expected
    assert value_mask(form, limit, progression=progression) == _dense_value_mask(form, limit, progression=progression)


def test_default_progression_is_the_plain_sieve():
    # (1, 0) keeps one fold group: the two shorter slots' bitset and the
    # longest slot's values, as before progressions; a PolySum, sieved as
    # its reduction on (4L, C), is not split into residue groups (the
    # second form has b > a and L = 6)
    for pairs, offset in [(((2, 1), (3, 1), (7, 1)), 0), (((3, 7), (2, 5), (6, 1)), -7)]:
        form = PolySum.of(*pairs)
        _, [level] = search._levels(form, 10**4, (1, 0))
        assert (level[0], level[1], len(level[2])) == (offset, 10**4 + 1 - offset, 1)
        assert attainable(form, 10**4, progression=(1, 0)) == attainable(form, 10**4)


def test_progression_rejects_modulus_below_one():
    with pytest.raises(ValueError):
        value_mask(DiagonalForm((1, 1, 1)), 10, progression=(0, 1))


def test_sieve_rejects_negative_limit():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        attainable(DiagonalForm((1, 1, 1)), -1)


def test_value_mask_repr_leaves_out_the_mask():
    # the mask of 10^5 bits has more decimal digits than str() allows
    assert repr(attainable(DiagonalForm((1, 1, 1)), 10**5)) == "ValueMask(limit=100000)"


# --- truncated pair fold ------------------------------------------------------
#
# value_mask takes one of three paths.  A form whose residue image shows an
# empty class folds by class at once (image).  Any other folds the first K
# short values with the first P longest-slot shifts, from the narrow side
# (A_K + L_P shifted by the middle values) or the wide one (B_K shifted by
# L_P), and tests the bits left missing (residual) against B_K, built then
# if the probe was narrow (lazy); the bits B_K leaves unreached are then
# tested against the short values past K (completion).  A form that leaves
# too many bits missing grows the probe P until its longest-slot shifts
# run out, and then folds the short values past K with every shift
# (exhausted).  Each path is forced here and checked against the dense
# reference and the brute-force oracles.


def no_empty_class(cf, M, C, odd):
    # the image route forced off: no factor misses a residue
    return []


def every_class_empty(cf, M, C, odd):
    # the image route forced on: a factor of 1 that misses its one residue
    return [(1, 1)]


PATHS = {
    # every form folds by class with no probe, sparse ones too
    "image": {"_misses": every_class_empty},
    # candidates tested after the first probe, from the module's K
    "residual": {"_BITS_PER_CANDIDATE": 0, "_misses": no_empty_class},
    # the same from K = 1: B_1 leaves bits that only later short values reach
    "completion": {"_BITS_PER_CANDIDATE": 0, "_START_SHARE": 1 << 30, "_misses": no_empty_class},
    # no residual test while a bit is missing: the probe grows until its
    # shifts run out, and then the short values past K = 1 meet every shift
    "exhausted": {"_BITS_PER_CANDIDATE": 1 << 62, "_START_SHARE": 1 << 30, "_misses": no_empty_class},
    # a wide probe of one shift that every form grows, dense ones too,
    # until one bit in 64 is missing or the shifts run out; then the short
    # values past K meet every shift
    "probe": {"_narrower": lambda *args: False, "_PROBE_SHIFTS": 1, "_BITS_PER_CANDIDATE": 64, "_misses": no_empty_class},
    # the first probe step from the narrow side, on a base of one 64-bit
    # piece, so that the probe grows, from B_K, on small sieves too
    "narrow": {"_narrower": lambda *args: True, "_BASE_SPAN": 0, "_PIECE": 64, "_misses": no_empty_class},
    # the same, with the missing bits tested after the first step: B_K is
    # built then, cut past the last of them
    "lazy": {"_narrower": lambda *args: True, "_BASE_SPAN": 0, "_PIECE": 64, "_BITS_PER_CANDIDATE": 0, "_misses": no_empty_class},
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
    assert value_mask(form, limit, progression=progression) == _dense_value_mask(form, limit, progression=progression)
    assert attainable(form, limit, progression=progression).missing() == expected


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
        pairs, [(_, _, groups)] = search._levels(constrained(coeffs, classes), limit, progression)
        assert len(groups) > 1 and max(len(pairs[s]) for s, _ in groups) > 1


def paths_taken(monkeypatch, form, limit) -> set[str]:
    # "image" when the residue image shows an empty class, "dense" when the
    # class fold runs (on the image route alone), "narrow" when a probe step
    # folds A_K + L by the middle values, "lazy" when B_K is built only
    # after the probe, for the missing bits, "residual" when missing bits
    # are tested, "completion" when B_K leaves some unreached, "probe
    # grown" when B_K is folded with longest-slot shifts past the probe's
    # first P, "exhausted" when the short values past K are folded after
    # the probe
    taken, events, nested = set(), [], []
    class_masks, fold, complete = search._class_masks, search._fold_class, search._complete
    unreached, pairs, or_shifts = search._unreached, search._pairs, search._or_shifts
    misses, narrow = search._misses, search._narrow
    longest = [shifts for _, shifts in _levels(form, limit, (1, 0))[1][0][2]]

    def inside(f, *args):
        # f's own _pairs and _or_shifts calls are not the probe's
        nested.append(1)
        try:
            return f(*args)
        finally:
            nested.pop()

    def spy_misses(*args):
        # the image's sumsets call _or_shifts too
        out = inside(misses, *args)
        if any(bits for _, bits in out):
            taken.add("image")
        return out

    def spy_class_masks(*args):
        taken.add("dense")
        return class_masks(*args)

    def spy_complete(*args):
        taken.add("completion")
        return inside(complete, *args)

    def spy_narrow(*args):
        taken.add("narrow")
        return inside(narrow, *args)

    def spy_unreached(*args):
        # B_K is lazy when no fold came between its build and the test
        taken.add("residual")
        if [e for e in events if e != "test"][-1:] == ["build"]:
            taken.add("lazy")
        events.append("test")
        return unreached(*args)

    def spy_pairs(parts, width, lo=0, hi=None):
        if not nested:
            if lo:
                taken.add("exhausted")
            else:
                events.append("build")
        return inside(pairs, parts, width, lo, hi)

    def spy_or_shifts(base, shifts, width):
        # value_mask's own folds take a group's longest shifts: a prefix of
        # them in the first probe, later ones when P grows, all of them when
        # the probe is exhausted; a split fold's calls run inside _fold_class
        if not nested:
            events.append("fold")
            if shifts and all(shifts != group[: len(shifts)] for group in longest):
                taken.add("probe grown")
        return or_shifts(base, shifts, width)

    monkeypatch.setattr(search, "_misses", spy_misses)
    monkeypatch.setattr(search, "_class_masks", spy_class_masks)
    monkeypatch.setattr(search, "_fold_class", lambda *args: inside(fold, *args))
    monkeypatch.setattr(search, "_complete", spy_complete)
    monkeypatch.setattr(search, "_narrow", spy_narrow)
    monkeypatch.setattr(search, "_unreached", spy_unreached)
    monkeypatch.setattr(search, "_pairs", spy_pairs)
    monkeypatch.setattr(search, "_or_shifts", spy_or_shifts)
    value_mask(form, limit)
    return taken


SIX = ((2, 1), (3, 1), (6, 1))
SEVEN = ((2, 1), (3, 1), (7, 1))
GAUSS = ((1, 0), (1, 0), (1, 0))
EQUAL = ((2, 1), (2, 1), (2, 1))
# x(x+1)+y(2y+1)+z(4z+1) to 10^6: a wide probe of 64 shifts leaves too
# many bits missing and grows; the narrow probe, 371 shifts, leaves none
GROWING = ((1, 1), (2, 1), (4, 1))
# 4x^2+y(4y+1)+z(4z+1) to 10^6: the narrow probe leaves too many bits
# missing and grows from the wide side, and the missing bits are tested
# against the B_K that growth built
NARROW_GROWS = ((4, 0), (4, 1), (4, 1))
# x^2+y^2+z(4z+1) to 10^4: the probe takes all 101 longest-slot shifts and
# still leaves too many bits missing, so the short values past K meet all
# 101
EXHAUSTED = ((1, 0), (1, 0), (4, 1))


@pytest.mark.parametrize(
    "path,pairs,limit,taken",
    [
        # the module's own constants: the narrow probe reaches every value
        # of (2,3,7), and leaves 48 to (2,3,6), for which B_K is built to
        # 49 bits
        (None, SEVEN, 10**4, {"narrow"}),
        (None, SIX, 10**4, {"narrow", "lazy", "residual", "completion"}),
        # Gauss misses the classes 7 and 15 mod 16 and skips the probe: as
        # a DiagonalForm, and as a PolySum, sieved on 4n, whose 2-adic
        # factor 2^(4 + 2) misses 28 and 60 mod 64
        (None, GAUSS, 3000, {"image", "dense"}),
        (None, DiagonalForm((1, 1, 1)), 3000, {"image", "dense"}),
        (None, GROWING, 10**6, {"narrow"}),
        (None, NARROW_GROWS, 10**6, {"narrow", "probe grown", "residual", "completion"}),
        # a base of two pieces, 273 short values and 515 shifts, reaches
        # every value
        (None, SEVEN, 10**7, {"narrow"}),
        # a known loss: x(2x+1)+y(2y+1)+z(2z+1) and (2,2,6) to 10^6 go
        # narrow, 1 414 shifts of a one-piece base, though B_K and a wide
        # probe of 64 shifts leave few enough bits missing and are faster:
        # exceptional_set 15.5 against 12.4 ms and 15.6 against 13.9 (min
        # of 7, interleaved).  The piece count prices both sides at the
        # same P, and a base within one piece as a whole piece; charging
        # the base by its bits still ranks them narrow, and pricing the
        # wide side at 64 shifts too ranks (2,3,7) to 10^7 wide, where the
        # narrow probe is about twice as fast
        (None, EQUAL, 10**6, {"narrow"}),
        (None, ((2, 1), (2, 1), (6, 1)), 10**6, {"narrow"}),
        # below a piece the probe is wide
        (None, EXHAUSTED, 10**4, {"probe grown", "exhausted"}),
        # forced
        ("residual", GAUSS, 3000, {"residual", "completion"}),
        ("completion", SEVEN, 3000, {"narrow", "lazy", "residual", "completion"}),
        ("exhausted", SIX, 3000, {"narrow", "exhausted"}),
        ("probe", GAUSS, 3000, {"probe grown", "exhausted"}),
        ("image", SEVEN, 3000, {"image", "dense"}),
        ("narrow", SEVEN, 3000, {"narrow", "probe grown", "exhausted"}),
        ("lazy", SIX, 3000, {"narrow", "lazy", "residual", "completion"}),
    ],
)
def test_each_path_is_taken(monkeypatch, path, pairs, limit, taken):
    if path:
        force(monkeypatch, path)
    form = pairs if isinstance(pairs, DiagonalForm) else PolySum.of(*pairs)
    assert paths_taken(monkeypatch, form, limit) == taken


def fold_calls(monkeypatch, form, limit) -> list[tuple]:
    # ("pairs", lo, hi) for each _pairs call and ("or", shifts) for each
    # _or_shifts call, in order; the image's sumsets, which call _or_shifts
    # too, are left out
    calls = []
    pairs, or_shifts, misses = search._pairs, search._or_shifts, search._misses

    def spy_pairs(parts, width, lo=0, hi=None):
        calls.append(("pairs", lo, hi))
        return pairs(parts, width, lo, hi)

    def spy_or_shifts(base, shifts, width):
        calls.append(("or", len(shifts)))
        return or_shifts(base, shifts, width)

    def spy_misses(*args):
        monkeypatch.setattr(search, "_or_shifts", or_shifts)
        try:
            return misses(*args)
        finally:
            monkeypatch.setattr(search, "_or_shifts", spy_or_shifts)

    monkeypatch.setattr(search, "_pairs", spy_pairs)
    monkeypatch.setattr(search, "_or_shifts", spy_or_shifts)
    monkeypatch.setattr(search, "_misses", spy_misses)
    value_mask(form, limit)
    return calls


@pytest.mark.parametrize(
    "form,limit,calls",
    [
        # Gauss misses the classes 7 and 15 mod 16, so it skips the probe.
        # Its classes would be narrower than the floor, so all of B is built
        # from every square and meets all 317 shifts, 64 at a time
        (
            DiagonalForm((1, 1, 1)),
            10**5,
            [("pairs", 0, None), ("or", 317), *[("or", 64)] * 4, ("or", 61)],
        ),
        # to 2^17, classes of n mod 16 are 2^13 bits wide and fold on their
        # own: the pair level B_s of each of the 9 pair residues s mod 16 is
        # built once, from every square.  Classes 0 and 12, which hold the
        # exceptions, fold all 91 and 90 of their shifts; the other classes
        # that a group reaches are full after the first 64 shifts of one
        # group, or of two in classes 1, 2 and 9; no group reaches 7 or 15
        (
            DiagonalForm((1, 1, 1)),
            2**17,
            [
                ("pairs", 0, None), ("or", 91), ("pairs", 0, None), ("or", 91), ("or", 91),
                ("pairs", 0, None), ("or", 91), ("or", 90), *[("pairs", 0, None), ("or", 91), ("or", 91)] * 2,
                ("pairs", 0, None), ("or", 91), *[("pairs", 0, None), ("or", 90), ("or", 90)] * 3,
                ("or", 64), ("or", 27), *[("or", 64)] * 13, ("or", 64), ("or", 27), ("or", 64), ("or", 64),
            ],
        ),
        # 10x^2+5y^2+2z^2 misses 190 classes of 400: all of B meets all 224
        # shifts
        (
            DiagonalForm((10, 5, 2)),
            10**5,
            [("pairs", 0, None), ("or", 101), *[("or", 64)] * 3, ("or", 32)],
        ),
        # x^2+y^2+11z^2 misses 80 classes of 1 936 and no longer grows the
        # probe: all of B meets every shift
        (
            DiagonalForm((1, 1, 11)),
            10**5,
            [("pairs", 0, None), ("or", 96), *[("or", 64)] * 4, ("or", 61)],
        ),
        # 8x^2+y(8y+7)+z(10z+1) has no empty class at q = 80.  Its probe
        # starts narrow, from 91 short values and 182 shifts: it builds
        # A_K + L ("pairs", its 91 shifts) and shifts it by the 633 middle
        # values.  It then grows from the wide side: B_K is built, one shift
        # per middle value, and meets the next 182 shifts and the last 343.
        # 245 bits stay missing, one more than the residual test takes; the
        # 263 short values past K then meet all 707
        (
            PolySum.of((8, 0), (8, 7), (10, 1)),
            10**6,
            [
                ("pairs", 0, None), ("or", 91), ("or", 633), ("pairs", 0, 66248), ("or", 633), ("or", 182),
                ("or", 343), ("pairs", 66248, None), ("or", 263), ("or", 707),
            ],
        ),
    ],
    ids=["x^2+y^2+z^2", "x^2+y^2+z^2 by class", "10x^2+5y^2+2z^2", "x^2+y^2+11z^2", "8x^2+y(8y+7)+z(10z+1)"],
)
def test_dense_work_is_pinned(monkeypatch, form, limit, calls):
    # each class folds until it is full, or, below the floor, all of B
    # meets every shift; a form with no empty class probes until its shifts
    # run out.  Call for call
    assert fold_calls(monkeypatch, form, limit) == calls


def test_full_classes_stop_early(monkeypatch):
    # Gauss to 10^6: the class folds shift 1 461 pieces of 62 501 bits where
    # the whole fold shifts 8 008 of 2^17, and would shift 9 001 if no class
    # stopped when full
    work, pieces = [], []
    fold_class, or_shifts = search._fold_class, search._or_shifts

    def spy_fold_class(offset, width, groups):
        # every B_s is built before the first class folds
        work.append(sum(len(shifts) for _, shifts in groups) * -(-width // search._PIECE))
        monkeypatch.setattr(search, "_or_shifts", spy_or_shifts)
        return fold_class(offset, width, groups)

    def spy_or_shifts(base, shifts, width):
        pieces.append(len(shifts) * -(-width // search._PIECE))
        return or_shifts(base, shifts, width)

    form = DiagonalForm((1, 1, 1))
    _, [(_, width, [(_, longest)])] = _levels(form, 10**6, (1, 0))
    assert len(longest) * -(-width // search._PIECE) == 8008
    dense = _dense_value_mask(form, 10**6)
    monkeypatch.setattr(search, "_fold_class", spy_fold_class)
    assert value_mask(form, 10**6) == dense
    assert (sum(work), sum(pieces)) == (9001, 1461)


def test_sparse_work_is_pinned(monkeypatch):
    # (2,3,7), a form of the sparse sieve workload, to 10^6: one narrow
    # probe, whose base A_K + L_P, 193 short values and 365 shifts in one
    # piece, is built by 193 shifts and then shifted by the 1 155 middle
    # values; it leaves no bit missing, so B_K is never built
    assert fold_calls(monkeypatch, PolySum.of(*SEVEN), 10**6) == [("pairs", 0, None), ("or", 193), ("or", 1155)]


def test_skipping_completion_is_caught(monkeypatch):
    # mutation check: with the completion step skipped, the bits B_1 leaves
    # unreached stay missing, and the masks differ from the reference
    force(monkeypatch, "completion")
    monkeypatch.setattr(search, "_complete", lambda unreached, groups, cut: unreached)
    cases = [(PolySum.of(*pairs), limit) for pairs, limit in PATH_POLYSUMS]
    assert any(value_mask(form, limit) != _dense_value_mask(form, limit) for form, limit in cases)


def test_skipping_the_rest_is_caught(monkeypatch):
    # mutation check: with the short values past K left out once the probe
    # has run out of shifts, the masks differ from the reference
    force(monkeypatch, "exhausted")
    cases = [(PolySum.of(*pairs), limit) for pairs, limit in PATH_POLYSUMS]
    assert all(search.value_mask(form, limit) == _dense_value_mask(form, limit) for form, limit in cases)
    mutant(monkeypatch, "value_mask", "_or_shifts(_pairs(parts, width, cut), longest, width)", "0")
    assert any(search.value_mask(form, limit) != _dense_value_mask(form, limit) for form, limit in cases)


@pytest.mark.parametrize("offset", ["+ 1", "- 1"])
def test_narrow_base_off_by_one_is_caught(monkeypatch, offset):
    # mutation check: the narrow base shifted one bit too far, or one too
    # short, by a0 + v0 + m +- 1, gives masks that differ from the
    # reference, or a negative shift
    force(monkeypatch, "narrow")
    cases = [(PolySum.of(*pairs), limit) for pairs, limit in PATH_POLYSUMS]
    assert all(search.value_mask(form, limit) == _dense_value_mask(form, limit) for form, limit in cases)
    mutant(monkeypatch, "_narrow", "m + a0 + first", f"m + a0 + first {offset}")
    assert not all(mask_or_none(form, limit) == _dense_value_mask(form, limit) for form, limit in cases)


def mask_or_none(form, limit: int):
    # value_mask, or None where it shifts by a negative count
    try:
        return search.value_mask(form, limit)
    except ValueError:
        return None


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


def reference_mask(terms, limit: int, progression: tuple[int, int]) -> int:
    # the reference over [0, M*limit + C], read at every M*n + C >= 0, n
    # from limit down to 0; whole[v] is bit v of the reference
    modulus, constant = progression
    whole = format(_aligned(*oracles.shifted_values_mask(terms, modulus * limit + constant)), "b")[::-1]
    top = modulus * limit + constant
    return int("".join("1" if 0 <= v < len(whole) and whole[v] == "1" else "0" for v in range(top, top - modulus * (limit + 1), -modulus)), 2)


@pytest.mark.parametrize("form,terms", REFERENCE_FORMS, ids=[str(f) for f, _ in REFERENCE_FORMS])
def test_value_mask_matches_whole_range_reference(form, terms):
    assert value_mask(form, 10**5) == _aligned(*oracles.shifted_values_mask(terms, 10**5))


@pytest.mark.parametrize(
    "form,terms,progression,limit",
    [(*REFERENCE_FORMS[0], (5, 3), 2000), (*REFERENCE_FORMS[4], (7, 2), 1500)],
    ids=["237-mod5", "x2+y2+11z2-mod7"],
)
def test_progressions_match_whole_range_reference(form, terms, progression, limit):
    # several residue pairs per progression, whose sums carry past M
    assert value_mask(form, limit, progression=progression) == reference_mask(terms, limit, progression)


# --- class fold -----------------------------------------------------------------
#
# A dense form folds each class n = j (mod q) on its own and interleaves the
# class masks.  With the floor forced to 1 (the split fixture) small sieves
# split too, and must give the reference masks: the whole fold of
# _dense_value_mask and the oracle's.


def class_terms(coeffs, classes) -> tuple:
    # the oracle's terms c*w^2, w = r (mod m)
    return tuple((c, m, r) for c, (m, r) in zip(coeffs, classes))


SPLIT_CASES = (
    [(PolySum.of(*pairs), pairs, (1, 0), limit) for pairs, limit in random_cases(20261020, 48)]
    + [(constrained(c, k), class_terms(c, k), p, n) for c, k, p, n in PROGRESSION_CASES]
    + [
        # C < 0: x^2+y^2+z^2 at 4n - 37, q = 4, the classes' offsets
        # (4j - 37) // 16 all below 0
        (DiagonalForm((1, 1, 1)), class_terms((1, 1, 1), [(1, 0)] * 3), (4, -37), 1500),
        # C >= Q: on 3n + 100, q = 16 and Q = 48, the offsets (3j + 100) // 48
        # are 2 and 3
        (DiagonalForm((1, 1, 1)), class_terms((1, 1, 1), [(1, 0)] * 3), (3, 100), 1500),
        # class moduli that share q's primes: x^2+y^2+3z^2 with x = 1 (mod 3)
        # and y even, q = 48; 10x^2+5y^2+2z^2 with z = 2 (mod 5), q = 80
        (constrained((1, 1, 3), [(3, 1), (2, 0), (1, 0)]), class_terms((1, 1, 3), [(3, 1), (2, 0), (1, 0)]), (1, 0), 3000),
        (constrained((10, 5, 2), [(1, 0), (1, 0), (5, 2)]), class_terms((10, 5, 2), [(1, 0), (1, 0), (5, 2)]), (1, 0), 3000),
    ]
)


@pytest.mark.parametrize("form,terms,progression,limit", SPLIT_CASES, ids=[f"{t}{p}@{n}" for _, t, p, n in SPLIT_CASES])
@pytest.mark.usefixtures("split")
def test_class_fold_matches_references(form, terms, progression, limit):
    expected = reference_mask(terms, limit, progression)
    assert _dense_value_mask(form, limit, progression) == expected
    assert value_mask(form, limit, progression=progression) == expected


@pytest.mark.usefixtures("split")
def test_split_cases_reach_the_class_fold(monkeypatch):
    # the four chosen cases and more than a third of all are sent by the
    # image to the class fold (56 of 84); the others take the probe
    folded = []
    fold_class = search._fold_class

    def spy_fold_class(*args):
        folded.append(1)
        return fold_class(*args)

    monkeypatch.setattr(search, "_fold_class", spy_fold_class)
    reached = []
    for form, _, progression, limit in SPLIT_CASES:
        folded.clear()
        value_mask(form, limit, progression=progression)
        reached.append(bool(folded))
    assert all(reached[-4:]) and sum(reached) * 3 > len(reached)


@pytest.mark.usefixtures("split")
def test_classes_on_a_piece_boundary(monkeypatch):
    # Gauss to 2 048 with 64-bit pieces: class 0 is 129 bits wide and the
    # others two whole pieces of 128.  Each B_s is built as wide as class 0,
    # and B_0 holds 2 048 = 32^2 + 32^2 at bit 128, past the pieces of the
    # classes 1, 4 and 9 that fold it
    monkeypatch.setattr(search, "_PIECE", 64)
    form = DiagonalForm((1, 1, 1))
    _, classes = _levels(form, 2048, (1, 0), 16)
    assert [width for _, width, _ in classes] == [129] + [128] * 15
    expected = reference_mask(((1, 1, 0),) * 3, 2048, (1, 0))
    assert _dense_value_mask(form, 2048) == expected
    assert value_mask(form, 2048) == expected


def mutant(monkeypatch, name: str, old: str, new: str):
    # the module's function name with the one occurrence of old replaced
    source = inspect.getsource(getattr(search, name))
    assert source.count(old) == 1
    scope = {}
    exec(source.replace(old, new), vars(search), scope)
    monkeypatch.setattr(search, name, scope[name])


GAUSS_FORM = DiagonalForm((1, 1, 1))
# the least limit at which Gauss's 16 classes reach the floor and fold apart
GAUSS_SPLIT = 16 * search._FLOOR


def test_class_stopped_short_of_full_is_caught(monkeypatch):
    # mutation check: a class that stops once 63 bits in 64 are set, not
    # when every bit is, leaves values of Gauss to 2^17 missing
    dense = _dense_value_mask(GAUSS_FORM, GAUSS_SPLIT)
    assert value_mask(GAUSS_FORM, GAUSS_SPLIT) == dense
    mutant(monkeypatch, "_fold_class", ".bit_count() == width - skip", ".bit_count() * 64 >= (width - skip) * 63")
    assert value_mask(GAUSS_FORM, GAUSS_SPLIT) != dense


def test_interleave_shifted_by_one_class_is_caught(monkeypatch):
    # mutation check: class j's mask read as class j - 1's
    dense = _dense_value_mask(GAUSS_FORM, GAUSS_SPLIT)
    interleave = search._interleave
    monkeypatch.setattr(search, "_interleave", lambda masks: interleave(masks[1:] + masks[:1]))
    assert value_mask(GAUSS_FORM, GAUSS_SPLIT) != dense


# --- residue image ----------------------------------------------------------------
#
# _misses gives, for each factor F of Q, the residues M*n + C mod F that no
# sum of the slots' residues reaches; a class of n mod q = Q/M is empty when
# some factor misses its target.  The factors are checked against sums over
# whole periods of the classes (oracles.residue_sums), the empty classes
# against the oracles' values, and the route they decide is forced on and
# off.

ROUTE_CASES = (
    [(PolySum.of(*pairs), pairs, (1, 0), limit) for pairs, limit in PATH_POLYSUMS]
    + [(constrained(c, k), class_terms(c, k), p, n) for c, k, p, n in PROGRESSION_CASES]
    + SPLIT_CASES
)
ROUTE_IDS = [f"{t}{p}@{n}" for _, t, p, n in ROUTE_CASES]

# sums whose empty classes show only past M: x(x+4)+y^2+z^2, sieved on 4n +
# 16, misses n = 3 (mod 8) at 2^(2 + 4) and none at 16;
# x(4x+4)+y(5y+5)+z(6z+6), on 240n + 900, misses 8 residues of 2^(4 + 4);
# 3x^2+3y^2+z(3z+3), on 12n + 9, has coefficients 1 and misses 6 residues
# of 3^(1 + 2), a prime of M alone.  Where p^2 divides M:
# x(9x+9)+y(9y+15)+z(12z+3), on 144n + 1251, misses every n not 0 (mod 3)
# at 3^(2 + 2), and x(9x+6)+y(3y+6)+z(3z+9), on 36n + 387, 6 residues of
# 3^(2 + 2).  Where a factor is cut: x(17x+17)+y(17y+34)+z(17z+51), on 68n
# + 4046, shows its classes at 17^2 of 17^(1 + 2), and x^2+67y^2+67z^2,
# a DiagonalForm on n, at 67 of 67^2
PAST_M = [
    (PolySum.of(*pairs), pairs)
    for pairs in [
        ((1, 4), (1, 0), (1, 0)),
        ((4, 4), (5, 5), (6, 6)),
        ((3, 0), (3, 0), (3, 3)),
        ((9, 9), (9, 15), (12, 3)),
        ((9, 6), (3, 6), (3, 9)),
        ((17, 17), (17, 34), (17, 51)),
    ]
] + [(DiagonalForm((1, 67, 67)), class_terms((1, 67, 67), [(1, 0)] * 3))]

# x(10x+2)+y(7y+1)+2z^2 and x^2+y^2+11z^2 to 10^6, whose classes mod 16*35
# and 16*11 would be narrower than the floor
FALLBACK = [
    (PolySum.of((10, 2), (7, 1), (2, 0)), ((10, 2), (7, 1), (2, 0))),
    (DiagonalForm((1, 1, 11)), class_terms((1, 1, 11), [(1, 0)] * 3)),
]

# q of the class fold to 10^6: 16*p1*p2..., over the odd primes p whose
# factor misses a residue, where its classes are _FLOOR bits wide, else
# 16.  x(2x+2)+y(7y+1)+z(7z+5) and x(6x+6)+y(9y+1)+z(9z+5) miss classes
# mod 16 alone: their 7 and 3 (primes of M) miss no residue and stay out
# of q, which was 112 and 48 while it took every odd prime of the image
FOLD_Q = [
    (PAST_M[0][0], 16),
    (PAST_M[2][0], 48),
    (FALLBACK[0][0], 16),
    (FALLBACK[1][0], 16),
    (PolySum.of((2, 2), (7, 1), (7, 5)), 16),
    (PolySum.of((6, 6), (9, 1), (9, 5)), 16),
]

# the sums above at a limit the oracle reaches
NEW_ROUTE_CASES = [(form, terms, (1, 0), 2000) for form, terms in PAST_M + FALLBACK]
NEW_ROUTE_IDS = [f"{t}{p}@{n}" for _, t, p, n in NEW_ROUTE_CASES]


def image(form, limit: int, progression: tuple[int, int]) -> tuple[list[tuple[int, int]], int, int]:
    # (the image's (F, bits) pairs, M, C) of form on progression
    cf, M, C = search._sieved(form, limit, progression)
    return search._misses(cf, M, C, search._odd_primes(cf, M, M * limit + C)), M, C


def empty_classes(form, limit: int, progression: tuple[int, int]) -> tuple[int, list[int]]:
    # (q, the classes j of n mod q that some factor of the image misses)
    factors, M, C = image(form, limit, progression)
    q = lcm(M, *(F for F, _ in factors)) // M
    return q, [j for j in range(q) if any(bits >> (M * j + C) % F & 1 for F, bits in factors)]


def holds_no_value(form, terms, progression, limit) -> bool:
    # every n <= limit in a class the image calls empty is missing; reach[n]
    # is bit n of the reference
    q, empty = empty_classes(form, limit, progression)
    reach = format(reference_mask(terms, limit, progression), "b")[::-1]
    return all("1" not in reach[j::q] for j in empty)


def expected_factors(cf: DiagonalForm, M: int, top: int) -> list[int]:
    # p^(vp(M) + 4) for p = 2, then p^(vp(M) + 2) for each odd prime p of M
    # or of a coefficient with a value c*w^2 in (0, top], w in its class,
    # each cut to the largest power of p that is at most _IMAGE_BITS
    def factor(p: int, e: int) -> int:
        F = max(p**k for k in range(M.bit_length() + 1) if M % p**k == 0) * p**e
        return max(p**k for k in range(F.bit_length()) if F % p**k == 0 and p**k <= search._IMAGE_BITS)

    def odd_primes(c: int) -> set[int]:
        return {p for p in range(3, c + 1, 2) if c % p == 0 and all(p % d for d in range(3, p, 2))}

    primes = odd_primes(M)
    for c, k in zip(cf.coeffs, cf.classes):
        if any(0 < c * w * w <= top for w in range(k.residue - k.modulus, k.modulus + 1, k.modulus)):
            primes |= odd_primes(c)
    return [factor(2, 4)] + [factor(p, 2) for p in sorted(primes)]


# x(128x+1)+y^2+z^2 is sieved on M = 512: its 2-adic factor 2^(9 + 4) is
# cut to _IMAGE_BITS, not left out
WIDE = ((128, 1), (1, 0), (1, 0))
IMAGE_CASES = ROUTE_CASES + NEW_ROUTE_CASES + [(PolySum.of(*WIDE), WIDE, (1, 0), 3000)]


def test_wide_two_adic_factor_is_cut():
    factors, M, _ = image(PolySum.of(*WIDE), 3000, (1, 0))
    assert M == 512
    assert [F for F, _ in factors] == [search._IMAGE_BITS]


@pytest.mark.parametrize("form,terms,progression,limit", IMAGE_CASES, ids=ROUTE_IDS + NEW_ROUTE_IDS + [f"{WIDE}(1, 0)@3000"])
def test_image_matches_period_sums(form, terms, progression, limit):
    cf, M, C, _ = search._constrained(form, progression)
    factors, _, _ = image(form, limit, progression)
    assert [F for F, _ in factors] == expected_factors(cf, M, M * limit + C)
    classes = [(k.modulus, k.residue) for k in cf.classes]
    for F, bits in factors:
        reached, g = oracles.residue_sums(cf.coeffs, classes, F), gcd(M, F)
        assert bits == sum(1 << t for t in range(F) if t % g == C % g and t not in reached)
    assert holds_no_value(form, terms, progression, limit)


@pytest.mark.parametrize("floor", [search._FLOOR, 1], ids=["module-floor", "floor-1"])
@pytest.mark.parametrize("route", ["image", "probe"])
@pytest.mark.parametrize("form,terms,progression,limit", ROUTE_CASES + NEW_ROUTE_CASES, ids=ROUTE_IDS + NEW_ROUTE_IDS)
def test_routes_agree_with_oracles(monkeypatch, form, terms, progression, limit, route, floor):
    # the image route forced on (every form folds by class, no probe) and
    # off (every form starts with the probe), at the module's floor and
    # with classes of one bit and up
    monkeypatch.setattr(search, "_misses", every_class_empty if route == "image" else no_empty_class)
    monkeypatch.setattr(search, "_FLOOR", floor)
    expected = reference_mask(terms, limit, progression)
    assert value_mask(form, limit, progression=progression) == _dense_value_mask(form, limit, progression) == expected
    missing = [n for n in range(limit + 1) if not expected >> n & 1]
    assert attainable(form, limit, progression=progression).missing() == missing
    if progression == (1, 0):
        assert exceptional_set(form, limit).exceptions == tuple(missing)


def test_routes_cover_both_paths():
    # the module's own image routes some cases of each list to the class
    # fold and leaves others to the probe
    lists = [ROUTE_CASES[: len(PATH_POLYSUMS)], ROUTE_CASES[len(PATH_POLYSUMS) : -len(SPLIT_CASES)], SPLIT_CASES]
    for cases in lists:
        routed = [bool(empty_classes(form, limit, progression)[1]) for form, _, progression, limit in cases]
        assert any(routed) and not all(routed)


def test_nonempty_class_marked_empty_is_caught(monkeypatch):
    # mutation check: the least residue the slots reach, taken for missed,
    # marks a class empty that holds values
    assert all(holds_no_value(*case) for case in ROUTE_CASES)
    mutant(monkeypatch, "_misses", "& ~sums", "& ~(sums & sums - 1)")
    assert not all(holds_no_value(*case) for case in ROUTE_CASES)


@pytest.mark.parametrize(
    "coeffs,q,count",
    [((1, 1, 1), 16, 2), ((1, 1, 3), 144, 16), ((10, 5, 2), 400, 190), ((1, 1, 11), 1936, 80), ((1, 1, 10), 400, 25), ((1, 2, 3), 144, 9)],
)
def test_empty_classes_are_the_classes_with_no_value(coeffs, q, count):
    # to 32q every class of n mod q holds 32 members, so the classes whose
    # members the oracle all misses are the empty ones, and no other class
    # is wholly missed
    limit = 32 * q - 1
    reach = reference_mask(class_terms(coeffs, [(1, 0)] * 3), limit, (1, 0))
    wholly = [j for j in range(q) if not any(reach >> n & 1 for n in range(j, limit + 1, q))]
    assert empty_classes(DiagonalForm(coeffs), limit, (1, 0)) == (q, wholly)
    assert len(wholly) == count


def test_image_finds_classes_only_at_p_squared():
    # x^2+y^2+3z^2 misses n = 9^k(9l + 6): the image mod 144 finds the 16
    # classes 6 (mod 9), and the fold, at 3 and not 3^2, gives each of its
    # 48 classes some group
    form = DiagonalForm((1, 1, 3))
    assert empty_classes(form, 10**6, (1, 0)) == (144, [j for j in range(144) if j % 9 == 6])
    assert search._route(form, 10**6, (1, 0)) == 48
    assert all(targets for _, _, targets in _levels(form, 10**6, (1, 0), 48)[1])


@pytest.mark.parametrize("form,q", FOLD_Q, ids=[str(form) for form, _ in FOLD_Q])
def test_fold_q_is_pinned(form, q):
    assert search._route(form, 10**6, (1, 0)) == q


@pytest.mark.parametrize("form,terms", PAST_M, ids=[str(form) for form, _ in PAST_M])
def test_image_sees_classes_past_m(monkeypatch, form, terms):
    assert empty_classes(form, 10**6, (1, 0))[1]
    assert holds_no_value(form, terms, (1, 0), 10**6)
    assert paths_taken(monkeypatch, form, 10**6) == {"image", "dense"}


@pytest.mark.parametrize(
    "old,new",
    [("while m % p == 0:", "while False:"), ("while F > _IMAGE_BITS:\n            F //= p", "if F > _IMAGE_BITS:\n            continue")],
    ids=["no-vp-of-M", "wide-left-out"],
)
def test_image_past_m_mutations_are_caught(monkeypatch, old, new):
    # mutation check: with vp(M) dropped from each factor, or a factor wider
    # than _IMAGE_BITS left out instead of cut, some of the sums above shows
    # no empty class
    mutant(monkeypatch, "_misses", old, new)
    assert not all(empty_classes(form, 10**6, (1, 0))[1] for form, _ in PAST_M)


def test_pair_mask_keeps_q_small(monkeypatch):
    # lemmas._pair_mask sieves c1*x^2 + c2*y^2 as a form whose third
    # coefficient, limit + 1 = 10 007 (a prime), holds no value in range:
    # its prime stays out of Q
    seen = []
    misses = search._misses
    monkeypatch.setattr(search, "_misses", lambda *args: seen.append(misses(*args)) or seen[-1])
    assert lemmas.scan_3x2_6y2(10**4 + 6) == []
    assert [[F for F, _ in factors] for factors in seen] == [[16, 9], [16]]
