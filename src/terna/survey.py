"""Finite coefficient searches and range scans.

``filter_universal_triples`` reproduces the candidate list for
x(ax+1)+y(by+1)+z(cz+1): every 1 <= a <= b <= c <= c_max (default 50,
far past where the list stops changing) whose polynomial represents each
value of a small counterexample test set.  ``filter_universal_quadruples``
does the analogue for x(ax+b)+y(ay+c)+z(az+d), 0 <= b <= c <= d <= a,
keeping quadruples with no counterexample n <= n_limit.

Both filters are one exact sumset, so every exclusion is a proof: term
values are >= 0, so n is a value exactly when it is a sum of three term
values <= n.  One body, ``_survivors``, decides each sum for both, in
two exact stages.  The prefix stage folds the sum on its low ``_PREFIX``
bits only: those bits depend only on term values below the prefix, so a
sum that misses a needed value there is refuted.  Only a sum that passes
gets the full-width fold, from its pair's fold, built once per pair and
only when needed.  Before either, the lowest-missing cut skips a third
term unfolded when its smallest nonzero value exceeds the lowest needed
value the pair misses, which it then cannot fill; the same cut one level
up ends the second term's loop once no term left has a nonzero value up
to the lowest needed value the first term misses.  Each triple survivor
is reduced once, and ``represent`` then confirms it with a scan of its
constrained form per test value; ``reverify_quadruples`` re-checks
quadruples by one sieve each, an independent second engine.

``verify_conjectured_triples`` and ``scan_5x2_5y2_4z2`` are pure range
scans with no filtering: they report exceptional sets that are expected
(but not proven) to be empty or tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .core import CongruenceClass, DiagonalForm, ResourceLimitError
from .search import DEFAULT_MAX_BITS, SieveReport, _bits, _constrained, _or_shifts, _square_slot, attainable, exceptional_set, represent
from .witnesses import CONJECTURED_TRIPLES, quadruple_poly, triple_poly

#: counterexample values that already pin the triple list down
DEFAULT_TEST_VALUES = (1, 2, 4, 5, 9, 48)


def _term_values(a: int, b: int, top: int) -> list[int]:
    # values <= top of x(ax+b), all >= 0 for 0 <= b <= a: (w^2 - b^2)/4a, w >= 0, w = +-b (mod 2a)
    return [(v - b * b) // (4 * a) for v in _square_slot(1, 4 * a * top + b * b, CongruenceClass(2 * a, b))]


# Prefix stage of _survivors: each sum is first folded on its low _PREFIX
# bits only.  Every sum that the quadruple filter refutes for a <= 13
# misses some n <= 17, and the triple test values stop at 48.  Medians of
# 15 (interleaved; Python 3.11, 2-core x86-64 VM) with a prefix of 16, 32,
# 64, 128 and 256 bits, and with none: a in [3, 13] to n <= 1000 1.7, 1.8,
# 2.0, 2.3, 2.7 and 4.8 ms; a in [1, 13] to 10^4 4.5, 4.5, 4.6, 4.9, 5.4
# and 48 ms; triples with c <= 50, re-timed with the first term's cut,
# 1.6-2.2 ms at each prefix (4.6-6.8 ms without that cut).
_PREFIX = 64


def _survivors(values: list[list[int]], need: int, width: int) -> Iterator[tuple[int, int, int]]:
    # index triples i <= j <= k, in order, whose sumset of the term values
    # values[i], values[j], values[k] (each >= 0) sets every bit of need,
    # width bits wide; both stages and the cut are exact
    low = min(_PREFIX, width)
    low_need = need & ((1 << low) - 1)
    low_values = [[v for v in vals if v < low] for vals in values]
    # lowest-missing cut: a third term whose smallest nonzero value exceeds
    # the lowest needed n the pair misses (its truant, width if none)
    # cannot fill n; tail[k] is the smallest of these from term k on
    least = [min((v for v in vals if v), default=width) for vals in values]
    tail = list(accumulate(reversed(least), min))[::-1]
    for i in range(len(values)):
        low_base = _bits(low_values[i], low)
        # the same cut one level up: a sum from term i on that fills the
        # lowest needed n term i misses (single, width if none) needs a
        # term at j or later whose smallest nonzero value is <= single
        missing = low_need & ~low_base
        single = (missing & -missing).bit_length() - 1 if missing else width
        base = None
        for j in range(i, len(values)):
            if tail[j] > single:
                break
            low_pair = _or_shifts(low_base, low_values[j], low)
            missing = low_need & ~low_pair
            truant = (missing & -missing).bit_length() - 1 if missing else width
            pair = None
            for k in range(j, len(values)):
                if least[k] > truant:
                    if tail[k] > truant:
                        break
                    continue
                if _or_shifts(low_pair, low_values[k], low) & low_need != low_need:
                    continue
                if low < width:
                    # only sums that pass the prefix get the full-width fold
                    if pair is None:
                        if base is None:
                            base = _bits(values[i], width)
                        pair = _or_shifts(base, values[j], width)
                        missing = need & ~pair
                        truant = (missing & -missing).bit_length() - 1 if missing else width
                    if _or_shifts(pair, values[k], width) & need != need:
                        continue
                yield i, j, k


def _check_width(width: int) -> None:
    if width > DEFAULT_MAX_BITS:
        raise ResourceLimitError(f"survey needs {width} bits, cap is {DEFAULT_MAX_BITS}")


def filter_universal_triples(
    c_max: int = 50,
    test_values: tuple[int, ...] = DEFAULT_TEST_VALUES,
) -> list[tuple[int, int, int]]:
    """All 1 <= a <= b <= c <= c_max representing every test value: (a, b, c)
    survives when the sumset of its three terms' values sets every test
    value's bit, and ``represent`` then finds a hit for each.

    Each sum is first folded on the bits below ``_PREFIX`` only, and folded
    at full width only if it sets every test value there; a c whose
    smallest nonzero value x(cx+1) exceeds the lowest test value the (a, b)
    pair misses is skipped unfolded, and the b loop ends once every
    coefficient from b on has its smallest nonzero value past the lowest
    test value that x(ax+1) misses (with the default test values, 1 for
    every a >= 3).  Each survivor is reduced once, and its constrained form
    is scanned once per test value.  Raises ``ResourceLimitError`` when the
    largest test value needs more than ``DEFAULT_MAX_BITS`` bits."""
    if any(n < 0 for n in test_values):  # no triple has a negative value
        return []
    width = max(test_values, default=0) + 1
    _check_width(width)
    values = [_term_values(a, 1, width - 1) for a in range(1, c_max + 1)]
    out = []
    for i, j, k in _survivors(values, _bits(test_values, width), width):
        t = (i + 1, j + 1, k + 1)
        # one reduction per survivor: n is a value of the triple iff
        # M*n + C is a value of its constrained diagonal form
        cf, M, C, _ = _constrained(triple_poly(t), (1, 0))
        if all(represent(cf, M * n + C) is not None for n in test_values):
            out.append(t)
    return out


def filter_universal_quadruples(
    a_range: tuple[int, int] = (3, 13),
    n_limit: int = 1000,
) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d), a in a_range and 0 <= b <= c <= d <= a, with no
    counterexample n <= n_limit: the sumset of the terms x(ax+b), y(ay+c)
    and z(az+d) sets every bit of [0, n_limit].

    Each sum is first folded on the bits below ``_PREFIX`` only, and folded
    at full width only if it misses none of them; a d whose smallest
    nonzero value exceeds the lowest n the (b, c) pair misses is skipped
    unfolded, and the c loop ends the same way on the lowest n that
    x(ax+b) misses.  Raises ``ResourceLimitError`` when n_limit + 1 exceeds
    ``DEFAULT_MAX_BITS`` bits."""
    if n_limit < 0:
        raise ValueError("n_limit must be >= 0")
    if a_range[0] < 1:
        raise ValueError(f"a_range must start at a >= 1, got {a_range}")
    width = n_limit + 1
    _check_width(width)
    out = []
    for a in range(a_range[0], a_range[1] + 1):
        values = [_term_values(a, b, n_limit) for b in range(a + 1)]
        out.extend((a, b, c, d) for b, c, d in _survivors(values, (1 << width) - 1, width))
    return out


def reverify_quadruples(quads: list[tuple[int, int, int, int]], n_limit: int) -> list[tuple[int, int, int, int]]:
    """The subset of quads, in order, with no counterexample n <= n_limit:
    one exact sieve (``exceptional_set``) of [0, n_limit] per quadruple.
    It re-checks filter survivors at larger bounds, and is an engine
    independent of the filter's sumset."""
    return [q for q in quads if exceptional_set(quadruple_poly(q), n_limit).is_empty()]


def verify_conjectured_triples(limit: int) -> list[tuple[tuple[int, int, int], SieveReport]]:
    """Exceptional set up to limit for each conjectured triple.

    An empty set is evidence for the conjecture at this range, not a proof.
    """
    return [(t, exceptional_set(triple_poly(t), limit)) for t in CONJECTURED_TRIPLES]


@dataclass(frozen=True)
class EvenSquareScanReport:
    """For r in {6, 14}: all n <= limit with 20n+r not of the form
    5x^2 + 5y^2 + (2z)^2."""

    limit: int
    exceptions: dict[int, tuple[int, ...]]


def scan_5x2_5y2_4z2(limit: int) -> EvenSquareScanReport:
    """Scan 20n+r against 5x^2+5y^2+4z^2 for r in {6, 14}, n <= limit: one
    sieve of the form on each progression 20n+r, limit + 1 bits wide."""
    exceptions = {
        r: tuple(attainable(DiagonalForm((5, 5, 4)), limit, progression=(20, r)).missing())
        for r in (6, 14)
    }
    return EvenSquareScanReport(limit, exceptions)
