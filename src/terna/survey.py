"""Finite coefficient searches and range scans.

``filter_universal_triples`` reproduces the candidate list for
x(ax+1)+y(by+1)+z(cz+1): every 1 <= a <= b <= c <= c_max (default 50,
far past where the list stops changing) whose polynomial represents each
value of a small counterexample test set.  ``filter_universal_quadruples``
does the analogue for x(ax+b)+y(ay+c)+z(az+d), 0 <= b <= c <= d <= a,
keeping quadruples with no counterexample n <= n_limit.

Both filters are one exact sumset, so every exclusion is a proof: term
values are >= 0, so n is a value exactly when it is a sum of three term
values <= n.  ``represent`` confirms each triple survivor with a witness;
``reverify_quadruples`` re-checks quadruples by one sieve each, an
independent second engine.

``verify_conjectured_triples`` and ``scan_5x2_5y2_4z2`` are pure range
scans with no filtering: they report exceptional sets that are expected
(but not proven) to be empty or tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CongruenceClass, DiagonalForm
from .search import SieveReport, _bits, _or_shifts, _square_slot, attainable, exceptional_set, represent
from .witnesses import CONJECTURED_TRIPLES, quadruple_poly, triple_poly

#: counterexample values that already pin the triple list down
DEFAULT_TEST_VALUES = (1, 2, 4, 5, 9, 48)


def _term_values(a: int, b: int, top: int) -> list[int]:
    # values <= top of x(ax+b), all >= 0 for 0 <= b <= a: (w^2 - b^2)/4a, w >= 0, w = +-b (mod 2a)
    return [(v - b * b) // (4 * a) for v in _square_slot(1, 4 * a * top + b * b, CongruenceClass(2 * a, b))]


def filter_universal_triples(
    c_max: int = 50,
    test_values: tuple[int, ...] = DEFAULT_TEST_VALUES,
) -> list[tuple[int, int, int]]:
    """All 1 <= a <= b <= c <= c_max representing every test value: (a, b, c)
    survives when folding the values of c into the (a, b) pair's sums sets
    every test value's bit, and ``represent`` then finds a witness for each."""
    if any(n < 0 for n in test_values):  # no triple has a negative value
        return []
    width = max(test_values, default=0) + 1
    need = _bits(test_values, width)
    values = [[]] + [_term_values(a, 1, width - 1) for a in range(1, c_max + 1)]
    kept = []
    for a in range(1, c_max + 1):
        for b in range(a, c_max + 1):
            pair = _or_shifts(_bits(values[a], width), values[b], width)
            missing = need & ~pair  # nonzero x(cx+1) >= c - 1, so only c <= n + 1 fill the lowest missing test value n
            c_top = min(c_max, (missing & -missing).bit_length() or c_max)
            kept.extend((a, b, c) for c in range(b, c_top + 1) if _or_shifts(pair, values[c], width) & need == need)
    return [t for t in kept if all(represent(triple_poly(t), n) is not None for n in test_values)]


def filter_universal_quadruples(
    a_range: tuple[int, int] = (3, 13),
    n_limit: int = 1000,
) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d), a in a_range and 0 <= b <= c <= d <= a, with no
    counterexample n <= n_limit.

    Each (b, c) pair's sums are folded once, and (a, b, c, d) is kept when
    folding the values of d into them sets every bit of [0, n_limit]."""
    if n_limit < 0:
        raise ValueError("n_limit must be >= 0")
    if a_range[0] < 1:
        raise ValueError(f"a_range must start at a >= 1, got {a_range}")
    width = n_limit + 1
    full = (1 << width) - 1
    out = []
    for a in range(a_range[0], a_range[1] + 1):
        values = [_term_values(a, b, n_limit) for b in range(a + 1)]
        for b in range(a + 1):
            for c in range(b, a + 1):
                pair = _or_shifts(_bits(values[b], width), values[c], width)
                out.extend((a, b, c, d) for d in range(c, a + 1) if _or_shifts(pair, values[d], width) == full)
    return out


def reverify_quadruples(
    quads: list[tuple[int, int, int, int]],
    n_limit: int,
    workers: int = 1,
) -> list[tuple[int, int, int, int]]:
    """The subset of quads, in order, with no counterexample n <= n_limit:
    one exact sieve (``exceptional_set``) of [0, n_limit] per quadruple.
    It re-checks filter survivors at larger bounds, and is an engine
    independent of the filter's sumset."""
    return [q for q in quads if exceptional_set(quadruple_poly(q), n_limit, workers=workers).is_empty()]


def verify_conjectured_triples(
    limit: int,
    workers: int = 1,
) -> list[tuple[tuple[int, int, int], SieveReport]]:
    """Exceptional set up to limit for each conjectured triple.

    An empty set is evidence for the conjecture at this range, not a proof.
    """
    return [
        (t, exceptional_set(triple_poly(t), limit, workers=workers))
        for t in CONJECTURED_TRIPLES
    ]


@dataclass(frozen=True)
class EvenSquareScanReport:
    """For r in {6, 14}: all n <= limit with 20n+r not of the form
    5x^2 + 5y^2 + (2z)^2."""

    limit: int
    exceptions: dict[int, tuple[int, ...]]


def scan_5x2_5y2_4z2(limit: int, workers: int = 1) -> EvenSquareScanReport:
    """Scan 20n+r against 5x^2+5y^2+4z^2 for r in {6, 14}, n <= limit: one
    sieve of the form on each progression 20n+r, limit + 1 bits wide."""
    exceptions = {
        r: tuple(attainable(DiagonalForm((5, 5, 4)), limit, workers=workers, progression=(20, r)).missing())
        for r in (6, 14)
    }
    return EvenSquareScanReport(limit, exceptions)
