"""Finite coefficient searches and range scans.

``filter_universal_triples`` reproduces the candidate list for
x(ax+1)+y(by+1)+z(cz+1): it keeps every 1 <= a <= b <= c <= c_max whose
polynomial represents each value in a small counterexample test set.
Membership tests go through ``represent`` and its complete search bound,
so a failure at some n is definitive, not heuristic.  The coefficient
space is unbounded in c; c_max defaults to 50, far past where the test
values already cut the survivors down, so stability of the list is part
of what the scan demonstrates.

``filter_universal_quadruples`` does the analogue for x(ax+b)+y(ay+c)+
z(az+d) with 0 <= b <= c <= d <= a, keeping quadruples with no
counterexample n <= n_limit.

``verify_conjectured_triples`` and ``scan_5x2_5y2_4z2`` are pure range
scans with no filtering: they report exceptional sets that are expected
(but not proven) to be empty or tiny.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import DiagonalForm
from .search import SieveReport, attainable, exceptional_set, represent
from .witnesses import CONJECTURED_TRIPLES, quadruple_poly, triple_poly

#: counterexample values that already pin the triple list down
DEFAULT_TEST_VALUES = (1, 2, 4, 5, 9, 48)


def filter_universal_triples(
    c_max: int = 50,
    test_values: tuple[int, ...] = DEFAULT_TEST_VALUES,
) -> list[tuple[int, int, int]]:
    """All 1 <= a <= b <= c <= c_max representing every test value."""
    tests = sorted(test_values)
    out = []
    for a in range(1, c_max + 1):
        for b in range(a, c_max + 1):
            for c in range(b, c_max + 1):
                poly = triple_poly((a, b, c))
                if all(represent(poly, n) is not None for n in tests):
                    out.append((a, b, c))
    # with 1 representable, a nonzero term must contribute a - 1 <= 1
    assert all(t[0] <= 2 for t in out), "a survivor has a > 2"
    return out


def filter_universal_quadruples(
    a_range: tuple[int, int] = (3, 13),
    n_limit: int = 1000,
) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d), a in a_range and 0 <= b <= c <= d <= a, with no
    counterexample n <= n_limit."""
    a_lo, a_hi = a_range
    out = []
    for a in range(a_lo, a_hi + 1):
        for b in range(0, a + 1):
            for c in range(b, a + 1):
                for d in range(c, a + 1):
                    poly = quadruple_poly((a, b, c, d))
                    if all(represent(poly, n) is not None for n in range(n_limit + 1)):
                        out.append((a, b, c, d))
    return out


def reverify_quadruples(
    quads: list[tuple[int, int, int, int]],
    n_limit: int,
    workers: int = 1,
) -> list[tuple[int, int, int, int]]:
    """The subset of quads still without counterexample up to n_limit
    (sieve-backed; used to re-check filter survivors at larger bounds)."""
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
    elapsed_ms: int


def scan_5x2_5y2_4z2(limit: int, workers: int = 1) -> EvenSquareScanReport:
    """Scan 20n+r against 5x^2+5y^2+4z^2 for r in {6, 14}, n <= limit: one
    sieve of the form on each progression 20n+r, limit + 1 bits wide."""
    t0 = time.perf_counter()
    exceptions = {
        r: tuple(attainable(DiagonalForm((5, 5, 4)), limit, workers=workers, progression=(20, r)).missing())
        for r in (6, 14)
    }
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return EvenSquareScanReport(limit, exceptions, elapsed_ms)
