"""Constructive witness pipelines for the proven universal families.

For each proven triple (a, b, c), giving x(ax+1)+y(by+1)+z(cz+1), and
each proven quadruple (a, b, c, d), giving x(ax+b)+y(ay+c)+z(az+d),
``triple_witness`` / ``quadruple_witness`` produce an explicit integer
triple representing n.  Each clause is one Recipe: its id, its builder,
and its reduction.  The reduction is the clause identity: reduce()
completes the square to M*n + C = a value of the constrained form, with
M = 4*lcm(ai), so the target t = M*n + C and the form are read off it.  Both
methods first get a triple of the form with value t, up to sign:
method="constructive" passes t to the clause's builder, which replays the
published-style pipeline (an intermediate square decomposition of t, by
deterministic search or a lemma construction, massaged by the clause's
rotations and swaps into the shape of the form); method="search" takes
the first hit of the scan of the form itself.  One step, shared by both
methods and all clauses, then flips each slot into the congruence class
that reduce() assigns to it, re-checks the clause identity exactly,
lifts, and evaluates the witness.

The paper's other universal sums are plain PolySums (LIOUVILLE_TRIPLES
through triple_poly, SMALL_QUADRUPLES through quadruple_poly, and
MIXED_SQUARE_SUMS); ``represent`` finds their witnesses.

Only a false imported claim or a broken engine can fail a step: a
builder's scan or lemma that finds nothing, x2+2y2-coprime3, 3x2+6y2,
sign, clause-identity or lift.  The step raises ConstructionError naming
the clause, n, the step and the triple it got; it must never trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    _UNCONSTRAINED,
    CongruenceClass,
    ConstructionError,
    DiagonalForm,
    NoValidSignError,
    PolySum,
    ReductionData,
    Witness,
    evaluate,
    lift,
    normalize_sign,
    reduce,
)
from .lemmas import _PRIME_TO_3, _pair, rep_5x2_5y2_z2_odd, rep_x2_3y2_6z2, rep_x2_y2_2z2_coprime3
from .search import attainable, exceptional_set, represent

represent_diag = represent_constrained = represent  # nothing calls these; perfbench/spans.py wraps them here

PROVEN_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 2, 5), (2, 2, 4), (2, 2, 5), (2, 3, 3), (2, 3, 4))
CONJECTURED_TRIPLES = ((2, 2, 6), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10))
LIOUVILLE_TRIPLES = ((1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 2, 3))
PROVEN_QUADRUPLES = ((3, 0, 1, 2), (3, 1, 1, 2), (3, 1, 2, 2), (3, 1, 2, 3), (4, 1, 2, 3))
SMALL_QUADRUPLES = ((1, 0, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1))

MIXED_SQUARE_SUMS = (PolySum.of((1, 0), (3, 1), (3, 2)), PolySum.of((1, 0), (4, 1), (4, 3)))


def triple_poly(triple: tuple[int, int, int]) -> PolySum:
    """x(ax+1) + y(by+1) + z(cz+1) for the triple (a, b, c)."""
    a, b, c = triple
    return PolySum.of((a, 1), (b, 1), (c, 1))


def quadruple_poly(quad: tuple[int, int, int, int]) -> PolySum:
    """x(ax+b) + y(ay+c) + z(az+d) for the quadruple (a, b, c, d)."""
    a, b, c, d = quad
    return PolySum.of((a, b), (a, c), (a, d))


@dataclass(frozen=True)
class Recipe:
    """One clause: its id, its builder, and the polynomial's reduction.
    The reduction is the clause identity M*n + C = a value of its
    constrained form, and the witness is lifted through it.  The builder
    maps the target t = M*n + C to a triple of the constrained form with
    value t, up to sign."""

    id: str
    build: Callable[[int], tuple[int, int, int]]
    reduction: ReductionData


def _cf(coeffs, classes) -> DiagonalForm:
    return DiagonalForm(coeffs, tuple(CongruenceClass(m, r) for m, r in classes))


def _need(cond: bool, step: str, detail: str = ""):
    if not cond:
        raise ConstructionError(step, detail)


def _scan(form: DiagonalForm, t: int, step: str, absent: str) -> tuple[int, ...]:
    # the first hit of the scan as absolute values; a miss fails the step
    # with "t absent", formatted only then
    hit = represent(form, t)
    if hit is None:
        raise ConstructionError(step, f"{t} {absent}")
    return tuple(map(abs, hit))


_ODD3 = _cf((1, 1, 1), ((2, 1), (2, 1), (2, 1)))
# clause b: v (parity 1 - delta, solved), u odd, w even, all prime to 3
_COPRIME3 = tuple(_cf((1, 1, 1), ((6, 1 + delta), (6, 1), (6, 2))) for delta in (0, 1))


def _three_squares_by_parity(t: int) -> tuple[int, int, int]:
    # the first decomposition, as (odd, odd, even) absolute values: t = 6
    # (mod 8) is a sum of three squares only as 1 + 1 + 4
    vals = _scan(DiagonalForm((1, 1, 1)), t, "three-squares", "is not a sum of three squares")
    return tuple(sorted(vals, key=lambda v: v % 2 == 0))


# Each builder maps its clause's target t to the clause's triple in slot
# order, up to sign.
def _build_i(t: int):
    u, v, w = _scan(_ODD3, t, "three-odd-squares", "has no all-odd decomposition")
    # the halves add up to the odd u, so one is even: it goes first
    ubar, vbar = (u + v) // 2, abs(u - v) // 2
    if ubar % 2:
        ubar, vbar = vbar, ubar
    if vbar % 3:
        r_, t_ = w, vbar
    else:
        # t = 2 (mod 3) makes 3 | w, so 3 | m, and m = 3 (mod 8) makes both
        # odd in m = s^2 + 2t^2 with 3 coprime to s*t; existence imported
        m = w * w + 2 * vbar * vbar
        hit = _pair(1, _PRIME_TO_3, 2, _PRIME_TO_3, m)
        _need(hit is not None, "x2+2y2-coprime3", f"{m} admits no decomposition coprime to 3")
        r_, t_ = map(abs, hit)
    # m = 3r0^2 + 6s0^2, smallest r0 first
    m = r_ * r_ + 2 * ubar * ubar
    hit = _pair(6, _UNCONSTRAINED, 3, _UNCONSTRAINED, m)
    _need(hit is not None, "3x2+6y2", f"{m} is not of the form 3x^2+6y^2")
    s0, r0 = hit
    return s0, r0, t_


def _build_ii(t: int):
    p, q, even = _three_squares_by_parity(2 * t)
    half_a, half_b = (p + q) // 2, abs(p - q) // 2
    even_half, odd_half = (half_a, half_b) if half_a % 2 == 0 else (half_b, half_a)
    return even_half // 2, even // 2, odd_half


def _build_iii(t: int):
    # every decomposition of 40n+17 has u, v, w odd and w = ±1 (mod 5), so
    # sign changes alone move it into the classes
    return _scan(DiagonalForm((10, 5, 2)), t, "dickson-form", "is not 10u^2+5v^2+2w^2")


def _build_iv(t: int):
    u, v, w = _scan(DiagonalForm((4, 4, 1)), t, "three-squares", "is not (2u)^2+(2v)^2+w^2")
    return u + v, u - v, w


def _build_v(t: int):
    # t/2 = 20n + 6
    u, v, w = rep_5x2_5y2_z2_odd(*divmod(t // 2, 20))
    return u + v, u - v, w


def _build_vi(t: int):
    # t = 7 (mod 8) makes u and v even
    u, v, w = _scan(DiagonalForm((1, 1, 3)), t, "dickson-form", "is not u^2+v^2+3w^2")
    return w, (u + v) // 2, abs(u - v) // 2


def _build_vii(t: int):
    # t = 13 (mod 16) is not a square, as the lemma requires
    big_x, big_y, big_z = rep_x2_3y2_6z2((t - 1) // 6, 0)
    # X even makes Z, X/2 and Y odd
    return big_z, big_x // 2, big_y


def _build_a(t: int):
    u, v, x6 = _scan(DiagonalForm((1, 1, 36)), t, "imported-form", "is not u^2+v^2+36x^2")
    # u and v are prime to 3 and of opposite parity
    odd_, even_ = (u, v) if u % 2 else (v, u)
    return 6 * x6, odd_, even_


def _build_b(t: int):
    # t = 12n + 6 + 3*delta, so delta is the parity of t
    v, u, w = _scan(_COPRIME3[t % 2], t, "three-squares-coprime3", "admits no suitable decomposition")
    return u, v, w


def _build_c(t: int):
    # t/2 = 6(n + 1) + 1
    u, v, w = rep_x2_y2_2z2_coprime3(t // 12)
    # exactly one of u ± v is divisible by 3
    p, q = (u + v, u - v) if (u + v) % 3 else (u - v, u + v)
    return p, 2 * w, q


def _build_d(t: int):
    p, q, even = _three_squares_by_parity(t)
    # p^2 = 1 (mod 16) iff p = ±1 (mod 8)
    first, third = (p, q) if p % 8 in (1, 7) else (q, p)
    return first, even, third


# Clause table: key -> (id, builder).  The key's reduction is the clause
# identity; the tests restate each identity.
_RECIPES: dict[tuple, Recipe] = {
    key: Recipe(cid, build, reduce(triple_poly(key) if len(key) == 3 else quadruple_poly(key)))
    for key, (cid, build) in {
        (1, 2, 3): ("i", _build_i),
        (1, 2, 4): ("ii", _build_ii),
        (1, 2, 5): ("iii", _build_iii),
        (2, 2, 4): ("iv", _build_iv),
        (2, 2, 5): ("v", _build_v),
        (2, 3, 3): ("vi", _build_vi),
        (2, 3, 4): ("vii", _build_vii),
        (3, 0, 1, 2): ("a", _build_a),
        (3, 1, 1, 2): ("b0", _build_b),
        (3, 1, 2, 2): ("b1", _build_b),
        (3, 1, 2, 3): ("c", _build_c),
        (4, 1, 2, 3): ("d", _build_d),
    }.items()
}


def recipe(key: tuple) -> Recipe:
    """The Recipe for a proven triple or quadruple."""
    if key not in _RECIPES:
        raise ValueError(f"no constructive clause for {key}")
    return _RECIPES[key]


def _witness(key: tuple, n: int, method: str) -> Witness:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method not in ("constructive", "search"):
        raise ValueError(f"method must be 'constructive' or 'search', got {method!r}")
    rec = _RECIPES[key]
    rd = rec.reduction
    form, target = rd.constrained, rd.M * n + rd.C
    pre = None
    try:
        # messages are formatted only on failure: formatting them on every
        # call is a measurable share of the time of a witness
        if method == "search":
            pre = represent(form, target)
            if pre is None:
                raise ConstructionError("search", f"{target} is not a value of {form}")
        else:
            pre = rec.build(target)
        try:
            triple = [normalize_sign(w, cl.modulus, cl.residue) for w, cl in zip(pre, form.classes)]
        except NoValidSignError as e:
            raise ConstructionError("sign", str(e)) from e
        total = sum(c * w * w for c, w in zip(form.coeffs, triple))
        if total != target:
            raise ConstructionError("clause-identity", f"{total} != {target}")
        wit = lift(rd, triple)
        if evaluate(rd.source, wit) != n:
            raise ConstructionError("lift", f"witness {wit} does not evaluate to {n}")
    except ConstructionError as e:
        e.clause, e.n, e.pre = rec.id, n, pre
        raise
    return wit


def triple_witness(triple: tuple[int, int, int], n: int, method: str = "constructive") -> Witness:
    """A verified witness of n for a proven universal triple."""
    if triple not in PROVEN_TRIPLES:
        raise ValueError(f"{triple} is not one of the proven triples {PROVEN_TRIPLES}")
    return _witness(triple, n, method)


def quadruple_witness(quad: tuple[int, int, int, int], n: int, method: str = "constructive") -> Witness:
    """A verified witness of n for a proven universal quadruple."""
    if quad not in PROVEN_QUADRUPLES:
        raise ValueError(f"{quad} is not one of the proven quadruples {PROVEN_QUADRUPLES}")
    return _witness(quad, n, method)


@dataclass(frozen=True)
class BridgeReport:
    """Per-n comparison of two representability questions that are claimed
    equivalent: n by x(2x+1)+y(3y+1)+z(7z+1) versus 168n+41 by
    21x^2+14y^2+6z^2 (unconstrained)."""

    limit: int
    mismatches: tuple[tuple[int, bool, bool], ...]
    poly_exceptions: tuple[int, ...]
    diagonal_failures: tuple[int, ...]

    def agrees(self) -> bool:
        return not self.mismatches


def diagonal_bridge(limit: int, workers: int = 1) -> BridgeReport:
    """Compare the two sides for every n <= limit (expected: no mismatch).
    The right side sieves 21x^2+14y^2+6z^2 on the progression 168n+41
    alone, with x, y, z unconstrained: the classes that reduce() would
    derive are not used, so the two sides stay independent."""
    poly = triple_poly((2, 3, 7))
    lhs_missing = frozenset(exceptional_set(poly, limit, workers=workers).exceptions)
    rhs_failures = tuple(attainable(DiagonalForm((21, 14, 6)), limit, workers=workers, progression=(168, 41)).missing())
    rhs_missing = frozenset(rhs_failures)
    mismatches = tuple(
        (n, n not in lhs_missing, n not in rhs_missing)
        for n in sorted(lhs_missing ^ rhs_missing)
    )
    return BridgeReport(limit, mismatches, tuple(sorted(lhs_missing)), rhs_failures)
