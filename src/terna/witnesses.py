"""Constructive witness pipelines for the proven universal families.

For each proven triple (a, b, c), giving x(ax+1)+y(by+1)+z(cz+1), and
each proven quadruple (a, b, c, d), giving x(ax+b)+y(ay+c)+z(az+d),
``triple_witness`` / ``quadruple_witness`` produce an explicit integer
triple representing n.  method="search" scans the constrained space
directly; method="constructive" replays the published-style pipeline:
fetch an intermediate square decomposition of multiplier*n + constant
(deterministic search, or one of the lemma constructions) and massage it
by the clause's rotations and swaps into the shape of the clause
identity.  Each clause is one Recipe: its identity, its builder, which
returns that triple up to sign, and its reduction; one step shared by all
clauses then flips each slot into the congruence class that reduce()
assigns to it, re-checks the clause identity exactly, and lifts.

The paper's other universal sums are plain PolySums (LIOUVILLE_TRIPLES
through triple_poly, SMALL_QUADRUPLES through quadruple_poly, and
MIXED_SQUARE_SUMS); ``represent`` finds their witnesses.

A pipeline that breaks an invariant raises ConstructionError naming the
clause, n, the failing step and the builder's triple; such an error would
falsify the clause, so it must never trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    CongruenceClass,
    ConstrainedForm,
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
from .lemmas import _PRIME_TO_3, _is_square, _pair, rep_5x2_5y2_z2_odd, rep_x2_3y2_6z2, rep_x2_y2_2z2_coprime3
from .search import _UNCONSTRAINED, attainable, exceptional_set, represent, represent_constrained, represent_diag

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
    """One clause: its polynomial, the identity multiplier*n + constant =
    constrained target form, the pipeline outline, the builder of the
    target form's triple (up to sign) for n, and the polynomial's reduction,
    which the witness is lifted through."""

    id: str
    poly: PolySum
    multiplier: int
    constant: int
    target_form: ConstrainedForm
    steps: tuple[str, ...]
    build: Callable[[int], tuple[int, int, int]]
    reduction: ReductionData


def _cf(coeffs, classes) -> ConstrainedForm:
    return ConstrainedForm(DiagonalForm(coeffs), tuple(CongruenceClass(m, r) for m, r in classes))


def _need(cond: bool, step: str, detail: str = ""):
    if not cond:
        raise ConstructionError(step, detail)


_ODD3 = _cf((1, 1, 1), ((2, 1), (2, 1), (2, 1)))
# clause b: v (parity 1 - delta, solved), u odd, w even, all prime to 3
_COPRIME3 = tuple(_cf((1, 1, 1), ((6, 1 + delta), (6, 1), (6, 2))) for delta in (0, 1))


def _three_squares_by_parity(t: int) -> tuple[int, int, int]:
    # the first decomposition, as (odd, odd, even) absolute values
    hit = represent_diag(DiagonalForm((1, 1, 1)), t)
    _need(hit is not None, "three-squares", f"{t} is not a sum of three squares")
    vals = [abs(w) for w in hit]
    odds, evens = [v for v in vals if v % 2], [v for v in vals if v % 2 == 0]
    _need(len(odds) == 2, "parity-pattern", f"{t} decomposition is not odd+odd+even")
    return odds[0], odds[1], evens[0]


# Each builder returns its clause's triple in slot order, up to sign.
def _build_i(n: int):
    t = 24 * n + 11
    hit = represent_constrained(_ODD3, t)
    _need(hit is not None, "three-odd-squares", f"{t} has no all-odd decomposition")
    u, v, w = (abs(x) for x in hit)
    ubar, vbar = (u + v) // 2, abs(u - v) // 2
    if ubar % 2:
        ubar, vbar = vbar, ubar
    _need(ubar % 2 == 0 and vbar % 2 == 1, "parity-split", f"halves of ({u},{v}) are not odd/even")
    if vbar % 3:
        r_, s_, t_ = w, ubar, vbar
    else:
        m = w * w + 2 * vbar * vbar
        _need(m % 3 == 0, "multiple-of-3", f"{m} should be divisible by 3")
        # m = s^2 + 2t^2 with 3 coprime to s*t; existence imported
        hit = _pair(1, _PRIME_TO_3, 2, _PRIME_TO_3, m)
        _need(hit is not None, "x2+2y2-coprime3", f"{m} admits no decomposition coprime to 3")
        s1, t1 = (abs(x) for x in hit)
        _need(s1 % 2 == 1 and t1 % 2 == 1, "rewrite-parity", f"({s1},{t1}) not both odd")
        r_, s_, t_ = s1, ubar, t1
    # m = 3r0^2 + 6s0^2, smallest r0 first
    m = r_ * r_ + 2 * s_ * s_
    hit = _pair(6, _UNCONSTRAINED, 3, _UNCONSTRAINED, m)
    _need(hit is not None, "3x2+6y2", f"{m} is not of the form 3x^2+6y^2")
    s0, r0 = hit
    return s0, r0, t_


def _build_ii(n: int):
    p, q, even = _three_squares_by_parity(32 * n + 14)
    half_a, half_b = (p + q) // 2, abs(p - q) // 2
    even_half, odd_half = (half_a, half_b) if half_a % 2 == 0 else (half_b, half_a)
    return even_half // 2, even // 2, odd_half


def _build_iii(n: int):
    t = 40 * n + 17
    hit = represent_diag(DiagonalForm((10, 5, 2)), t)
    _need(hit is not None, "dickson-form", f"{t} is not 10u^2+5v^2+2w^2")
    return tuple(abs(x) for x in hit)


def _build_iv(n: int):
    t = 16 * n + 5
    hit = represent_diag(DiagonalForm((4, 4, 1)), t)
    _need(hit is not None, "three-squares", f"{t} is not (2u)^2+(2v)^2+w^2")
    u, v, w = (abs(x) for x in hit)
    return u + v, u - v, w


def _build_v(n: int):
    u, v, w = rep_5x2_5y2_z2_odd(n, 6)
    return u + v, u - v, w


def _build_vi(n: int):
    t = 24 * n + 7
    hit = represent_diag(DiagonalForm((1, 1, 3)), t)
    _need(hit is not None, "dickson-form", f"{t} is not u^2+v^2+3w^2")
    u, v, w = (abs(x) for x in hit)
    _need((u - v) % 2 == 0, "uv-parity", f"({u},{v})")
    return w, (u + v) // 2, abs(u - v) // 2


def _build_vii(n: int):
    t = 48 * n + 13
    _need(not _is_square(t), "nonsquare-input", f"{t} is a perfect square")
    big_x, big_y, big_z = rep_x2_3y2_6z2((t - 1) // 6, 0)
    return big_z, big_x // 2, big_y


def _build_a(n: int):
    t = 12 * n + 5
    hit = represent_diag(DiagonalForm((1, 1, 36)), t)
    _need(hit is not None, "imported-form", f"{t} is not u^2+v^2+36x^2")
    u, v, x6 = (abs(w) for w in hit)
    odd_, even_ = (u, v) if u % 2 else (v, u)
    return 6 * x6, odd_, even_


def _build_b(n: int, delta: int):
    t = 12 * n + 6 + 3 * delta
    hit = represent_constrained(_COPRIME3[delta], t)
    _need(hit is not None, "three-squares-coprime3", f"{t} admits no suitable decomposition")
    v, u, w = (abs(x) for x in hit)
    return u, v, w


def _build_c(n: int):
    u, v, w = rep_x2_y2_2z2_coprime3(n + 1)
    p, q = u + v, u - v
    if p % 3 == 0:
        p, q = q, p
    return p, 2 * w, q


def _build_d(n: int):
    p, q, even = _three_squares_by_parity(16 * n + 14)
    first, third = (p, q) if p % 8 in (1, 7) else (q, p)
    return first, even, third


def _recipe(key: tuple, cid: str, multiplier: int, constant: int, coeffs, classes, build, steps) -> Recipe:
    poly = triple_poly(key) if len(key) == 3 else quadruple_poly(key)
    return Recipe(cid, poly, multiplier, constant, _cf(coeffs, classes), steps, build, reduce(poly))


# Clause table: key -> (id, multiplier, constant, coefficients, (modulus,
# residue) per slot, builder, pipeline outline).  The identities are
# restated here independently and checked against reduce() by the tests.
_RECIPES: dict[tuple, Recipe] = {
    key: _recipe(key, *clause)
    for key, clause in {
        (1, 2, 3): (
            "i", 24, 11, (6, 3, 2), ((2, 1), (4, 1), (6, 1)), _build_i,
            ("24n+11 = u^2+v^2+w^2 with u,v,w odd",
             "rotate to w^2 + 2*((u+v)/2)^2 + 2*((u-v)/2)^2",
             "if 3 divides the odd half, rewrite w^2+2v'^2 with coordinates coprime to 3",
             "rewrite r^2+2s^2 (a multiple of 3) as 3r0^2+6s0^2",
             "flip signs into classes and lift"),
        ),
        (1, 2, 4): (
            "ii", 16, 7, (4, 2, 1), ((2, 1), (4, 1), (8, 1)), _build_ii,
            ("32n+14 = odd^2+odd^2+even^2",
             "halve: 16n+7 = (2u)^2 + w^2 + 2v^2 with u,v,w odd",
             "flip signs into classes and lift"),
        ),
        (1, 2, 5): (
            "iii", 40, 17, (10, 5, 2), ((2, 1), (4, 1), (10, 1)), _build_iii,
            ("40n+17 = 10u^2+5v^2+2w^2 (u,v,w odd, w = ±1 mod 5 forced)",
             "flip signs into classes and lift"),
        ),
        (2, 2, 4): (
            "iv", 16, 5, (2, 2, 1), ((4, 1), (4, 1), (8, 1)), _build_iv,
            ("16n+5 = (2u)^2+(2v)^2+w^2 with w odd",
             "rotate to 2(u+v)^2 + 2(u-v)^2 + w^2",
             "flip signs into classes and lift"),
        ),
        (2, 2, 5): (
            "v", 40, 12, (5, 5, 2), ((4, 1), (4, 1), (10, 1)), _build_v,
            ("20n+6 = 5u^2+5v^2+w^2 with w odd (constructed)",
             "double and rotate: 40n+12 = 5(u+v)^2 + 5(u-v)^2 + 2w^2",
             "flip signs into classes and lift"),
        ),
        (2, 3, 3): (
            "vi", 24, 7, (3, 2, 2), ((4, 1), (6, 1), (6, 1)), _build_vi,
            ("24n+7 = u^2+v^2+3w^2",
             "rotate to 3w^2 + 2((u+v)/2)^2 + 2((u-v)/2)^2",
             "flip signs into classes and lift"),
        ),
        (2, 3, 4): (
            "vii", 48, 13, (6, 4, 3), ((4, 1), (6, 1), (8, 1)), _build_vii,
            ("48n+13 = X^2+3Y^2+6Z^2 with X even (constructed)",
             "read off 6u^2 + 4v^2 + 3w^2 with u,v,w odd",
             "flip signs into classes and lift"),
        ),
        (3, 0, 1, 2): (
            "a", 12, 5, (1, 1, 1), ((6, 0), (6, 1), (6, 2)), _build_a,
            ("12n+5 = u^2+v^2+36x^2 (u, v coprime to 3, opposite parity forced)",
             "flip signs into classes and lift"),
        ),
        (3, 1, 1, 2): (
            "b0", 12, 6, (1, 1, 1), ((6, 1), (6, 1), (6, 2)), lambda n: _build_b(n, 0),
            ("12n+6 = u^2+v^2+w^2 with 3 coprime to uvw, u odd, v odd, w even",
             "flip signs into classes and lift"),
        ),
        (3, 1, 2, 2): (
            "b1", 12, 9, (1, 1, 1), ((6, 1), (6, 2), (6, 2)), lambda n: _build_b(n, 1),
            ("12n+9 = u^2+v^2+w^2 with 3 coprime to uvw, u odd, v even, w even",
             "flip signs into classes and lift"),
        ),
        (3, 1, 2, 3): (
            "c", 12, 14, (1, 1, 1), ((6, 1), (6, 2), (6, 3)), _build_c,
            ("6n+7 = u^2+v^2+2w^2 with 3 coprime to uvw (constructed)",
             "rotate: 12n+14 = (u+v)^2 + (u-v)^2 + (2w)^2, exactly one of u±v divisible by 3",
             "flip signs into classes and lift"),
        ),
        (4, 1, 2, 3): (
            "d", 16, 14, (1, 1, 1), ((8, 1), (8, 2), (8, 3)), _build_d,
            ("16n+14 = u^2+v^2+w^2 with u,v odd, w even",
             "sort the odd squares by residue mod 16",
             "flip signs into classes and lift"),
        ),
    }.items()
}


def recipe(key: tuple) -> Recipe:
    """The Recipe for a proven triple or quadruple."""
    if key not in _RECIPES:
        raise ValueError(f"no constructive clause for {key}")
    return _RECIPES[key]


def all_recipes() -> list[Recipe]:
    return list(_RECIPES.values())


def _constructive(key: tuple, n: int) -> Witness:
    rec = _RECIPES[key]
    pre = None
    try:
        pre = rec.build(n)
        try:
            triple = [normalize_sign(w, cl.modulus, cl.residue) for w, cl in zip(pre, rec.target_form.classes)]
        except NoValidSignError as e:
            raise ConstructionError("sign", str(e)) from e
        target = rec.multiplier * n + rec.constant
        total = sum(c * w * w for c, w in zip(rec.target_form.form.coeffs, triple))
        _need(total == target, "clause-identity", f"{total} != {target}")
        wit = lift(rec.reduction, triple)
        _need(evaluate(rec.poly, wit) == n, "lift", f"witness {wit} does not evaluate to {n}")
    except ConstructionError as e:
        e.clause, e.n, e.pre = rec.id, n, pre
        raise
    return wit


def _witness(key: tuple, n: int, method: str) -> Witness:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method == "search":
        poly = _RECIPES[key].poly
        wit = represent(poly, n)
        if wit is None:
            raise ConstructionError("search", f"{poly} does not represent {n}")
        return wit
    if method == "constructive":
        return _constructive(key, n)
    raise ValueError(f"method must be 'constructive' or 'search', got {method!r}")


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
