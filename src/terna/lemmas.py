"""Constructive decompositions used by the witness pipelines.

Each function either follows an explicit descent/rewrite procedure
(``five_descent``, ``rep_5x2_5y2_z2_odd``) or is a deterministic
exhaustive search for a decomposition whose existence is imported as a
numerically verified fact (the ``rep_*`` searchers).  Every search is one
call into the search engine (``search.represent``), with each
constraint held up to sign by a single residue class: the |w| of the
members of 3k+1 are the integers prime to 3 in ascending order, those of
6k+1 the odd ones among them, those of 6k+2 the even ones.  A search over
two coefficients gets a third coefficient m + 1, which holds the third
coordinate at 0.  Searches raise ConstructionError when they exhaust
their complete range, since that would falsify the underlying claim; it
must never happen on valid input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .core import (
    _UNCONSTRAINED,
    CongruenceClass,
    ConstructionError,
    DiagonalForm,
    NotRepresentableError,
    PreconditionError,
    TernaError,
)
from .search import _every, _set_bits, represent, value_mask

_ODD = CongruenceClass(2, 1)
# the |w| of its members run through the integers prime to 3, ascending
_PRIME_TO_3 = CongruenceClass(3, 1)
# x^2 + y^2 + 2z^2 with none of x, y, z divisible by 3
_COPRIME3_112 = DiagonalForm((1, 1, 2), (_PRIME_TO_3,) * 3)
# 3y^2 + 6z^2 + x^2 with x of parity 0 and of parity 1
_X_PARITY_361 = tuple(DiagonalForm((3, 6, 1), (_UNCONSTRAINED, _UNCONSTRAINED, CongruenceClass(2, p))) for p in (0, 1))


class NoOddRepresentationError(TernaError):
    """w is a value of x^2+2y^2, but admits no decomposition with both
    coordinates odd.  Raised instead of guessing a repaired hypothesis;
    see anomalies_x2_2y2 for the systematic scan."""


def _is_square(m: int) -> bool:
    # every caller passes m >= 0
    return isqrt(m) ** 2 == m


@dataclass(frozen=True)
class DescentStep:
    before: tuple[int, int]
    signs: tuple[int, int]
    after: tuple[int, int]


@dataclass(frozen=True)
class DescentTrace:
    initial_order: int
    steps: tuple[DescentStep, ...]


def five_descent(u: int, v: int) -> tuple[tuple[int, int], DescentTrace]:
    """Rewrite u^2 + v^2 (a positive multiple of 5) as x^2 + y^2 with 5 | xy ruled out.

    Strips the common 5-power a of (u, v), then applies a times the rotation
    (u', v') -> (3u'+4v', 4u'-3v'), each of which multiplies the square sum
    by 25.  The signs are (+,+), or (+,-) when u' = 2v' (mod 5), so that
    u' != 2v' (mod 5) after them; both would fail only if 5 | u' and 5 | v',
    which the stripping rules out and each rotation keeps out (its new v'
    is -(u' - 2v') mod 5).
    """
    total = u * u + v * v
    if total == 0 or total % 5:
        raise PreconditionError(f"{u}^2 + {v}^2 = {total} is not a positive multiple of 5")
    a = 0
    g = gcd(u, v)
    while g % 5 == 0:
        g //= 5
        a += 1
    u0, v0 = u // 5**a, v // 5**a
    steps = []
    for _ in range(a):
        e = -1 if (u0 - 2 * v0) % 5 == 0 else 1
        u1, v1 = 3 * u0 + 4 * e * v0, 4 * u0 - 3 * e * v0
        steps.append(DescentStep((u0, v0), (1, e), (u1, v1)))
        u0, v0 = u1, v1
    if u0 * u0 + v0 * v0 != total or u0 * v0 % 5 == 0:
        raise ConstructionError("descent-exit", f"({u0}, {v0}) invalid for {total}")
    return (u0, v0), DescentTrace(a, tuple(steps))


def _pair(c1: int, k1: CongruenceClass, c2: int, k2: CongruenceClass, m: int) -> tuple[int, int] | None:
    # first (w1, w2) with c1*w1^2 + c2*w2^2 = m, m >= 0, in search order:
    # w2 through its class, w1 solved; a third coefficient m + 1 holds the
    # third coordinate at 0
    hit = represent(DiagonalForm((c1, c2, m + 1), (k1, k2, _UNCONSTRAINED)), m)
    return None if hit is None else hit[:2]


def _pair_mask(c1: int, k1: CongruenceClass, c2: int, k2: CongruenceClass, limit: int) -> int:
    # bit v set iff v = c1*w1^2 + c2*w2^2 <= limit over the classes, as in
    # _pair
    return value_mask(DiagonalForm((c1, c2, limit + 1), (k1, k2, _UNCONSTRAINED)), limit)


def rep_5x2_5y2_z2_odd(n: int, r: int) -> tuple[int, int, int]:
    """(x, y, z) with 5x^2 + 5y^2 + z^2 = 20n + r and z odd, for r in {6, 14}.

    Proceeds through 20n+r = (2w)^2 + u^2 + v^2 (u, v odd; w searched
    descending from the largest possible value).  The z slot takes the odd
    square = r (mod 5): u or v when 5 does not divide u^2 + v^2, one of the
    pair five_descent makes of them otherwise (u when both qualify, which
    happens when (2w)^2 = -r (mod 5)).  The other square X^2 and (2w)^2 then
    sum to 0 (mod 5), so P = +-X makes P = 2(2w) (mod 5), and
    x = (P - 2(2w))/5, y = (2P + 2w)/5.
    """
    if r not in (6, 14):
        raise PreconditionError(f"r must be 6 or 14, got {r}")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    t = 20 * n + r

    for w in range(isqrt(t // 4), -1, -1):
        pair = _pair(1, _ODD, 1, _ODD, t - 4 * w * w)
        if pair is not None:
            v, u = pair
            break
    else:
        raise ConstructionError("three-squares", f"no (2w)^2+odd^2+odd^2 decomposition of {t}")

    a, b = (u, v) if (u * u + v * v) % 5 else five_descent(u, v)[0]
    z, big_x = (a, b) if (a * a - r) % 5 == 0 else (b, a)
    if z % 2 == 0 or (z * z - r) % 5:
        raise ConstructionError("z-slot", f"z={z} not odd with z^2 = {r % 5} (mod 5)")

    q = 2 * w
    p = big_x if (big_x - 2 * q) % 5 == 0 else -big_x
    x, y = (p - 2 * q) // 5, (2 * p + q) // 5
    if 5 * x * x + 5 * y * y + z * z != t:
        raise ConstructionError("final-identity", f"5*{x}^2+5*{y}^2+{z}^2 != {t}")
    return x, y, z


def rep_x2_2y2_odd(w: int) -> tuple[int, int]:
    """(u, v) both odd with u^2 + 2v^2 = w, by exhaustive scan.

    Raises NotRepresentableError when w is not a value of x^2+2y^2 at
    all, and NoOddRepresentationError when it is representable but only
    with an even coordinate (observed e.g. at w = 9).
    """
    if w < 1:
        raise PreconditionError("w must be positive")
    hit = _pair(1, _ODD, 2, _ODD, w)
    if hit is not None:
        return hit
    if _pair(1, _UNCONSTRAINED, 2, _UNCONSTRAINED, w) is not None:
        raise NoOddRepresentationError(f"{w} = x^2+2y^2 has no decomposition with both coordinates odd")
    raise NotRepresentableError(f"{w} is not of the form x^2+2y^2")


def anomalies_x2_2y2(limit: int) -> list[int]:
    """All 1 <= w <= limit representable as x^2+2y^2 but with no odd-odd
    decomposition."""
    everything = _pair_mask(1, _UNCONSTRAINED, 2, _UNCONSTRAINED, limit)
    odd_only = _pair_mask(1, _ODD, 2, _ODD, limit)
    return _set_bits(everything & ~odd_only & ~1)


def check_3x2_6y2(w: int) -> tuple[bool, bool]:
    """(lhs, rhs) where lhs: w = 3x^2+6y^2 solvable; rhs: 3 | w and
    w = u^2+2v^2 solvable.  Both by exhaustive search."""
    if w < 0:
        raise PreconditionError("w must be nonnegative")
    lhs = _pair(3, _UNCONSTRAINED, 6, _UNCONSTRAINED, w) is not None
    rhs = w % 3 == 0 and _pair(1, _UNCONSTRAINED, 2, _UNCONSTRAINED, w) is not None
    return lhs, rhs


def scan_3x2_6y2(limit: int) -> list[int]:
    """All w <= limit where the two sides of check_3x2_6y2 disagree
    (expected empty), computed with value bitmasks."""
    lhs = _pair_mask(3, _UNCONSTRAINED, 6, _UNCONSTRAINED, limit)
    rhs = _pair_mask(1, _UNCONSTRAINED, 2, _UNCONSTRAINED, limit)
    # bits 0, 3, 6, ... up to limit, built after both masks checked the bit cap
    return _set_bits(lhs ^ (rhs & _every(0, 3, limit + 1)))


def rep_x2_3y2_6z2(n: int, parity: int) -> tuple[int, int, int]:
    """(x, y, z) with x^2 + 3y^2 + 6z^2 = 6n + 1 and x = parity (mod 2).

    Requires 6n+1 to be a non-square; the search runs x ascending through
    the requested parity class, then z ascending, solving y exactly.
    """
    if parity not in (0, 1):
        raise PreconditionError(f"parity must be 0 or 1, got {parity}")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    t = 6 * n + 1
    if _is_square(t):
        raise PreconditionError(f"{t} is a perfect square")
    hit = represent(_X_PARITY_361[parity], t)
    if hit is not None:
        y, z, x = hit
        return x, y, z
    raise ConstructionError("exhausted", f"no x^2+3y^2+6z^2 = {t} with x = {parity} (mod 2)")


def rep_x2_y2_2z2_coprime3(n: int) -> tuple[int, int, int]:
    """(x, y, z) with x^2 + y^2 + 2z^2 = 6n + 1 and none of x, y, z
    divisible by 3, for n >= 1.  The search runs z ascending, then y
    ascending (x descending), solving x exactly."""
    if n < 1:
        raise PreconditionError("n must be positive")
    t = 6 * n + 1
    hit = represent(_COPRIME3_112, t)
    if hit is not None:
        return tuple(abs(w) for w in hit)
    raise ConstructionError("exhausted", f"no x^2+y^2+2z^2 = {t} with 3 coprime to xyz")
