"""Independent brute-force oracles for the test suite.

Everything here enumerates an integer box directly from the polynomial
definition, without reusing the library's reduction, class iteration, or
bit-array machinery, so agreement between the two paths is meaningful.
"""

from __future__ import annotations

from math import isqrt


def term_range(a: int, b: int, n: int) -> tuple[int, int]:
    # all x with x*(a*x+b) <= n lie in [x_lo, x_hi]
    s = isqrt(b * b + 4 * a * max(n, 0))
    return (-b - s) // (2 * a) - 1, (-b + s) // (2 * a) + 1


def term_min(a: int, b: int) -> int:
    # the smallest x*(a*x+b) over the integers: x next to -b/(2a)
    q = -(b // (2 * a))
    return min(q0 * (a * q0 + b) for q0 in (q - 1, q, q + 1))


def box(pairs, n: int) -> list[tuple[int, int]]:
    # per variable, the x range that can reach n: its term is at most n
    # minus the other two terms' minima, which are <= 0
    mins = [term_min(a, b) for a, b in pairs]
    return [term_range(a, b, n - (sum(mins) - mins[i])) for i, (a, b) in enumerate(pairs)]


def naive_represent(pairs, n: int):
    """First (x, y, z) in box order with sum of terms n, else None."""
    (a1, b1), (a2, b2), (a3, b3) = pairs
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = box(pairs, n)
    for x in range(x_lo, x_hi + 1):
        vx = x * (a1 * x + b1)
        for y in range(y_lo, y_hi + 1):
            vxy = vx + y * (a2 * y + b2)
            for z in range(z_lo, z_hi + 1):
                if vxy + z * (a3 * z + b3) == n:
                    return (x, y, z)
    return None


def naive_all_witnesses(pairs, n: int) -> set[tuple[int, int, int]]:
    """Every (x, y, z) in the box with term sum n."""
    (a1, b1), (a2, b2), (a3, b3) = pairs
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = box(pairs, n)
    out = set()
    for x in range(x_lo, x_hi + 1):
        vx = x * (a1 * x + b1)
        for y in range(y_lo, y_hi + 1):
            vxy = vx + y * (a2 * y + b2)
            for z in range(z_lo, z_hi + 1):
                if vxy + z * (a3 * z + b3) == n:
                    out.add((x, y, z))
    return out


def naive_exceptions(pairs, limit: int) -> list[int]:
    """E(f) up to limit by the literal triple loop with early cutoffs."""
    (a1, b1), (a2, b2), (a3, b3) = pairs
    mins = [term_min(a, b) for a, b in pairs]
    reach = bytearray(limit + 1)
    x_lo, x_hi = term_range(a1, b1, limit - mins[1] - mins[2])
    for x in range(x_lo, x_hi + 1):
        vx = x * (a1 * x + b1)
        if vx > limit - mins[1] - mins[2]:
            continue
        y_lo, y_hi = term_range(a2, b2, limit - vx - mins[2])
        for y in range(y_lo, y_hi + 1):
            vxy = vx + y * (a2 * y + b2)
            if vxy > limit - mins[2]:
                continue
            z_lo, z_hi = term_range(a3, b3, limit - vxy)
            for z in range(z_lo, z_hi + 1):
                v = vxy + z * (a3 * z + b3)
                if 0 <= v <= limit:
                    reach[v] = 1
    return [n for n in range(limit + 1) if not reach[n]]


def naive_diag_exceptions(coeffs, limit: int) -> list[int]:
    c1, c2, c3 = coeffs
    reach = bytearray(limit + 1)
    for x in range(isqrt(limit // c1) + 1):
        vx = c1 * x * x
        for y in range(isqrt((limit - vx) // c2) + 1):
            vxy = vx + c2 * y * y
            for z in range(isqrt((limit - vxy) // c3) + 1):
                reach[vxy + c3 * z * z] = 1
    return [n for n in range(limit + 1) if not reach[n]]


def class_members(modulus: int, residue: int, bound: int):
    """Members w of the class residue (mod modulus) with |w| <= bound: 0
    first when it belongs to the class, then positive members ascending
    interleaved with negative members descending.  This is the order of
    the library's scan, which walks a sign-symmetric class over w >= 0
    only and replays each hit at -w."""
    if residue == 0:
        if bound >= 0:
            yield 0
        w = modulus
        while w <= bound:
            yield w
            yield -w
            w += modulus
        return
    pos = residue
    neg = residue - modulus
    while pos <= bound or -neg <= bound:
        if pos <= bound:
            yield pos
        if -neg <= bound:
            yield neg
        pos += modulus
        neg -= modulus


def naive_class_values(coeffs, classes, cap: int) -> bytearray:
    """reach[v] = 1 for each v <= cap that is c1*w1^2 + c2*w2^2 + c3*w3^2
    with each wi = ri (mod mi), classes given as (mi, ri) pairs."""
    reach = bytearray(cap + 1)
    # a value depends on |w| alone, so keep each |w| that w or -w brings
    ws = [
        [w for w in range(isqrt(cap // c) + 1) if w % m == r or -w % m == r]
        for c, (m, r) in zip(coeffs, classes)
    ]
    (c1, c2, c3), (ws1, ws2, ws3) = coeffs, ws
    for w1 in ws1:
        v1 = c1 * w1 * w1
        for w2 in ws2:
            v12 = v1 + c2 * w2 * w2
            if v12 > cap:
                break
            for w3 in ws3:
                v = v12 + c3 * w3 * w3
                if v > cap:
                    break
                reach[v] = 1
    return reach


def two_square_reps(m: int, c1: int = 1, c2: int = 1) -> set[tuple[int, int]]:
    """All (u, v) with u, v >= 0 and c1*u^2 + c2*v^2 = m."""
    out = set()
    for u in range(isqrt(m // c1) + 1):
        rest = m - c1 * u * u
        if rest % c2 == 0:
            v = isqrt(rest // c2)
            if c2 * v * v == rest:
                out.add((u, v))
    return out


def three_square_reps(m: int, coeffs=(1, 1, 1)) -> set[tuple[int, int, int]]:
    """All (u, v, w) with u, v, w >= 0 and weighted square sum m."""
    c1, c2, c3 = coeffs
    out = set()
    for u in range(isqrt(m // c1) + 1):
        rest1 = m - c1 * u * u
        for v in range(isqrt(rest1 // c2) + 1):
            rest = rest1 - c2 * v * v
            if rest % c3 == 0:
                w = isqrt(rest // c3)
                if c3 * w * w == rest:
                    out.add((u, v, w))
    return out


def gauss_legendre_excluded(n: int) -> bool:
    """n of the shape 4^k*(8l+7)."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 == 7


def shifted_values_mask(terms, cap: int) -> tuple[int, int]:
    """(mask, offset): bit v - offset of mask is set iff v <= cap is a sum
    of one value of each term, offset being the sum of the terms' minima.
    A term is (a, b) for x*(a*x+b) over every integer x, or (c, m, r) for
    c*w^2 over every w = r (mod m).  The first two terms' value sums, less
    their minima, are the bits of one int, and the mask is its OR over the
    third term's values v of that whole int shifted by v less its minimum."""

    def least(term) -> int:
        if len(term) == 2:
            return term_min(*term)
        c, m, r = term
        return c * min(w * w for w in range(-m, m + 1) if (w - r) % m == 0)

    def values(term, top: int) -> set[int]:
        if len(term) == 2:
            a, b = term
            lo, hi = term_range(a, b, top)
            return {x * (a * x + b) for x in range(lo, hi + 1) if x * (a * x + b) <= top}
        c, m, r = term
        bound = isqrt(max(top, 0) // c)
        return {c * w * w for w in range(-bound, bound + 1) if (w - r) % m == 0}

    mins = [least(t) for t in terms]
    offset = sum(mins)
    # each term's values up to cap less the other terms' minima
    v1, v2, v3 = (values(t, cap - offset + m) for t, m in zip(terms, mins))
    width = max(cap - offset + 1, 0)
    # the pair sums as a string of binary digits, bit 0 last
    digits = bytearray(b"0" * (width + 1))
    for s in {x - mins[0] + y - mins[1] for x in v1 for y in v2}:
        if s < width:
            digits[-1 - s] = ord("1")
    pairs = int(digits, 2)
    mask = 0
    for z in v3:
        mask |= pairs << z - mins[2]
    return mask & (1 << width) - 1, offset


# The twelve clause identities of the proven triples (i-vii) and quadruples
# (a-d), stated here rather than derived: key -> (multiplier, constant,
# coefficients, (modulus, residue) per slot), for
# multiplier*n + constant = sum of coefficient*w^2 with each w in its class.
CLAUSE_IDENTITIES = {
    (1, 2, 3): (24, 11, (6, 3, 2), ((2, 1), (4, 1), (6, 1))),  # i
    (1, 2, 4): (16, 7, (4, 2, 1), ((2, 1), (4, 1), (8, 1))),  # ii
    (1, 2, 5): (40, 17, (10, 5, 2), ((2, 1), (4, 1), (10, 1))),  # iii
    (2, 2, 4): (16, 5, (2, 2, 1), ((4, 1), (4, 1), (8, 1))),  # iv
    (2, 2, 5): (40, 12, (5, 5, 2), ((4, 1), (4, 1), (10, 1))),  # v
    (2, 3, 3): (24, 7, (3, 2, 2), ((4, 1), (6, 1), (6, 1))),  # vi
    (2, 3, 4): (48, 13, (6, 4, 3), ((4, 1), (6, 1), (8, 1))),  # vii
    (3, 0, 1, 2): (12, 5, (1, 1, 1), ((6, 0), (6, 1), (6, 2))),  # a
    (3, 1, 1, 2): (12, 6, (1, 1, 1), ((6, 1), (6, 1), (6, 2))),  # b0
    (3, 1, 2, 2): (12, 9, (1, 1, 1), ((6, 1), (6, 2), (6, 2))),  # b1
    (3, 1, 2, 3): (12, 14, (1, 1, 1), ((6, 1), (6, 2), (6, 3))),  # c
    (4, 1, 2, 3): (16, 14, (1, 1, 1), ((8, 1), (8, 2), (8, 3))),  # d
}
