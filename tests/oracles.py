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
