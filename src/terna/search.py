"""Representability search and exceptional-set sieves.

Two complementary engines:

* ``represent`` / ``represent_diag`` / ``represent_constrained`` answer a
  single query "is n a value?" by an exhaustive scan of the bounded
  coordinate space, so an empty answer is a proof of non-representability.
  One loop, ``_scan_all``, does every exhaustive search in the package,
  the lemma and witness searches included: it walks w3 and then w2 in
  ``class_members`` order and solves w1 by exact square root, yielding
  every hit lazily, so a first-hit query stops at its first hit.  A
  sign-symmetric class ((-r) % m == r: trivial, odd, residue 0) is walked
  over its members w >= 0 only, and each hit is replayed at -w where
  ``class_members`` would visit -w: right after +w at the w2 level, after
  the whole +w3 block at the w3 level.  The hit order is unchanged, and a
  first hit never needs the mirrored half.

* ``exceptional_set`` computes E(f) = {n <= N : n is not a value of f}
  for a whole range at once, from the attainable-value bitset built by
  ``value_mask`` (a Python int used as a bit array).  Each variable's
  values are enumerated with an early cutoff.  The two shorter value
  lists are folded word-parallel into the bitset B of their sums, by
  OR-ing shifted copies of 2^17-bit pieces.  The longest list is then
  folded into B smallest value first, a batch at a time, counting the
  still-missing bits after each batch.  Once few are missing, folding
  stops: each missing bit k is tested against B's bytes for the
  remaining values v, up to the first k - v in B.  Forms whose
  exceptional sets stay dense (Gauss, Dickson) finish the fold instead.
  The exceptions are then read off the complemented bitset, with zero
  bytes skipped at C speed.  Work is O(values enumerated) plus
  O(shifts * N/wordsize), far below one search per n.  A dense finish
  may split the remaining values into chunks for worker processes and
  merge their masks by bitwise OR, which is associative and
  commutative, so worker count never changes the result.

Enumeration cutoffs use math.isqrt throughout; no floating point.
"""

from __future__ import annotations

import os
import re
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Iterator, Optional, Union

from .core import (
    CongruenceClass,
    ConstrainedForm,
    DiagonalForm,
    PolySum,
    ResourceLimitError,
    Witness,
    lift,
    reduce,
)

Form = Union[PolySum, DiagonalForm, ConstrainedForm]

# 2**31 sieve bits = 256 MiB; overridable per call.
DEFAULT_MAX_BITS = 1 << 31

_UNCONSTRAINED = CongruenceClass(1, 0)


@dataclass(frozen=True)
class SieveReport:
    """Exceptional set of one form up to a limit."""

    form: str
    limit: int
    exceptions: tuple[int, ...]
    elapsed_ms: int

    def is_empty(self) -> bool:
        return not self.exceptions


@dataclass(frozen=True)
class ValueMask:
    """Attainable-value set of a form on [offset, limit], byte-packed for
    O(1) membership tests."""

    offset: int
    limit: int
    raw: bytes

    def __contains__(self, v: int) -> bool:
        k = v - self.offset
        if k < 0 or v > self.limit:
            return False
        return (self.raw[k >> 3] >> (k & 7)) & 1 == 1


def class_members(modulus: int, residue: int, bound: int) -> Iterator[int]:
    """Members w of the class residue (mod modulus) with |w| <= bound.

    Order: 0 first when it belongs to the class, then positive members
    ascending interleaved with negative members descending.
    """
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


def _scan_all(cf: ConstrainedForm, m: int) -> Iterator[tuple[int, int, int]]:
    # Every (w1, w2, w3) with c1*w1^2 + c2*w2^2 + c3*w3^2 == m >= 0, in the
    # scan order and with the sign mirroring the module docstring states.
    c1, c2, c3 = cf.form.coeffs
    k1, k2, k3 = cf.classes
    mirror2 = (-k2.residue) % k2.modulus == k2.residue
    mirror3 = (-k3.residue) % k3.modulus == k3.residue
    b3 = isqrt(m // c3)
    for w3 in range(k3.residue, b3 + 1, k3.modulus) if mirror3 else class_members(k3.modulus, k3.residue, b3):
        rem3 = m - c3 * w3 * w3
        b2 = isqrt(rem3 // c2)
        block = []
        for w2 in range(k2.residue, b2 + 1, k2.modulus) if mirror2 else class_members(k2.modulus, k2.residue, b2):
            rem = rem3 - c2 * w2 * w2
            if rem % c1:
                continue
            q = rem // c1
            r = isqrt(q)
            if r * r != q:
                continue
            for v in (w2, -w2) if mirror2 and w2 else (w2,):
                for w1 in (r, -r) if r else (0,):
                    if k1.contains(w1):
                        block.append((w1, v))
                        yield (w1, v, w3)
        if mirror3 and w3:
            for w1, w2 in block:
                yield (w1, w2, -w3)


def represent(p: PolySum, n: int) -> Optional[Witness]:
    """First witness of n under p in the deterministic scan order, or None.

    The scan covers every constrained triple with sum at most 4*L*n + C,
    which is exhaustive, so None is a proof that n is not represented.
    """
    if n < 0:
        return None
    rd = reduce(p)
    triple = next(_scan_all(rd.constrained, 4 * rd.L * n + rd.C), None)
    return None if triple is None else lift(rd, triple)


def represent_diag(f: DiagonalForm, m: int) -> Optional[tuple[int, int, int]]:
    """First unconstrained triple with sum of weighted squares m, or None."""
    return represent_constrained(ConstrainedForm(f, (_UNCONSTRAINED,) * 3), m)


def represent_constrained(cf: ConstrainedForm, m: int) -> Optional[tuple[int, int, int]]:
    """Like represent_diag with each coordinate held to its class."""
    if m < 0:
        return None
    return next(_scan_all(cf, m), None)


def represent_all(p: PolySum, n: int) -> list[Witness]:
    """Every witness of n under p, in scan order."""
    if n < 0:
        return []
    rd = reduce(p)
    return [lift(rd, t) for t in _scan_all(rd.constrained, 4 * rd.L * n + rd.C)]


def represent_diag_all(f: DiagonalForm, m: int) -> list[tuple[int, int, int]]:
    """Every triple representing m under f, in scan order."""
    if m < 0:
        return []
    return list(_scan_all(ConstrainedForm(f, (_UNCONSTRAINED,) * 3), m))


def count_representations(f: DiagonalForm, m: int) -> int:
    """Number of integer triples (signs and order distinct) representing m."""
    if m < 0:
        return 0
    return sum(1 for _ in _scan_all(ConstrainedForm(f, (_UNCONSTRAINED,) * 3), m))


# --- value slots -----------------------------------------------------------
#
# A "slot" is the value multiset of one variable: {term(x) : x in Z} for a
# PolySum term, {c*w^2 : w in Z} for a diagonal coefficient, or the same
# restricted to a congruence class.  Slots carry their minimum so sums can
# be offset into a nonnegative bit range (a parsed term with b > a can take
# negative values).


def _poly_slot(a: int, b: int, lo: int, cap: int) -> list[int]:
    if cap < lo:
        return []
    s = isqrt(b * b + 4 * a * max(cap, 0))
    x_lo = (-b - s) // (2 * a) - 1
    x_hi = (-b + s) // (2 * a) + 1
    out = []
    for x in range(x_lo, x_hi + 1):
        v = x * (a * x + b)
        if lo <= v <= cap:
            out.append(v)
    return out


def _square_slot(c: int, cap: int, cl: CongruenceClass = _UNCONSTRAINED) -> list[int]:
    if cap < 0:
        return []
    bound = isqrt(cap // c)
    if cl.modulus == 1:
        return [c * w * w for w in range(bound + 1)]
    # |w| from either the class or its negation; duplicates are harmless
    residues = {cl.residue, (-cl.residue) % cl.modulus}
    out = []
    for r in residues:
        w = r
        while w <= bound:
            out.append(c * w * w)
            w += cl.modulus
    return out


def _slots(form: Form, limit: int) -> list[tuple[int, list[int]]]:
    """Per-variable (min value, values <= cap) with caps shrunk by the
    minima of the other slots."""
    if isinstance(form, PolySum):
        mins = [t.min_value() for t in form.terms]
        total_min = sum(mins)
        return [
            (mins[i], _poly_slot(t.a, t.b, mins[i], limit - (total_min - mins[i])))
            for i, t in enumerate(form.terms)
        ]
    if isinstance(form, DiagonalForm):
        return [(0, _square_slot(c, limit)) for c in form.coeffs]
    if isinstance(form, ConstrainedForm):
        mins = [c * cl.min_abs() ** 2 for c, cl in zip(form.form.coeffs, form.classes)]
        total_min = sum(mins)
        return [
            (mins[i], _square_slot(c, limit - (total_min - mins[i]), cl))
            for i, (c, cl) in enumerate(zip(form.form.coeffs, form.classes))
        ]
    raise TypeError(f"cannot sieve {type(form).__name__}")


# Residual fold (value_mask): fold the longest slot's shifts in batches of
# _BATCH, and stop once missing * _BITS_PER_CANDIDATE <= width.  Testing
# one candidate against every remaining shift costs about as much as
# folding one shift over 2 000-5 600 bits: 0.13-0.22 us per test step
# against 7 us, 40 us and 0.38 ms per shift over 10^5, 10^6 and 10^7 bits
# (Python 3.11, 2-core x86-64 VM).  Within _PROBE_SHIFTS shifts every
# conjectured triple to 10^7 gets there, while the Gauss and Dickson forms
# still miss about one value in six: those finish the fold densely.
_BATCH = 16
_PROBE_SHIFTS = 64
_BITS_PER_CANDIDATE = 4096

_NONZERO_BYTE = re.compile(rb"[^\x00]")
_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


def _bits(positions: Iterable[int], width: int) -> int:
    raw = bytearray((width + 7) // 8)
    for k in positions:
        raw[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(raw, "little")


def _set_bits(x: int) -> list[int]:
    # positions of the set bits of x >= 0, ascending; zero bytes are
    # skipped by the regex engine
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return [8 * i + j for i in (m.start() for m in _NONZERO_BYTE.finditer(raw)) for j in _BYTE_BITS[raw[i]]]


# bits per piece of a fold: 16 KiB, with 32 KiB accumulators
_PIECE = 1 << 17


def _or_shifts(base: int, shifts: Iterable[int], width: int) -> int:
    # OR of base << s over the shifts s < width, cut to width bits.  Pieces
    # of _PIECE bits are shifted into double-width accumulators, so every
    # temporary stays in cache and small enough for the allocator's heap.
    # Folding 2 391 shifts over 10^7 bits takes 1.0-1.2 s this way; shifting
    # the whole bitset took 1.7-2.8 s, more than half of it in page faults
    # on freshly mapped memory (Python 3.11, glibc).
    size = _PIECE // 8
    n = -(-width // _PIECE)
    raw = memoryview(base.to_bytes(n * size, "little"))
    pieces = [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(n)]
    del raw
    acc = [0] * n
    for s in shifts:
        q, r = divmod(s, _PIECE)
        for i in range(n - q):
            acc[i + q] |= pieces[i] << r
    del pieces
    # each block takes the spill of the one below it, then the top is cut
    low = (1 << _PIECE) - 1
    for b in range(n - 1, 0, -1):
        acc[b] = (acc[b] | acc[b - 1] >> _PIECE) & low
    if n:
        acc[0] &= low
        acc[-1] &= (1 << (width - (n - 1) * _PIECE)) - 1
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in acc), "little")


def clamp_workers(requested: int, cpus: int, shifts: int) -> int:
    """Worker processes for folding `shifts` shifts: no more than asked
    for, one per CPU, and at least two shifts each."""
    return min(requested, cpus, shifts // 2)


def _chunks(seq: list[int], k: int) -> list[list[int]]:
    size = (len(seq) + k - 1) // k
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _fold(base: int, shifts: list[int], width: int, workers: int) -> int:
    n = clamp_workers(workers, os.cpu_count() or 1, len(shifts))
    if n <= 1:
        return _or_shifts(base, shifts, width)
    parts = _chunks(shifts, n)
    try:
        with ProcessPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(_or_shifts, [base] * len(parts), parts, [width] * len(parts)))
    except (OSError, BrokenExecutor):
        # environments without working process pools fall back to the
        # same chunked computation in-process; the merge is identical
        results = [_or_shifts(base, part, width) for part in parts]
    acc = 0
    for r in results:
        acc |= r
    return acc


def _levels(form: Form, limit: int, max_bits: int) -> tuple[int, int, int, list[int]]:
    """(offset, width, base, shifts): base is the bitset of sums over the
    two shorter slots, shifts the longest slot's values less its minimum,
    ascending.  Value v of form is attained iff bit v - offset - s of base
    is set for some shift s."""
    slots = sorted(((m, sorted({v - m for v in vals})) for m, vals in _slots(form, limit)), key=lambda s: len(s[1]))
    offset = sum(m for m, _ in slots)
    width = max(limit - offset + 1, 0)
    if width > max_bits:
        raise ResourceLimitError(f"sieve needs {width} bits, cap is {max_bits}")
    (_, short), (_, middle), (_, longest) = slots
    return offset, width, _or_shifts(_bits(middle, width), short, width), longest


def value_mask(form: Form, limit: int, workers: int = 1, max_bits: int = DEFAULT_MAX_BITS) -> tuple[int, int]:
    """Bitset of attainable values of form in [offset, limit].

    Returns (mask, offset): value v is attained iff bit (v - offset) of
    mask is set.  offset = sum of per-slot minima (0 for square slots,
    possibly negative for polynomial terms).  Once few values are missing,
    the last fold level gives way to testing those few directly.
    """
    offset, width, base, shifts = _levels(form, limit, max_bits)
    acc = 0
    for done in range(_BATCH, _PROBE_SHIFTS + 1, _BATCH):
        acc |= _or_shifts(base, shifts[done - _BATCH : done], width)
        if (width - acc.bit_count()) * _BITS_PER_CANDIDATE <= width:
            keep = (1 << width) - 1
            unreached = _unreached(_set_bits(keep ^ acc), base, width, shifts[done:])
            return keep ^ _bits(unreached, width), offset
    return acc | _fold(base, shifts[_PROBE_SHIFTS:], width, workers), offset


def _unreached(candidates: list[int], base: int, width: int, shifts: list[int]) -> list[int]:
    # the candidate bits k with no shift s (ascending) putting k - s in base
    raw = base.to_bytes((width + 7) // 8, "little")
    out = []
    for k in candidates:
        for s in shifts:
            if s > k:
                out.append(k)
                break
            j = k - s
            if raw[j >> 3] >> (j & 7) & 1:
                break
        else:
            out.append(k)
    return out


def _dense_value_mask(form: Form, limit: int, workers: int = 1, max_bits: int = DEFAULT_MAX_BITS) -> tuple[int, int]:
    # reference engine for the tests: value_mask with every shift folded
    offset, width, base, shifts = _levels(form, limit, max_bits)
    return _fold(base, shifts, width, workers), offset


def attainable(form: Form, limit: int, workers: int = 1, max_bits: int = DEFAULT_MAX_BITS) -> ValueMask:
    """The attainable-value set of form up to limit, as a ValueMask."""
    mask, offset = value_mask(form, limit, workers=workers, max_bits=max_bits)
    width = max(limit - offset + 1, 0)
    return ValueMask(offset, limit, mask.to_bytes((width + 7) // 8, "little"))


def _missing(mask: int, offset: int, limit: int) -> int:
    """Bitset of the n in [0, limit] whose bit n - offset of mask is clear."""
    values = mask >> -offset if offset <= 0 else mask << offset
    return ~values & ((1 << (limit + 1)) - 1)


def env_workers() -> Optional[int]:
    """The worker count TERNA_THREADS asks for, or None when it is unset or
    empty.  Raises ValueError when it is set to anything but an integer."""
    env = os.environ.get("TERNA_THREADS")
    if not env:
        return None
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"TERNA_THREADS must be an integer, got {env!r}") from None


def default_workers() -> int:
    """TERNA_THREADS, or the machine's parallelism when it is unset or
    invalid.  The CLI rejects an invalid value instead (env_workers)."""
    try:
        requested = env_workers()
    except ValueError:
        requested = None
    return requested or os.cpu_count() or 1


def exceptional_set(
    form: Form,
    limit: int,
    workers: int = 1,
    max_bits: int = DEFAULT_MAX_BITS,
) -> SieveReport:
    """All n in [0, limit] not attained by form, as a SieveReport.

    Deterministic regardless of workers; raises ResourceLimitError when the
    bit array would exceed max_bits.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    t0 = time.perf_counter()
    values = attainable(form, limit, workers=workers, max_bits=max_bits)
    exceptions = tuple(_set_bits(_missing(int.from_bytes(values.raw, "little"), values.offset, limit)))
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return SieveReport(form=str(form), limit=limit, exceptions=exceptions, elapsed_ms=elapsed_ms)


def binary_square_mask(
    c1: int,
    c2: int,
    limit: int,
    cls1: CongruenceClass = _UNCONSTRAINED,
    cls2: CongruenceClass = _UNCONSTRAINED,
) -> int:
    """Bitset of {c1*u^2 + c2*v^2 <= limit} with optional class constraints."""
    v1 = _square_slot(c1, limit, cls1)
    v2 = _square_slot(c2, limit, cls2)
    if len(v2) > len(v1):
        v1, v2 = v2, v1
    return _or_shifts(_bits(v1, limit + 1), set(v2), limit + 1)
