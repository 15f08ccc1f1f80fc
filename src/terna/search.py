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
  ``value_mask`` (a Python int used as a bit array).  ``value_mask`` and
  ``attainable`` sieve one progression (M, C): bit n says whether M*n + C
  is a value, in limit + 1 bits whatever M is; the default (1, 0) is the
  plain range.  Every input is first made one constrained diagonal form on
  one progression (``_constrained``): n is a value of a PolySum iff
  4*L*n + C' is a value of its reduction (``reduce``), so (M, C) becomes
  (4*L*M, 4*L*C + C'), and a DiagonalForm gets trivial classes.  Each
  variable's values c*w^2 over its class are enumerated with an early
  cutoff and bucketed by residue mod M, keeping the quotients.  Each
  residue pair of the two shorter lists is folded word-parallel into a
  quotient bitset B_s for the pair residue s, carry added, by OR-ing
  shifted copies of 2^17-bit pieces; B_s goes with the longest list's
  quotients v of residue C - s (mod M).  On (1, 0) there is one group
  (B, v), for a PolySum too: its values less their minima are multiples
  of 4L.  The v are then folded into their B smallest first, a batch at
  a time, counting the still-missing bits after each batch.  Once few
  are missing, folding stops: each missing bit k is tested against B's
  bytes for the remaining v, up to the first k - v in B.  Forms whose
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
from dataclasses import dataclass, field
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
    """The n in [offset, limit] with M*n + C a value of a form, for one
    progression (M, C), as bit n - offset of mask."""

    offset: int
    limit: int
    mask: int = field(repr=False)  # str() of an int over 4300 digits raises

    def missing(self) -> list[int]:
        """The n in [0, limit] not in the set, ascending."""
        present = self.mask >> -self.offset if self.offset <= 0 else self.mask << self.offset
        return _set_bits(~present & ((1 << (self.limit + 1)) - 1))


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
# A "slot" is the value multiset {c*w^2 : w in cl} of one variable of a
# constrained form, w running over its congruence class cl.  Slots carry
# their minimum so sums can be offset into a nonnegative bit range.


def _square_slot(c: int, cap: int, cl: CongruenceClass) -> list[int]:
    if cap < 0:
        return []
    # |w| from either the class or its negation; duplicates are harmless
    bound = isqrt(cap // c)
    return [c * w * w for r in {cl.residue, -cl.residue % cl.modulus} for w in range(r, bound + 1, cl.modulus)]


def _slots(cf: ConstrainedForm, limit: int) -> list[tuple[int, list[int]]]:
    """Per-variable (min value, values <= cap) with caps shrunk by the
    minima of the other slots."""
    mins = [c * cl.min_abs() ** 2 for c, cl in zip(cf.form.coeffs, cf.classes)]
    total_min = sum(mins)
    return [(m, _square_slot(c, limit - (total_min - m), cl)) for m, c, cl in zip(mins, cf.form.coeffs, cf.classes)]


def _constrained(form: Form, progression: tuple[int, int]) -> tuple[ConstrainedForm, int, int]:
    # (cf, M', C') with M*n + C a value of form iff M'*n + C' is a value of
    # cf: completing the square takes a PolySum value n to 4*L*n + C'
    M, C = progression
    if isinstance(form, PolySum):
        rd = reduce(form)
        return rd.constrained, 4 * rd.L * M, 4 * rd.L * C + rd.C
    if isinstance(form, DiagonalForm):
        return ConstrainedForm(form, (_UNCONSTRAINED,) * 3), M, C
    if isinstance(form, ConstrainedForm):
        return form, M, C
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
    # of _PIECE bits, or one piece as wide as a narrower bitset, are shifted
    # into double-width accumulators, so every temporary stays in cache and
    # small enough for the allocator's heap.
    # Folding 2 391 shifts over 10^7 bits takes 1.0-1.2 s this way; shifting
    # the whole bitset took 1.7-2.8 s, more than half of it in page faults
    # on freshly mapped memory (Python 3.11, glibc).
    piece = min(_PIECE, -(-width // 8) * 8) or 8
    size = piece // 8
    n = -(-width // piece)
    raw = memoryview(base.to_bytes(n * size, "little"))
    pieces = [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(n)]
    del raw
    acc = [0] * n
    for s in shifts:
        q, r = divmod(s, piece)
        for i in range(n - q):
            acc[i + q] |= pieces[i] << r
    del pieces
    # each block takes the spill of the one below it, then the top is cut
    low = (1 << piece) - 1
    for b in range(n - 1, 0, -1):
        acc[b] = (acc[b] | acc[b - 1] >> piece) & low
    if n:
        acc[0] &= low
        acc[-1] &= (1 << (width - (n - 1) * piece)) - 1
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in acc), "little")


def clamp_workers(requested: int, cpus: int, shifts: int) -> int:
    """Worker processes for folding `shifts` shifts: no more than asked
    for, one per CPU, and at least two shifts each."""
    return min(requested, cpus, shifts // 2)


def _chunks(seq: list[int], k: int) -> list[list[int]]:
    size = (len(seq) + k - 1) // k
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _fold(groups: list[tuple[int, list[int]]], width: int, workers: int) -> int:
    # OR of base << s over every group's shifts, each group's shifts cut
    # into one chunk per worker
    n = clamp_workers(workers, os.cpu_count() or 1, sum(len(shifts) for _, shifts in groups))
    parts = [(base, part) for base, shifts in groups if shifts for part in _chunks(shifts, max(n, 1))]
    acc = 0
    if n > 1:
        try:
            with ProcessPoolExecutor(max_workers=n) as pool:
                for r in pool.map(_or_shifts, *zip(*parts), [width] * len(parts)):
                    acc |= r
            return acc
        except (OSError, BrokenExecutor):
            # environments without working process pools fall back to the
            # same chunked computation in-process; OR is idempotent, so
            # what the pool merged already changes nothing
            pass
    for base, part in parts:
        acc |= _or_shifts(base, part, width)
    return acc


def _buckets(values: list[int], modulus: int) -> dict[int, list[int]]:
    # residue -> quotients, ascending when values are
    if modulus == 1:  # the plain sieve; the loop would cost 1.5-2% at 10^6
        return {0: values}
    out: dict[int, list[int]] = {}
    for v in values:
        q, r = divmod(v, modulus)
        out.setdefault(r, []).append(q)
    return out


def _levels(form: Form, limit: int, max_bits: int, progression: tuple[int, int]) -> tuple[int, int, list[tuple[int, list[int]]]]:
    """(offset, width, groups) for progression = (M, C): M*(k + offset) + C
    is a value of form iff bit k - s of base is set for some (base, shifts)
    in groups and shift s: the B_s and longest-slot quotients of the module
    docstring, over each slot's values less its minimum."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if progression[0] < 1:
        raise ValueError(f"progression modulus must be >= 1, got {progression[0]}")
    cf, M, C = _constrained(form, progression)
    slots = sorted(((m, sorted({v - m for v in vals})) for m, vals in _slots(cf, M * limit + C)), key=lambda s: len(s[1]))
    # with the minima taken out, the sums are M*k + dr over bits k >= 0
    dq, dr = divmod(C - sum(m for m, _ in slots), M)
    width = max(limit + dq + 1, 0)
    if width > max_bits:
        raise ResourceLimitError(f"sieve needs {width} bits, cap is {max_bits}")
    (_, short), (_, middle), (_, longest) = slots
    middles = _buckets(middle, M)
    pairs: dict[int, int] = {}
    for a, shifts in _buckets(short, M).items():
        for b, quotients in middles.items():
            carry, s = divmod(a + b, M)
            pairs[s] = pairs.get(s, 0) | _or_shifts(_bits(quotients, width), [q + carry for q in shifts], width)
    thirds = _buckets(longest, M)
    groups = []
    for s, base in sorted(pairs.items()):
        quotients = thirds.get((dr - s) % M)
        if quotients:
            carry = int(s > dr)
            groups.append((base, [q + carry for q in quotients]))
    return -dq, width, groups


def value_mask(
    form: Form, limit: int, workers: int = 1, max_bits: int = DEFAULT_MAX_BITS, progression: tuple[int, int] = (1, 0)
) -> tuple[int, int]:
    """(mask, offset): for progression = (M, C), M*n + C is a value of form
    iff bit n - offset of mask is set, n <= limit.  offset is the least n
    with M*n + C at least the form's smallest value; for the default
    (1, 0), that value itself: 0 for a diagonal form, the sum of the terms'
    minima (possibly negative) for a PolySum.  Once few bits are missing,
    the last fold level gives way to testing those few directly."""
    offset, width, groups = _levels(form, limit, max_bits, progression)
    acc = 0
    for done in range(_BATCH, _PROBE_SHIFTS + 1, _BATCH):
        for base, shifts in groups:
            acc |= _or_shifts(base, shifts[done - _BATCH : done], width)
        if (width - acc.bit_count()) * _BITS_PER_CANDIDATE <= width:
            keep = (1 << width) - 1
            unreached = _set_bits(keep ^ acc)
            for base, shifts in groups:
                unreached = _unreached(unreached, base, width, shifts[done:])
            return keep ^ _bits(unreached, width), offset
    return acc | _fold([(base, shifts[_PROBE_SHIFTS:]) for base, shifts in groups], width, workers), offset


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


def _dense_value_mask(form: Form, limit: int, workers: int = 1, progression: tuple[int, int] = (1, 0)) -> tuple[int, int]:
    # reference engine for the tests: value_mask with every shift folded
    offset, width, groups = _levels(form, limit, DEFAULT_MAX_BITS, progression)
    return _fold(groups, width, workers), offset


def attainable(
    form: Form, limit: int, workers: int = 1, max_bits: int = DEFAULT_MAX_BITS, progression: tuple[int, int] = (1, 0)
) -> ValueMask:
    """The n <= limit with M*n + C a value of form, as a ValueMask; the
    default progression (M, C) = (1, 0) gives the values up to limit."""
    mask, offset = value_mask(form, limit, workers=workers, max_bits=max_bits, progression=progression)
    return ValueMask(offset, limit, mask)


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
    t0 = time.perf_counter()
    exceptions = tuple(attainable(form, limit, workers=workers, max_bits=max_bits).missing())
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return SieveReport(form=str(form), limit=limit, exceptions=exceptions, elapsed_ms=elapsed_ms)
