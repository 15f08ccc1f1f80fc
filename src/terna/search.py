"""Representability search and exceptional-set sieves.

Two complementary engines:

* ``represent`` and ``represent_all`` answer a single query "is n a
  value?" for any form by an exhaustive scan of the bounded coordinate
  space, so an empty answer is a proof of non-representability.  The form
  is first made one DiagonalForm on one progression, as for the sieve
  below (``_constrained``), and n is scanned at M*n + C, so a PolySum
  with a term x(ax+b), b > a, answers for negative n too; a PolySum's
  hits are lifted back to Witnesses, the others stay triples.  One loop,
  ``_scan_all``, does every exhaustive search in the package, the lemma
  and witness searches included: it walks w3 and then w2 and solves w1
  by exact square root, yielding every hit lazily, so a first-hit query
  stops at its first hit.  Both levels walk through ``_walk``: a class's
  members in the order 0 (when a member), then positives ascending
  interleaved with negatives descending.  A sign-symmetric class
  ((-r) % m == r: trivial, odd, residue 0) is walked over its members
  w >= 0 only, and each hit is replayed at -w where that order would
  visit -w: right after +w at the w2 level, after the whole +w3 block at
  the w3 level.  The hit order is unchanged, and a first hit never needs
  the mirrored half.

  Each w2 walk is ``compress``ed by flags in walk order: with t the
  row's remainder m - c3*w3^2 mod 144, the flag of w2 is 1 iff t -
  c2*w2^2 mod 144 is a residue of c1*w1^2, w1 in its class.  The flags
  repeat along the walk with period 144/gcd(modulus, 144) members each
  way, so they are built once per (slot, class, t) as bytes and
  ``cycle``d: a column ruled out costs no Python step, and a skipped w2
  holds no hit.  A row whose flags hold no 1 holds no hit either, and is
  skipped before its walk is built.  The w3 walk takes flags that are
  all 1.

* ``exceptional_set`` computes E(f) = {n <= N : n is not a value of f}
  for a whole range at once, from the attainable-value bitset built by
  ``value_mask`` (a Python int used as a bit array).  ``value_mask`` and
  ``attainable`` sieve one progression (M, C): bit n says whether M*n + C
  is a value, in limit + 1 bits whatever M is; the default (1, 0) is the
  plain range.  Every input is first made one DiagonalForm, with classes,
  on one progression (``_constrained``): n is a value of a PolySum iff
  M'*n + C' is a value of its reduction (``reduce``, M' = 4*lcm(ai)), so
  (M, C) becomes (M'*M, M'*C + C'); a DiagonalForm is taken as it is.  Each
  variable's values c*w^2 over its class are enumerated with an early
  cutoff and bucketed by residue mod M, keeping the quotients.  Each
  residue pair of the two shorter lists, short and middle, sums into a
  quotient bitset B_s for the pair residue s, carry added, which goes
  with the longest list's quotients v of residue C - s (mod M).  On
  (1, 0) there is one group (B, v), for a PolySum too: its values less
  their minima are multiples of M'.  Every sumset is an OR of shifted
  copies of 2^17-bit pieces of one operand, the one spanning fewer
  pieces per shift.

  A form's pair level starts as B_K, built from its first K short
  values only, and is folded with the first P v into a probe, P = 64 at
  first.  K starts at isqrt(width)/4 and is halved while the cost model
  of the pair fold says that B_K costs more than twice B_{K/2} plus the
  wider probe the halving plans for: only where the short values c*w^2
  spread B_K over many pieces, as (2,3,7) to 10^7 does, which starts at
  isqrt(width)/8.  The probe's missing bits decide what follows.  When
  at most one bit in 4096 is missing, folding stops: each missing bit k
  is tested against B_K's bytes for the v past P, up to the first k - v
  in B_K.  The bits still unreached are tested against the short values
  past K, with B cut to the largest of them, which makes the result
  exact: none is left for the conjectured triples to 10^6 or (2,3,7) to
  10^7, and 48 is the one for x(2x+1)+y(3y+1)+z(6z+1).  When more are
  missing, P doubles while every probe has shown a sparse form (at most
  one bit in 16 missing, and at most half as many after each P step):
  B_K is folded with the next P v.  Otherwise the form is dense (Gauss,
  Dickson: about one bit in six missing): the probe is dropped, B_K is
  completed to all of B with the short values past K, and all of B is
  folded with every v, the full fold.  That fold may be split into
  chunks for worker processes whose masks merge by bitwise OR, which is
  associative and commutative, so worker count never changes the result.
  The exceptions are then read off the bitset's clear bits at C speed: a
  few by a regex skip of zero bytes, many (Gauss, Dickson) by eight
  byte-table bit planes spread to one byte per bit and ``compress``.
  Work is O(values enumerated) plus O(shifts * N/wordsize), far below one
  search per n.

Enumeration cutoffs use math.isqrt throughout; no floating point.
"""

from __future__ import annotations

import os
import re
import time
from bisect import bisect_left
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, compress, cycle
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional, Union

from .core import (
    CongruenceClass,
    DiagonalForm,
    PolySum,
    ReductionData,
    ResourceLimitError,
    Witness,
    lift,
    reduce,
)

Form = Union[PolySum, DiagonalForm]

# The cap counts one bitset: 2**31 sieve bits = 256 MiB, for every sieve
# and survey.  A sieve's peak is several bitsets: the traced peak of
# (2,3,7) to 10^7 is 5.65 of them (perfbench search.peak_over_bitset,
# Python 3.11), in the P step of value_mask, which folds B_K beside the
# probe.
# Reading a dense set (_flags) adds one byte per bit, 8 bitsets, where the
# list of at least width/_DENSE_SHARE 40-byte positions is over 3 already.
DEFAULT_MAX_BITS = 1 << 31


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
        return _set_bits(self._absent())

    def missing_flags(self) -> bytearray:
        """Byte n is 1 iff n is not in the set, for 0 <= n <= limit."""
        return _flags(self._absent(), self.limit + 1)

    def _absent(self) -> int:
        present = self.mask >> -self.offset if self.offset <= 0 else self.mask << self.offset
        return present ^ ((1 << (self.limit + 1)) - 1)


# Modulus of _scan_all's residue test: 2^4 * 3^2, for the mod-8 and mod-9
# obstructions to sums of two squares.  The 12 clauses' witnesses,
# n <= 10^4 step 7, take 1.66 s untested (q = 1), 0.84 s at q = 24, 0.75 s
# at 48, 0.70 s at 144 and 0.91 s at 720; n = 10^6 ... 10^6+199 take 4.83,
# 1.73, 1.32, 0.90 and 0.77 s (medians of 7, interleaved; Python 3.11,
# 2-core x86-64 VM).
_Q = 144

# flags that admit every member, for a walk that skips none
_EVERY = b"\x01"


@cache
def _slot_residues(c: int, g: int, r: int) -> frozenset[int]:
    # c*w^2 mod _Q over w = r (mod g), for any class modulus of gcd g with _Q
    return frozenset(c * w * w % _Q for w in range(r, _Q, g))


def _slot_key(c: int, k: CongruenceClass) -> tuple[int, int, int]:
    g = gcd(k.modulus, _Q)
    return c % _Q, g, k.residue % g


def _walk(k: CongruenceClass, bound: int, flags: bytes) -> Iterator[int]:
    # the members w of k with |w| <= bound, w >= 0 only for a sign-symmetric
    # class, in the scan order, less each member whose flag is 0; flags hold
    # one byte per member in that order and repeat, so flags with no 0
    # (_EVERY) keep every member.  Positives and negatives alternate until
    # one range runs out, so a last positive comes in turn; a last negative
    # is left over, and its flag is 2p + 1 for p positives.
    m, r = k.modulus, k.residue
    pos = range(r, bound + 1, m)
    if (-r) % m == r:
        return compress(pos, cycle(flags))
    neg = iter(range(r - m, -bound - 1, -m))
    walk = compress(map(next, cycle((iter(pos), neg))), cycle(flags))
    return chain(walk, neg) if flags[(2 * len(pos) + 1) % len(flags)] else walk


@cache
def _column_flags(slot1: tuple[int, int, int], c2: int, m2: int, r2: int, mirror: bool, t: int) -> bytes:
    # byte j is 1 iff t - c2*w^2 mod _Q is a residue of slot 1, w the j-th
    # member of the walk of r2 (mod m2): r2 + m2*j for a sign-symmetric
    # class, else r2 + m2*i at byte 2i and r2 - m2*(i + 1) at byte 2i + 1,
    # over one period of _Q // gcd(m2, _Q) steps; c2, m2, r2 and t are taken
    # mod _Q, so the symmetry is a key of its own (150k+3 is not, 6k+3 is)
    admitted = _slot_residues(*slot1)
    steps = range(_Q // gcd(m2, _Q))
    members = [r2 + m2 * j for j in steps] if mirror else [w for j in steps for w in (r2 + m2 * j, r2 - m2 * (j + 1))]
    return bytes((t - c2 * w * w) % _Q in admitted for w in members)


def _scan_all(cf: DiagonalForm, m: int) -> Iterator[tuple[int, int, int]]:
    # Every (w1, w2, w3) with c1*w1^2 + c2*w2^2 + c3*w3^2 == m, in the scan
    # order and with the sign mirroring the module docstring states.
    if m < 0:
        return
    c1, c2, c3 = cf.coeffs
    k1, k2, k3 = cf.classes
    mirror2 = (-k2.residue) % k2.modulus == k2.residue
    mirror3 = (-k3.residue) % k3.modulus == k3.residue
    column = (_slot_key(c1, k1), c2 % _Q, k2.modulus % _Q, k2.residue % _Q, mirror2)
    for w3 in _walk(k3, isqrt(m // c3), _EVERY):
        rem3 = m - c3 * w3 * w3
        flags = _column_flags(*column, rem3 % _Q)
        if 1 not in flags:
            continue
        block = []
        for w2 in _walk(k2, isqrt(rem3 // c2), flags):
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


def represent(form: Form, n: int) -> Union[Witness, tuple[int, int, int], None]:
    """First hit of n under form in the deterministic scan order, or None:
    a Witness for a PolySum, a triple for a DiagonalForm.

    The scan covers every constrained triple with sum at most M*n + C, the
    image of n under ``_constrained``, which is exhaustive, so None is a
    proof that n is not represented.
    """
    return next(_hits(form, n), None)


def represent_all(form: Form, n: int) -> list:
    """Every hit of n under form, in scan order; its length is the number
    of representations (signs and order distinct)."""
    return list(_hits(form, n))


def _hits(form: Form, n: int) -> Iterator:
    cf, M, C, rd = _constrained(form, (1, 0))
    hits = _scan_all(cf, M * n + C)
    return hits if rd is None else (lift(rd, t) for t in hits)


# --- value slots -----------------------------------------------------------
#
# A "slot" is the value multiset {c*w^2 : w in cl} of one variable of a
# DiagonalForm, w running over its congruence class cl.  Slots carry
# their minimum so sums can be offset into a nonnegative bit range.


def _square_slot(c: int, cap: int, cl: CongruenceClass) -> list[int]:
    if cap < 0:
        return []
    # |w| from either the class or its negation; duplicates are harmless
    bound = isqrt(cap // c)
    return [c * w * w for r in {cl.residue, -cl.residue % cl.modulus} for w in range(r, bound + 1, cl.modulus)]


def _slots(cf: DiagonalForm, limit: int) -> list[tuple[int, list[int]]]:
    """Per-variable (min value, values <= cap) with caps shrunk by the
    minima of the other slots."""
    mins = [c * cl.min_abs() ** 2 for c, cl in zip(cf.coeffs, cf.classes)]
    total_min = sum(mins)
    return [(m, _square_slot(c, limit - (total_min - m), cl)) for m, c, cl in zip(mins, cf.coeffs, cf.classes)]


def _constrained(form: Form, progression: tuple[int, int]) -> tuple[DiagonalForm, int, int, Optional[ReductionData]]:
    # (cf, M', C', rd) with M*n + C a value of form iff M'*n + C' is a value
    # of cf: completing the square (rd, None for a DiagonalForm) takes a
    # PolySum value n to rd.M*n + rd.C
    M, C = progression
    if isinstance(form, DiagonalForm):
        return form, M, C, None
    if isinstance(form, PolySum):
        rd = reduce(form)
        return rd.constrained, rd.M * M, rd.M * C + rd.C, rd
    raise TypeError(f"not a form: {type(form).__name__}")


# Residual fold (value_mask): the probe folds B_K with the first P
# longest-slot shifts, P = _PROBE_SHIFTS at first, and folding stops once
# missing * _BITS_PER_CANDIDATE <= width.  Testing one candidate against
# every remaining shift costs about as much as folding one shift over
# 2 000-5 600 bits: 0.13-0.22 us per test step against 7 us, 40 us and
# 0.38 ms per shift over 10^5, 10^6 and 10^7 bits (Python 3.11, 2-core
# x86-64 VM).
# P doubles while every probe shows a sparse form: at most one bit in
# _SPARSE_SHARE missing, and _SPARSE_DROP times fewer after each P step.
# Bits missing at P = 64 and 128 from K = isqrt(width)/8, and at P = 64
# from /4: (2,3,7) to 10^7 43 690, 786 and 871; to 10^6 3 718, 61 and 68;
# x(x+1)+y(2y+1)+z(4z+1) to 10^6 14 981, 1 112 and 932 (11 from /4 at 128);
# x^2+y^2+z^2 to 10^6 193 024, 179 841 and 170 903; 10x^2+5y^2+2z^2
# 509 159, 494 081 and 493 992.  A sparse form misses at most one bit in
# 67 and loses 13-85x of them when P doubles; Gauss and Dickson miss one
# in six or more and never grow P.  x^2+y^2+11z^2 misses one value in 23:
# its 52 523 missing bits from /4 fall to 44 523 at P = 128, and all of B
# is folded.
_PROBE_SHIFTS = 64
_BITS_PER_CANDIDATE = 4096
_SPARSE_SHARE = 16
_SPARSE_DROP = 2

# Truncated pair fold (value_mask): the pair level starts from the first
# isqrt(width) // _START_SHARE short values, halved where _start finds B_K
# dear.  _start keeps /4 for the six conjectured triples and for the
# Gauss and Dickson forms to 10^6, and halves to /8 for (2,3,7) to 10^7
# and 8x^2+y(8y+7)+z(10z+1) to 10^6, and to /16 for (2,3,7) to 10^8.
# From /8, (2,3,7) to 10^7 shifts 20 773 pieces against 37 053 from /4.
_START_SHARE = 4

_NONZERO_BYTE = re.compile(rb"[^\x00]")
_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]
_PLANES = [bytes(b >> j & 1 for b in range(256)) for j in range(8)]

# _set_bits reads x through _flags when one bit in _DENSE_SHARE is set.
# Regex skip against flags and compress, random 10^6-bit ints of density
# 1/8, 1/10, 1/12, 1/14, 1/16: 40.0/35.2, 34.0/32.1, 30.2/29.9, 28.8/30.0,
# 24.8/30.5 ms; the exceptional sets of x^2+y^2+z^2, x^2+y^2+3z^2 and
# 10x^2+5y^2+2z^2 to 10^6: 62.5/35.7, 49.2/33.6, 83.9/44.6 ms (medians of
# 15, interleaved; Python 3.11, 2-core x86-64 VM).
_DENSE_SHARE = 12


def _bits(positions: Iterable[int], width: int) -> int:
    raw = bytearray((width + 7) // 8)
    for k in positions:
        raw[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(raw, "little")


def _flags(x: int, width: int) -> bytearray:
    # byte k is bit k of x < 2**width: bit plane j of x's bytes to bytes j::8
    raw = x.to_bytes((width + 7) // 8, "little")
    out = bytearray(8 * len(raw))
    for j, plane in enumerate(_PLANES):
        out[j::8] = raw.translate(plane)
    del out[width:]
    return out


def _set_bits(x: int) -> list[int]:
    # positions of the set bits of x >= 0, ascending; a sparse x has its
    # zero bytes skipped by the regex engine
    width = x.bit_length()
    if x.bit_count() * _DENSE_SHARE >= width:
        return list(compress(range(width), _flags(x, width)))
    raw = x.to_bytes((width + 7) // 8, "little")
    return [8 * i + j for i in (m.start() for m in _NONZERO_BYTE.finditer(raw)) for j in _BYTE_BITS[raw[i]]]


# bits per piece of a fold: 16 KiB, with 32 KiB accumulators
_PIECE = 1 << 17


def _or_shifts(base: int, shifts: Iterable[int], width: int) -> int:
    # OR of base << s over the shifts s < width, cut to width bits.  A
    # bitset wider than one piece is cut into pieces of _PIECE bits, shifted
    # into double-width accumulators, so every temporary stays in cache and
    # small enough for the allocator's heap.
    # Folding 2 391 shifts over 10^7 bits takes 1.0-1.2 s this way; shifting
    # the whole bitset took 1.7-2.8 s, more than half of it in page faults
    # on freshly mapped memory (Python 3.11, glibc).
    if width <= _PIECE:
        acc = 0
        for s in shifts:
            if s < width:
                acc |= base << s
        return acc & (1 << width) - 1
    size = _PIECE // 8
    n = -(-width // _PIECE)
    # a base narrower than width has fewer pieces to shift
    nb = min(n, -(-base.bit_length() // _PIECE))
    raw = memoryview(base.to_bytes(nb * size, "little"))
    pieces = [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(nb)]
    del raw
    acc = [0] * n
    for s in shifts:
        q, r = divmod(s, _PIECE)
        for i in range(min(n - q, nb)):
            acc[i + q] |= pieces[i] << r
    del pieces
    # each block takes the spill of the one below it, then the top is cut
    low = (1 << _PIECE) - 1
    for b in range(n - 1, 0, -1):
        acc[b] = (acc[b] | acc[b - 1] >> _PIECE) & low
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
    out: dict[int, list[int]] = {}
    for v in values:
        q, r = divmod(v, modulus)
        out.setdefault(r, []).append(q)
    return out


# (middle quotients, short shifts) of one residue pair, both ascending
Part = tuple[list[int], list[int]]
# (parts of B_s, longest-slot shifts)
Group = tuple[list[Part], list[int]]


def _levels(form: Form, limit: int, progression: tuple[int, int]) -> tuple[int, int, list[Group]]:
    """(offset, width, groups) for progression = (M, C): M*(k + offset) + C
    is a value of form iff bit k - s of _pairs(parts, ...) is set for some
    (parts, shifts) in groups and shift s: the parts of B_s and the
    longest-slot quotients of the module docstring, over each slot's values
    less its minimum."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if progression[0] < 1:
        raise ValueError(f"progression modulus must be >= 1, got {progression[0]}")
    cf, M, C, _ = _constrained(form, progression)
    slots = sorted(((m, sorted({v - m for v in vals})) for m, vals in _slots(cf, M * limit + C)), key=lambda s: len(s[1]))
    # with the minima taken out, the sums are M*k + dr over bits k >= 0
    dq, dr = divmod(C - sum(m for m, _ in slots), M)
    width = max(limit + dq + 1, 0)
    if width > DEFAULT_MAX_BITS:
        raise ResourceLimitError(f"sieve needs {width} bits, cap is {DEFAULT_MAX_BITS}")
    (_, short), (_, middle), (_, longest) = slots
    middles = _buckets(middle, M)
    pairs: dict[int, list[Part]] = {}
    for a, shifts in _buckets(short, M).items():
        for b, quotients in middles.items():
            carry, s = divmod(a + b, M)
            pairs.setdefault(s, []).append((quotients, [q + carry for q in shifts]))
    thirds = _buckets(longest, M)
    groups = []
    for s, parts in sorted(pairs.items()):
        quotients = thirds.get((dr - s) % M)
        if quotients:
            carry = int(s > dr)
            groups.append((parts, [q + carry for q in quotients]))
    return -dq, width, groups


def _cut(parts: list[Part], width: int, lo: int, hi: Optional[int]) -> Iterator[tuple[list[int], list[int]]]:
    # each part's middle quotients below width, with its short shifts in
    # [lo, hi) when there are any
    top = width if hi is None else min(hi, width)
    for middle, short in parts:
        shifts = short[bisect_left(short, lo) : bisect_left(short, top)]
        if shifts:
            yield middle[: bisect_left(middle, width)], shifts


def _costs(middle: list[int], shifts: list[int], width: int) -> tuple[int, int]:
    # piece-operations of folding the middle bits once per short shift, and
    # of folding the short shifts' bits, spanning fewer pieces, once per
    # middle value
    return len(shifts) * -(-width // _PIECE), len(middle) * (1 + (shifts[-1] - shifts[0]) // _PIECE)


def _pairs(parts: list[Part], width: int, lo: int = 0, hi: Optional[int] = None) -> int:
    # B_s cut to width bits, from the short shifts in [lo, hi) alone
    acc = 0
    for middle, shifts in _cut(parts, width, lo, hi):
        # each shift costs a pass over the base's pieces, so the operand
        # that spans fewer pieces per shift is the base
        by_short, by_middle = _costs(middle, shifts, width)
        if by_short > by_middle:
            first = shifts[0]
            fold = _or_shifts(_bits([q - first for q in shifts], width), [m + first for m in middle], width)
        else:
            fold = _or_shifts(_bits(middle, width), shifts, width)
        acc |= fold
    return acc


def value_mask(form: Form, limit: int, workers: int = 1, progression: tuple[int, int] = (1, 0)) -> tuple[int, int]:
    """(mask, offset): for progression = (M, C), M*n + C is a value of form
    iff bit n - offset of mask is set, n <= limit.  offset is the least n
    with M*n + C at least the form's smallest value; for the default
    (1, 0), that value itself: 0 for a diagonal form, the sum of the terms'
    minima (possibly negative) for a PolySum.  A sparse form folds only a
    prefix of the pair level and tests the few bits it leaves missing."""
    offset, width, groups = _levels(form, limit, progression)
    values = sorted({q for parts, _ in groups for _, short in parts for q in short})
    k = _start(groups, values, width)
    cut = values[k] if k < len(values) else None
    bases = [_pairs(parts, width, 0, cut) for parts, _ in groups]
    most = max((len(longest) for _, longest in groups), default=0)
    acc, lo, p, before = 0, 0, _PROBE_SHIFTS, width
    while True:
        # acc is B_K folded with the first p v of each group: each step
        # folds B_K with the v in [lo, p)
        for base, (_, longest) in zip(bases, groups):
            if base:
                acc |= _or_shifts(base, longest[lo:p], width)
        missing = width - acc.bit_count()
        if missing * _BITS_PER_CANDIDATE <= width:
            unreached = _set_bits(acc ^ ((1 << width) - 1))
            del acc
            for base, (_, longest) in zip(bases, groups):
                unreached = _unreached(unreached, base, width, longest[p:])
            del bases
            if unreached and cut is not None:
                unreached = _complete(unreached, groups, cut)
            return ((1 << width) - 1) ^ _bits(unreached, width), offset
        # P grows while every probe has shown a sparse form and some group
        # has shifts past it
        if not (p < most and missing * _SPARSE_SHARE <= width and missing * _SPARSE_DROP <= before):
            break
        lo, p, before = p, 2 * p, missing
    # a dense form: the probe is dropped, and all of B meets every v
    del acc
    if cut is not None:
        for i, (parts, _) in enumerate(groups):
            bases[i] |= _pairs(parts, width, cut)
    return _fold([(base, longest) for base, (_, longest) in zip(bases, groups)], width, workers), offset


def _start(groups: list[Group], values: list[int], width: int) -> int:
    # the first K: isqrt(width) // _START_SHARE, halved while, by the cost
    # model of _pairs, B_K costs more than twice B_{K/2} plus the P step
    # the halving plans for.  Halving saves a sparse form the top half of
    # B_K for one P step; a dense form builds all of B whatever K is, and
    # folds B_K only in its probes.  The saving clearly wins only where
    # B_K's cost grows faster than K, as the short values c*w^2 spread it
    # over more pieces.  p is the probe the plan has reached.
    k, p = max(isqrt(width) // _START_SHARE, 1), _PROBE_SHIFTS
    pieces = -(-width // _PIECE)

    def cost(k: int) -> int:
        hi = values[k] if k < len(values) else None
        return sum(min(_costs(m, s, width)) for parts, _ in groups for m, s in _cut(parts, width, 0, hi))

    while k > 1:
        step = pieces * sum(len(longest[p : 2 * p]) for _, longest in groups)
        if not step or cost(k) <= 2 * cost(k // 2) + step:
            break
        k, p = k // 2, 2 * p
    return k


def _complete(unreached: list[int], groups: list[Group], cut: int) -> list[int]:
    # the bits B_K left unreached that the short shifts from cut on do not
    # reach either; each is at most unreached[-1], so B is cut there
    width = unreached[-1] + 1
    for parts, longest in groups:
        unreached = _unreached(unreached, _pairs(parts, width, cut), width, longest)
    return unreached


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


def attainable(form: Form, limit: int, workers: int = 1, progression: tuple[int, int] = (1, 0)) -> ValueMask:
    """The n <= limit with M*n + C a value of form, as a ValueMask; the
    default progression (M, C) = (1, 0) gives the values up to limit."""
    mask, offset = value_mask(form, limit, workers=workers, progression=progression)
    return ValueMask(offset, limit, mask)


def env_workers() -> Optional[int]:
    """The worker count TERNA_THREADS asks for, or None when it is unset or
    empty.  Raises ValueError when it is set to anything but an integer
    of at least 1."""
    env = os.environ.get("TERNA_THREADS")
    if not env:
        return None
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"TERNA_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"TERNA_THREADS must be >= 1, got {env!r}")
    return workers


def exceptional_set(form: Form, limit: int, workers: int = 1) -> SieveReport:
    """All n in [0, limit] not attained by form, as a SieveReport.

    Deterministic regardless of workers; raises ResourceLimitError, before
    the bit array is allocated, when it would exceed DEFAULT_MAX_BITS.
    """
    t0 = time.perf_counter()
    exceptions = tuple(attainable(form, limit, workers=workers).missing())
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return SieveReport(form=str(form), limit=limit, exceptions=exceptions, elapsed_ms=elapsed_ms)
