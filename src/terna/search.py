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
  ``value_mask`` (a Python int used as a bit array), or for a dense form
  from its class masks.  ``value_mask`` and ``attainable`` sieve one
  progression (M, C): bit n of the mask says whether M*n + C is a value,
  for 0 <= n <= limit whatever M is; the default (1, 0) is the plain
  range.  Every input is first made one DiagonalForm, with classes, on
  one progression (``_constrained``): n is a value of a PolySum iff
  M'*n + C' is a value of its reduction (``reduce``, M' = 4*lcm(ai)), so
  (M, C) becomes (M'*M, M'*C + C'); a DiagonalForm is taken as it is.  Each
  variable's values c*w^2 >= 0 over its class up to M*limit + C enter as
  they are, bucketed by residue mod M, keeping the quotients.  Each
  residue pair of the two shorter lists, short and middle, sums into a
  quotient bitset B_s for the pair residue s, carry added, which goes
  with the longest list's quotients v of residue C - s (mod M).  Bit k
  of the fold stands for M*k + (C mod M), and one shift by C // M at the
  end makes it bit n.  On (1, 0) there is one group (B, v), for a
  PolySum too: the values c*(2aw+b)^2 of each of its variables lie in
  one residue class mod M'.  Every sumset is an OR of shifted copies of
  2^17-bit pieces of one operand, the one spanning fewer pieces per
  shift.

  The form's residue image comes first (``_misses``): the sums of its
  slots' residues c*w^2 mod Q, w over each class, with Q = lcm(M,
  2^(4 + v2(M))*p1^2*p2^2...) over the odd primes p of M and of the
  coefficients whose slots hold a value in (0, M*limit + C].  A class of
  n mod Q/M whose target M*n + C mod Q lies outside the image is empty:
  every n in it is an exception.  Gauss misses 2 classes of 16, on n and,
  as a PolySum, on 4n; x^2+y^2+3z^2 16 of 144 (9^k(9l+6) shows only at
  3^2), 10x^2+5y^2+2z^2 190 of 400, and x(x+4)+y^2+z^2, on 4n + 16, the
  classes 3 and 11 mod 16.  A form with an empty class is dense and goes
  straight to the class fold below, with no probe; the image costs
  0.02-0.1 ms for the forms of the benchmark (Python 3.11, 2-core x86-64
  VM).

  Any other form's pair level starts as B_K, built from its first K short
  values only, and is folded with the first P v into a probe, P = 64 at
  first.  K starts at isqrt(width)/4 and is halved while the cost model
  of the pair fold says that B_K costs more than twice B_{K/2} plus the
  wider probe the halving plans for: only where the short values c*w^2
  spread B_K over many pieces, as (2,3,7) to 10^7 does, which starts at
  isqrt(width)/8.  When at most one bit in 4096 is missing, folding
  stops: each missing bit k is tested against B_K's bytes for the v past
  P, up to the first k - v in B_K.  The bits still unreached are tested
  against the short values past K, with B cut to the largest of them,
  which makes the result exact: none is left for the conjectured triples
  to 10^6 or (2,3,7) to 10^7, and 48 is the one for
  x(2x+1)+y(3y+1)+z(6z+1).  When more are missing, P doubles and B_K is
  folded with the next P v.  A probe that has taken every v is exhausted:
  the short values past K build the rest of B, which meets every v once.
  8x^2+y(8y+7)+z(10z+1) to 10^6, whose 242 exceptions lie in no empty
  class, takes all 707 v and leaves 245 bits missing.

  A dense form is folded by class of n mod q (``_split``, from 2 and the
  odd primes p themselves, not p^2): the slots are bucketed mod q*M,
  each B_s is built once, and class j (n = q*i + j) folds its groups
  (B_s, longest quotients of residue M*j + C - s mod q*M), limit/q bits
  wide, _PROBE_SHIFTS shifts at a time until all its bits are set: of
  Gauss's 16 classes to 10^6, only the two that hold exceptions fold all
  their 250, and the two empty ones have no group to fold.  Below the
  floor q is 1, and the one class is all of B folded with every v.
  ``value_mask`` interleaves the class masks into bit n for n, a block at
  a time.  A dense ``exceptional_set`` reads each class on its own: a
  class with no bit set is all of range(j, limit + 1, q), with no bit
  read, and any other maps its clear bits i to q*i + j; one sort of the
  runs orders them.  Every other sieve reads its exceptions off the
  bitset's clear bits at C speed: the complement's nonzero bytes are
  found by one translate and split of its bytes, and each byte's bits
  come from a table.
  Work is O(values enumerated) plus O(shifts * N/wordsize), far below one
  search per n.

Enumeration cutoffs use math.isqrt throughout; no floating point.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, compress, count, cycle
from math import gcd, isqrt, lcm, prod
from operator import add
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
# probe; the read of the bits it leaves missing peaks at 5.51, and
# value_mask of the three family forms at 3.71-4.19, in their interleave.
# A dense exceptional_set interleaves nothing: its peak is its exceptions,
# one int each in a list and then a tuple, 64.0 bitsets for Gauss's
# 1 666 663, 49.0 and 188.3 for Dickson's (1,1,3) and (10,5,2) (tracemalloc
# to 10^7).
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
    """The n in [0, limit] with M*n + C a value of a form, for one
    progression (M, C), as bit n of mask."""

    limit: int
    mask: int = field(repr=False)  # str() of an int over 4300 digits raises

    def missing(self) -> list[int]:
        """The n in [0, limit] not in the set, ascending."""
        return _set_bits(self.absent())

    def absent(self) -> int:
        """Bit n is set iff n is not in the set, for 0 <= n <= limit."""
        return self.mask ^ ((1 << (self.limit + 1)) - 1)


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
def _slot_residues(c: int, g: int, r: int, modulus: int) -> frozenset[int]:
    # c*w^2 mod modulus over w = r (mod g), for any class modulus of gcd g
    # with modulus
    return frozenset(c * w * w % modulus for w in range(r, modulus, g))


def _slot_key(c: int, k: CongruenceClass, modulus: int = _Q) -> tuple[int, int, int, int]:
    g = gcd(k.modulus, modulus)
    return c % modulus, g, k.residue % g, modulus


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
def _column_flags(slot1: tuple[int, int, int, int], c2: int, m2: int, r2: int, mirror: bool, t: int) -> bytes:
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
# A "slot" is the value set {c*w^2 : w in cl} of one variable of a
# DiagonalForm, w running over its congruence class cl; its values are
# >= 0 and enter the sieve as they are.


def _square_slot(c: int, cap: int, cl: CongruenceClass) -> list[int]:
    if cap < 0:
        return []
    # |w| from either the class or its negation: r and -r mod m are one
    # class or two disjoint ones, so no value repeats
    bound = isqrt(cap // c)
    return [c * w * w for r in {cl.residue, -cl.residue % cl.modulus} for w in range(r, bound + 1, cl.modulus)]


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
# P doubles, and B_K is folded with the next P shifts, until few enough
# bits are missing or the shifts run out.  Bits missing at P = 64 and 128
# from K = isqrt(width)/8, and at P = 64 from /4: (2,3,7) to 10^7 43 690,
# 786 and 871; to 10^6 3 718, 61 and 68; x(x+1)+y(2y+1)+z(4z+1) to 10^6
# 14 981, 1 112 and 932 (11 from /4 at 128).  A sparse form misses at most
# one bit in 67 at P = 64 and loses 13-85x of them when P doubles.
_PROBE_SHIFTS = 64
_BITS_PER_CANDIDATE = 4096

# Truncated pair fold (value_mask): the pair level starts from the first
# isqrt(width) // _START_SHARE short values, halved where _start finds B_K
# dear.  _start keeps /4 for the six conjectured triples and for the
# Gauss and Dickson forms to 10^6, and halves to /8 for (2,3,7) to 10^7
# and 8x^2+y(8y+7)+z(10z+1) to 10^6, and to /16 for (2,3,7) to 10^8.
# From /8, (2,3,7) to 10^7 shifts 20 773 pieces against 37 053 from /4.
_START_SHARE = 4

_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]
# translate table: every nonzero byte to 1
_NONZERO = bytes(b > 0 for b in range(256))


def _bits(positions: Iterable[int], width: int) -> int:
    raw = bytearray((width + 7) // 8)
    for k in positions:
        raw[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(raw, "little")


def _every(start: int, step: int, stop: int) -> int:
    # bits start, start + step, ... below stop: a run of k such bits doubles
    # to 2k in one shift, and the last doubling is cut at stop
    x, k, n = 1, 1, len(range(start, stop, step))
    while k < n:
        x |= x << k * step
        k *= 2
    return x << start & (1 << stop) - 1


def _set_bits(x: int) -> list[int]:
    # positions of the set bits of x >= 0, ascending: each nonzero byte ends
    # one run of zero bytes, so nonzero byte k (from 0) sits at the summed
    # lengths of runs 0 to k, plus k
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    runs = raw.translate(_NONZERO).split(b"\x01")[:-1]
    return [8 * i + j for i in map(add, accumulate(map(len, runs)), count()) for j in _BYTE_BITS[raw[i]]]


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
    # a base narrower than width has fewer pieces to shift, and a wider one
    # shifts only its pieces below width
    nb = min(n, -(-base.bit_length() // _PIECE))
    raw = memoryview(base.to_bytes((base.bit_length() + 7) // 8, "little"))
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


# Split factor of a dense fold (_split).  value_mask to 10^7 at _SPLIT =
# 4/8/16/32 (medians of 5, interleaved, ms): x^2+y^2+z^2 963/577/439/416,
# x^2+y^2+3z^2 399/376/376/332, 10x^2+5y^2+2z^2 257/206/199/214,
# x^2+y^2+11z^2 670/637/592/719; to 10^6, 16 is best for x^2+y^2+z^2 (23
# ms against 24-38) and 4 for x^2+y^2+11z^2 (34 against 41, 44 whole).
_SPLIT = 16
# Narrowest class of n mod q, in bits; narrower classes fold whole (q = 1).
# value_mask split / whole at classes of 2^12, 6 250 and 2^13 bits (medians
# of 7-11): x^2+y^2+z^2 (q = 16) 1.35, 0.98, 0.73; x^2+y^2+11z^2 (176) 1.03,
# 0.86, 0.80; x^2+y^2+3z^2 (48) and 10x^2+5y^2+2z^2 (80) 0.56-0.87 at each;
# at 2^13, q = 1680 of x^2+3y^2+35z^2 0.48 and of 3x^2+5y^2+7z^2 0.59.
_FLOOR = 1 << 13

# Widest factor F of Q taken into a residue image, in bits: a sum of two
# slots' residues mod F costs up to F/2 shifts of F bits.  The image of
# x^2+y^2+11z^2 (F = 16 and 121) takes 0.07-0.1 ms, of x^2+y^2+61z^2 (16
# and 3 721) 1.7-2.8 ms (Python 3.11, 2-core x86-64 VM).  A wider 2-adic
# factor is cut to _IMAGE_BITS, and a wider odd one left out.
_IMAGE_BITS = 1 << 12


def _fold_class(offset: int, width: int, groups: list[tuple[int, list[int]]]) -> bytes:
    # OR of base << s over the groups' shifts, bit k standing for i = k +
    # offset of the class, as bytes with bit i for i.  The groups take turns,
    # _PROBE_SHIFTS shifts at a time, until every bit of an i >= 0 is set
    skip, acc = max(-offset, 0), 0
    most = max((len(shifts) for _, shifts in groups), default=0)
    batches = ((b, v[lo : lo + _PROBE_SHIFTS]) for lo in range(0, most, _PROBE_SHIFTS) for b, v in groups if lo < len(v))
    for base, batch in batches:
        acc |= _or_shifts(base, batch, width)
        if (acc >> skip).bit_count() == width - skip:
            break
    acc = _aligned(acc, offset)
    return acc.to_bytes((acc.bit_length() + 7) // 8, "little")


def _interleave(masks: list[bytes]) -> int:
    # bit q*i + j of the result is bit i of masks[j], q = len(masks): class
    # j fills bytes q - 1 - j, 2q - 1 - j, ... of a block's plane of one byte
    # per bit, most significant first, which int(plane, 2) reads back
    q = len(masks)
    if q == 1:
        return int.from_bytes(masks[0], "little")
    size = max(_PIECE // (8 * q), 1)
    top = -(-max(map(len, masks)) // size) * size
    plane, out = bytearray(8 * q * size), bytearray(q * top)
    for k in range(0, top, size):
        for j, raw in enumerate(masks):
            plane[q - 1 - j :: q] = format(int.from_bytes(raw[k : k + size], "little"), f"0{8 * size}b").encode()
        out[q * k : q * (k + size)] = int(plane, 2).to_bytes(q * size, "little")
    return int.from_bytes(out, "little")


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
# (offset, width, [(s, longest-slot shifts)]) of one class of n
Class = tuple[int, int, list[tuple[int, list[int]]]]


def _sieved(form: Form, limit: int, progression: tuple[int, int]) -> tuple[DiagonalForm, int, int]:
    # _constrained's (cf, M, C), once the sieve's arguments are checked and
    # before anything is allocated
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if progression[0] < 1:
        raise ValueError(f"progression modulus must be >= 1, got {progression[0]}")
    cf, M, C, _ = _constrained(form, progression)
    if limit + C // M + 1 > DEFAULT_MAX_BITS:
        raise ResourceLimitError(f"sieve needs {limit + C // M + 1} bits, cap is {DEFAULT_MAX_BITS}")
    return cf, M, C


def _levels(form: Form, limit: int, progression: tuple[int, int], q: int = 1) -> tuple[dict[int, list[Part]], list[Class]]:
    """(pairs, classes) for progression = (M, C), slots bucketed mod Q =
    q*M: pairs[s] holds the parts of B_s, and classes[j] = (offset, width,
    targets) has M*(q*(k + offset) + j) + C a value of form iff bit k - v of
    _pairs(pairs[s], ...) is set for some (s, shifts) in targets, v in
    shifts, the longest-slot quotients.  offset is -((M*j + C) // Q): bit k
    stands for Q*k + ((M*j + C) mod Q), and sums of values >= 0 start at 0."""
    cf, M, C = _sieved(form, limit, progression)
    slots = (sorted(_square_slot(c, M * limit + C, cl)) for c, cl in zip(cf.coeffs, cf.classes))
    short, middle, longest = sorted(slots, key=len)
    Q = q * M
    middles = _buckets(middle, Q)
    pairs: dict[int, list[Part]] = {}
    for a, shifts in _buckets(short, Q).items():
        for b, quotients in middles.items():
            carry, s = divmod(a + b, Q)
            pairs.setdefault(s, []).append((quotients, [v + carry for v in shifts]))
    thirds = _buckets(longest, Q)
    order = sorted(pairs)
    classes = []
    for j in range(q):
        dq, dr = divmod(M * j + C, Q)
        # the longest-slot quotients of residue dr - s, plus 1 where s > dr
        targets = [(s, v if s <= dr else [x + 1 for x in v]) for s in order if (v := thirds.get((dr - s) % Q))]
        classes.append((-dq, max(len(range(j, limit + 1, q)) + dq, 0), targets))
    return pairs, classes


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


def value_mask(form: Form, limit: int, progression: tuple[int, int] = (1, 0)) -> int:
    """For progression = (M, C), bit n of the mask is set iff M*n + C is a
    value of form, 0 <= n <= limit.  A form whose residue image shows an
    empty class folds each class of n mod q on its own, with no probe; any
    other folds a prefix of the pair level, and tests the few bits it
    leaves missing, or folds the rest of the pair level once its probe has
    taken every shift."""
    if any(bits for _, bits in _misses(form, limit, progression)):
        return _interleave(list(_class_masks(form, limit, progression, _split(form, limit, progression))))
    pairs, [(offset, width, targets)] = _levels(form, limit, progression)
    groups = [(pairs[s], longest) for s, longest in targets]
    values = sorted({q for parts, _ in groups for _, short in parts for q in short})
    k = _start(groups, values, width)
    cut = values[k] if k < len(values) else None
    bases = [_pairs(parts, width, 0, cut) for parts, _ in groups]
    most = max((len(longest) for _, longest in groups), default=0)
    acc, lo, p = 0, 0, _PROBE_SHIFTS
    while True:
        # acc is B_K folded with the first p v of each group: each step
        # folds B_K with the v in [lo, p)
        for base, (_, longest) in zip(bases, groups):
            if base:
                acc |= _or_shifts(base, longest[lo:p], width)
        missing = width - acc.bit_count()
        if missing * _BITS_PER_CANDIDATE <= width:
            # complemented in place, so acc is not held beside its
            # complement while the reader holds its byte strings
            acc ^= (1 << width) - 1
            unreached = _set_bits(acc)
            del acc
            for base, (_, longest) in zip(bases, groups):
                unreached = _unreached(unreached, base, width, longest[p:])
            del bases
            if unreached and cut is not None:
                unreached = _complete(unreached, groups, cut)
            return _aligned(((1 << width) - 1) ^ _bits(unreached, width), offset)
        if p >= most:
            break
        lo, p = p, 2 * p
    # every v is folded with B_K: the short values past K meet them once
    del bases
    if cut is not None:
        for parts, longest in groups:
            acc |= _or_shifts(_pairs(parts, width, cut), longest, width)
    return _aligned(acc, offset)


def _class_masks(form: Form, limit: int, progression: tuple[int, int], q: int) -> Iterator[bytes]:
    # the dense fold: for each class j of n mod q, ascending, its mask as
    # bytes, bit i set iff n = q*i + j is in the set.  Each B_s is built
    # once, as wide as the widest class, and each class's shifts are cut at
    # its width
    pairs, classes = _levels(form, limit, progression, q)
    top = max(width for _, width, _ in classes)
    built = {s: _pairs(pairs[s], top) for s in sorted({s for _, _, targets in classes for s, _ in targets})}
    del pairs
    for o, w, targets in classes:
        yield _fold_class(o, w, [(built[s], v[: bisect_left(v, w)]) for s, v in targets])


def _aligned(mask: int, offset: int) -> int:
    # bit k of mask moved to bit k + offset
    return mask << offset if offset >= 0 else mask >> -offset


def _split(form: Form, limit: int, progression: tuple[int, int]) -> int:
    # q of a dense fold: lcm(M, _SPLIT * p1 * p2 ...) / M over _odd_primes (a
    # prime of M leaves it as it is); 1 where a class of n mod q would be
    # narrower than _FLOOR bits.  The image (_misses) takes p^2, where
    # x^2+y^2+3z^2 misses 16 classes of 144 and none of 48; the fold takes
    # p, as at p^2 the classes of x^2+y^2+3z^2 to 10^6 would be 6 944 bits
    # wide, below the floor
    cf, M, C, _ = _constrained(form, progression)
    q = lcm(M, _SPLIT * prod(_odd_primes(cf, M, M * limit + C))) // M
    return q if limit // q >= _FLOOR else 1


def _odd_primes(cf: DiagonalForm, M: int, top: int) -> list[int]:
    # the odd primes of M and of each coefficient whose slot holds a value
    # in (0, top]
    held = [c for c, cl in zip(cf.coeffs, cf.classes) if c * (min(cl.residue, cl.modulus - cl.residue) or cl.modulus) ** 2 <= top]
    primes = set()
    for c in [M, *held]:
        c, p = c // (c & -c), 3
        while p * p <= c:
            if c % p:
                p += 2
            else:
                primes.add(p)
                c //= p
        if c > 1:
            primes.add(c)
    return sorted(primes)


def _misses(form: Form, limit: int, progression: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The residue image of form on progression = (M, C), as (F, bits)
    pairs over prime powers F: 2^(4 + v2(M)), cut to _IMAGE_BITS, and
    p^max(2, vp(M)) at each of _odd_primes, left out where wider than
    _IMAGE_BITS.  Bit t of bits is set iff t = M*n + C (mod F) for some n
    and no sum of the slots' residues c*w^2 mod F, w in their classes, is
    t.  By the Chinese remainder theorem a class of n mod q = Q/M, Q the
    lcm of M and the factors, holds no value, is empty, iff some factor's
    bits hold M*n + C mod F.  Modulo 2^v2(M), or p^vp(M), M*n + C is C for
    every n, so each factor reaches past M: x(x+4)+y^2+z^2, sieved on 4n +
    16, misses the classes n = 3 (mod 8) at 64 and none at 16, and
    3x^2+3y^2+z(3z+3), on 12n + 9, shows its 3-adic classes at 9."""
    cf, M, C = _sieved(form, limit, progression)
    factors = [min(16 * (M & -M), _IMAGE_BITS)]
    for p in _odd_primes(cf, M, M * limit + C):
        F = p * p
        while M % (F * p) == 0:
            F *= p
        if F <= _IMAGE_BITS:
            factors.append(F)
    out = []
    for F in factors:
        sums = 1
        for c, cl in zip(cf.coeffs, cf.classes):
            sums = _sumset(sums, _bits(_slot_residues(*_slot_key(c, cl, F)), F), F)
        g = gcd(M, F)
        out.append((F, _every(C % g, g, F) & ~sums))
    return tuple(out)


def _sumset(a: int, b: int, modulus: int) -> int:
    # bit x + y mod modulus for each bit x of a and y of b: the sparser
    # operand's bits are the shifts
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    for x in _set_bits(a):
        acc |= b << x
    return (acc | acc >> modulus) & (1 << modulus) - 1


def _start(groups: list[Group], values: list[int], width: int) -> int:
    # the first K: isqrt(width) // _START_SHARE, halved while, by the cost
    # model of _pairs, B_K costs more than twice B_{K/2} plus the P step
    # the halving plans for.  Halving saves a sparse form the top half of
    # B_K for one P step; a form whose probe is exhausted builds the rest
    # of B past K and folds it once.  The saving clearly wins only where
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


def attainable(form: Form, limit: int, progression: tuple[int, int] = (1, 0)) -> ValueMask:
    """The n <= limit with M*n + C a value of form, as a ValueMask; the
    default progression (M, C) = (1, 0) gives the values up to limit."""
    return ValueMask(limit, value_mask(form, limit, progression=progression))


def exceptional_set(form: Form, limit: int, workers: int = 1) -> SieveReport:
    """All n in [0, limit] not attained by form, as a SieveReport.

    A form whose residue image shows an empty class is read class by class
    off its dense fold; any other is read off ``attainable``'s mask.
    workers is accepted and has no effect: the sieve runs in one process.
    Raises ResourceLimitError, before the bit array is allocated, when it
    would exceed DEFAULT_MAX_BITS.
    """
    t0 = time.perf_counter()
    if any(bits for _, bits in _misses(form, limit, (1, 0))):
        exceptions = tuple(_class_exceptions(form, limit))
    else:
        exceptions = tuple(attainable(form, limit).missing())
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return SieveReport(form=str(form), limit=limit, exceptions=exceptions, elapsed_ms=elapsed_ms)


def _class_exceptions(form: Form, limit: int) -> list[int]:
    # the n <= limit that no class mask holds, ascending: a class with no
    # bit set is all of range(j, limit + 1, q), and any other maps its clear
    # bits i to q*i + j (at q = 1 they are n already, and are not copied);
    # one sort of the runs orders them
    q = _split(form, limit, (1, 0))
    out: list[int] = []
    for j, raw in enumerate(_class_masks(form, limit, (1, 0), q)):
        if raw:
            clear = _set_bits(int.from_bytes(raw, "little") ^ (1 << len(range(j, limit + 1, q))) - 1)
            out += clear if q == 1 else [q * i + j for i in clear]
        else:
            out += range(j, limit + 1, q)
    out.sort()
    return out
