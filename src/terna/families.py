"""Symbolic exceptional sets of classical diagonal forms.

An ExceptionalFamily describes the exceptional set of its diagonal form
as a union of scaled arithmetic progressions {s^k * (m*l + r) : k, l >= 0}
plus a finite explicit set.  The three built-in families, ``FAMILIES`` by
CLI name, are the classically known exceptional sets E(x^2+y^2+z^2),
E(x^2+y^2+3z^2) and E(10x^2+5y^2+2z^2).  ``membership`` writes a family
out as one byte per n, and ``crosscheck`` compares that, byte for byte,
with the missing values of a fresh sieve of the family's form and reports
every disagreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress

from .core import DiagonalForm
from .search import attainable, exceptional_set  # noqa: F401  perfbench/spans.py traces exceptional_set here


@dataclass(frozen=True)
class ProgressionPattern:
    """{scale^k * (modulus*l + residue) : k, l >= 0}.

    scale=None disables the scaling factor (k is forced to 0), for
    components like {8k+3} that a surrounding union does not scale.
    """

    scale: int | None
    modulus: int
    residue: int

    def __post_init__(self):
        if self.scale is not None and self.scale < 2:
            raise ValueError("scale base must be >= 2")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("need 0 <= residue < modulus")

    def contains(self, n: int) -> bool:
        # Exact division only: test the residue at every scale level,
        # since s^k multiplies the whole progression.
        if n < 0:
            return False
        while True:
            if n % self.modulus == self.residue:
                return True
            if self.scale is None or n == 0 or n % self.scale:
                return False
            n //= self.scale


@dataclass(frozen=True)
class ExceptionalFamily:
    """The exceptional set of form, as patterns plus a finite extra set."""

    form: DiagonalForm
    patterns: tuple[ProgressionPattern, ...]
    extra: frozenset[int] = field(default_factory=frozenset)


def member(fam: ExceptionalFamily, n: int) -> bool:
    """True iff n lies in some pattern of fam or in its finite extra set."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n in fam.extra or any(p.contains(n) for p in fam.patterns)


GAUSS_LEGENDRE = ExceptionalFamily(
    form=DiagonalForm((1, 1, 1)),
    patterns=(ProgressionPattern(4, 8, 7),),
)

DICKSON_1_1_3 = ExceptionalFamily(
    form=DiagonalForm((1, 1, 3)),
    patterns=(ProgressionPattern(9, 9, 6),),
)

DICKSON_10_5_2 = ExceptionalFamily(
    form=DiagonalForm((10, 5, 2)),
    patterns=(
        ProgressionPattern(None, 8, 3),
        ProgressionPattern(25, 5, 1),
        ProgressionPattern(25, 5, 4),
    ),
)

#: the built-in families by CLI name, in a fixed order
FAMILIES: dict[str, ExceptionalFamily] = {
    "gauss": GAUSS_LEGENDRE,
    "dickson-113": DICKSON_1_1_3,
    "dickson-1052": DICKSON_10_5_2,
}


@dataclass(frozen=True)
class CrosscheckReport:
    family: str
    limit: int
    discrepancies: tuple[int, ...]
    elapsed_ms: int

    def agrees(self) -> bool:
        return not self.discrepancies


def membership(fam: ExceptionalFamily, limit: int) -> bytearray:
    """Byte n is 1 iff member(fam, n), for 0 <= n <= limit: one slice
    assignment per pattern and scale level, plus the extra set."""
    out = bytearray(limit + 1)
    for p in fam.patterns:
        scale = 1
        while scale * p.residue <= limit:
            start, step = scale * p.residue, scale * p.modulus
            out[start::step] = b"\x01" * len(range(start, limit + 1, step))
            # with residue 0 every scaled level lies inside the first
            if p.scale is None or p.residue == 0:
                break
            scale *= p.scale
    for n in fam.extra:
        if n <= limit:
            out[n] = 1
    return out


def crosscheck(fam: ExceptionalFamily, limit: int, workers: int = 1) -> CrosscheckReport:
    """All n <= limit where membership in fam disagrees with the sieve of
    fam's form; the report names the family by its form."""
    t0 = time.perf_counter()
    # the sieve checks the bit cap before it allocates, so it runs first
    sieved = attainable(fam.form, limit, workers=workers).missing_flags()
    expected = membership(fam, limit)
    bad = ()
    if sieved != expected:
        # one byte per n, so the nonzero bytes of the XOR are the n that differ
        diff = int.from_bytes(sieved, "little") ^ int.from_bytes(expected, "little")
        bad = tuple(compress(range(limit + 1), diff.to_bytes(limit + 1, "little")))
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return CrosscheckReport(str(fam.form), limit, bad, elapsed_ms)
