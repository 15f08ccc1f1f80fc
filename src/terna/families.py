"""Symbolic exceptional sets of classical diagonal forms.

An ExceptionalFamily describes the exceptional set of its diagonal form
as a union of scaled arithmetic progressions {s^k * (m*l + r) : k, l >= 0}.
The three built-in families, ``FAMILIES`` by CLI name, are the classically
known exceptional sets E(x^2+y^2+z^2), E(x^2+y^2+3z^2) and
E(10x^2+5y^2+2z^2).  ``membership`` writes a family out as a bit mask,
bit n for n, and ``crosscheck`` XORs that with the mask of the missing
values of a fresh sieve of the family's form and reports every set bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import DiagonalForm
from .search import _every, _set_bits, attainable, exceptional_set  # noqa: F401  perfbench/spans.py traces exceptional_set here


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
    """The exceptional set of form, as a union of patterns."""

    form: DiagonalForm
    patterns: tuple[ProgressionPattern, ...]


def member(fam: ExceptionalFamily, n: int) -> bool:
    """True iff n lies in some pattern of fam."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return any(p.contains(n) for p in fam.patterns)


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


def membership(fam: ExceptionalFamily, limit: int) -> int:
    """Bit n is set iff member(fam, n), for 0 <= n <= limit: one run of
    evenly spaced bits per pattern and scale level."""
    out = 0
    for p in fam.patterns:
        scale = 1
        while scale * p.residue <= limit:
            out |= _every(scale * p.residue, scale * p.modulus, limit + 1)
            # with residue 0 every scaled level lies inside the first
            if p.scale is None or p.residue == 0:
                break
            scale *= p.scale
    return out


def crosscheck(fam: ExceptionalFamily, limit: int) -> CrosscheckReport:
    """All n <= limit where membership in fam disagrees with the sieve of
    fam's form; the report names the family by its form."""
    t0 = time.perf_counter()
    # the sieve checks the bit cap before it allocates, so it runs first
    bad = tuple(_set_bits(attainable(fam.form, limit).absent() ^ membership(fam, limit)))
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return CrosscheckReport(str(fam.form), limit, bad, elapsed_ms)
