"""Domain model for sums of three quadratic terms x(ax+b).

A ``PolySum`` is a polynomial x(a1*x+b1) + y(a2*y+b2) + z(a3*z+b3) with
positive quadratic coefficients and nonnegative linear coefficients.
Completing the square in each variable,

    x(ax+b) = ((2ax+b)**2 - b**2) / (4a),

turns the question "is n a value of the PolySum over the integers" into
"is M*n + C a value of a diagonal form whose variables lie in
congruence classes", where M = 4*L, L = lcm(a1,a2,a3) and
C = sum (L/ai)*bi**2.
``reduce`` performs that rewrite, ``embed``/``lift`` move witnesses back
and forth.  One type, ``DiagonalForm``, holds both kinds of diagonal form:
its classes default to every integer, the plain form.

All arithmetic is plain Python ``int``: exact at every magnitude, so no
overflow bound applies (values such as M*n + C stay exact even for
n far beyond 2**40).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm


class TernaError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(TernaError):
    """An operation was called outside its stated domain."""


class CongruenceViolationError(TernaError):
    """A coordinate does not lie in its required congruence class."""


class NoValidSignError(TernaError):
    """Neither w nor -w lies in the requested congruence class."""


class NotRepresentableError(TernaError):
    """The input is not a value of the required form at all."""


class ConstructionError(TernaError):
    """A constructive pipeline hit a step its invariants rule out.

    This should never trigger; an occurrence is a falsification report,
    so the failing step is kept on the exception.  A witness pipeline also
    fills in the clause id, n and the triple ``pre`` its builder or search
    returned (None when that step itself failed); a lemma called on its own
    leaves them None.
    """

    def __init__(self, step: str, message: str = ""):
        super().__init__(step, message)
        self.step, self.message = step, message
        self.clause = self.n = self.pre = None

    def __str__(self) -> str:
        where = "" if self.clause is None else f" of clause {self.clause} at n={self.n} (pre={self.pre})"
        return f"construction failed at step '{self.step}'{where}" + (f": {self.message}" if self.message else "")


class ResourceLimitError(TernaError):
    """A sieve request exceeds the configured memory cap."""


@dataclass(frozen=True)
class Term:
    """One summand x(ax+b) with a >= 1, b >= 0."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"quadratic coefficient must be >= 1, got {self.a}")
        if self.b < 0:
            raise ValueError(f"linear coefficient must be >= 0, got {self.b}")

    def value(self, x: int) -> int:
        return x * (self.a * x + self.b)

    def text(self, var: str) -> str:
        if self.b == 0 and self.a == 1:
            return f"{var}^2"
        if self.b == 0:
            return f"{self.a}{var}^2"
        inner = var if self.a == 1 else f"{self.a}{var}"
        return f"{var}({inner}+{self.b})"


@dataclass(frozen=True)
class PolySum:
    """Exactly three Terms, evaluated at an integer triple."""

    terms: tuple[Term, Term, Term]

    def __post_init__(self):
        if len(self.terms) != 3:
            raise ValueError("a PolySum has exactly three terms")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "PolySum":
        return cls(tuple(Term(a, b) for a, b in pairs))

    def __str__(self) -> str:
        return "+".join(t.text(v) for t, v in zip(self.terms, "xyz"))


@dataclass(frozen=True)
class CongruenceClass:
    """The residue class {w : w = residue (mod modulus)}."""

    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"need 0 <= residue < modulus, got {self.residue} mod {self.modulus}")

    def contains(self, w: int) -> bool:
        return w % self.modulus == self.residue

    def min_abs(self) -> int:
        """Smallest |w| over members of the class."""
        return min(self.residue, self.modulus - self.residue) if self.residue else 0


# the class of every integer, the default of each variable of a DiagonalForm
_UNCONSTRAINED = CongruenceClass(1, 0)


@dataclass(frozen=True)
class DiagonalForm:
    """alpha*x^2 + beta*y^2 + gamma*z^2 with positive integer coefficients,
    the i-th variable restricted to classes[i] (by default, every integer)."""

    coeffs: tuple[int, int, int]
    classes: tuple[CongruenceClass, CongruenceClass, CongruenceClass] = (_UNCONSTRAINED,) * 3

    def __post_init__(self):
        if len(self.coeffs) != 3 or any(c < 1 for c in self.coeffs):
            raise ValueError(f"need three positive coefficients, got {self.coeffs}")
        if len(self.classes) != 3:
            raise ValueError("need one congruence class per variable")

    def __str__(self) -> str:
        if all(cl.modulus == 1 for cl in self.classes):
            return "+".join(f"{c}{v}^2" if c > 1 else f"{v}^2" for c, v in zip(self.coeffs, "xyz"))
        return "+".join(f"{c}({cl.modulus}k+{cl.residue})^2" for c, cl in zip(self.coeffs, self.classes))


@dataclass(frozen=True)
class Witness:
    """An integer triple certifying one representation."""

    x: int
    y: int
    z: int

    def __iter__(self):
        return iter((self.x, self.y, self.z))


@dataclass(frozen=True)
class ReductionData:
    """Output of completing the square on a PolySum.

    M = 4*L, where L is the lcm of the quadratic coefficients,
    C = sum (L/ai)*bi^2, and the diagonal form ``constrained`` has
    coefficients L/ai with variable classes (bi mod 2ai).  For every
    integer triple, sum (L/ai)*(2*ai*xi+bi)^2 = M*evaluate(source, triple) + C.
    """

    M: int
    C: int
    constrained: DiagonalForm
    source: PolySum


def evaluate(p: PolySum, w) -> int:
    """Value of p at the integer triple w (exact)."""
    x, y, z = w
    t1, t2, t3 = p.terms
    return t1.value(x) + t2.value(y) + t3.value(z)


def reduce(p: PolySum) -> ReductionData:
    """Complete the square in each variable of p: n is a value of p iff
    M*n + C is a value of the constrained form, with M = 4*lcm(ai)."""
    a1, a2, a3 = (t.a for t in p.terms)
    L = lcm(a1, a2, a3)
    coeffs = tuple(L // t.a for t in p.terms)
    C = sum((L // t.a) * t.b * t.b for t in p.terms)
    classes = tuple(CongruenceClass(2 * t.a, t.b % (2 * t.a)) for t in p.terms)
    return ReductionData(4 * L, C, DiagonalForm(coeffs, classes), p)


def embed(rd: ReductionData, w) -> tuple[int, int, int]:
    """Forward substitution: witness (x,y,z) -> constrained triple (2*ai*xi + bi)."""
    return tuple(2 * t.a * xi + t.b for t, xi in zip(rd.source.terms, w))


def lift(rd: ReductionData, triple) -> Witness:
    """Invert the substitution: constrained triple -> witness.

    Raises CongruenceViolationError unless wi = bi (mod 2ai) for every i.
    """
    out = []
    for t, wi in zip(rd.source.terms, triple):
        m = 2 * t.a
        if wi % m != t.b % m:
            raise CongruenceViolationError(f"{wi} is not {t.b % m} (mod {m})")
        out.append((wi - t.b) // m)
    return Witness(*out)


def verify(p: PolySum, n: int, w) -> bool:
    """True iff p takes the value n at w."""
    return evaluate(p, w) == n


def normalize_sign(w: int, m: int, r: int) -> int:
    """Return s*w (s = +1 preferred, else -1) with s*w = r (mod m).

    Raises NoValidSignError when neither sign lands in the class.
    """
    if w % m == r % m:
        return w
    if (-w) % m == r % m:
        return -w
    raise NoValidSignError(f"neither {w} nor {-w} is {r} (mod {m})")
