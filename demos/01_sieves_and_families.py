"""Exceptional sets: sieving forms and cross-checking classical formulas.

For f(x, y, z) ranging over integers, E(f) is the set of nonnegative
integers f never attains.  The sieve enumerates every lattice value up
to a limit into a bit array; the classical formulas describe three of
these sets exactly, and crosscheck() replays formula against sieve.
"""

from terna import FAMILIES, DiagonalForm, PolySum, crosscheck, exceptional_set, member

LIMIT = 10_000

print("== sums of three squares ==")
report = exceptional_set(DiagonalForm((1, 1, 1)), 100)
print(f"E(x^2+y^2+z^2) up to 100: {list(report.exceptions)}")
print("the same numbers, via the 4^k(8l+7) description:",
      [n for n in range(101) if member(FAMILIES["gauss"], n)])

print()
print("== three classical formulas vs fresh sieves ==")
for key, family in sorted(FAMILIES.items()):
    result = crosscheck(family, LIMIT)
    status = "agree" if result.agrees() else f"DISAGREE at {result.discrepancies[:5]}"
    print(f"{result.family:>18} vs sieve up to {LIMIT}: {status}  ({result.elapsed_ms} ms)")

print()
print("== a polynomial sum with a sparse exceptional set ==")
poly = PolySum.of((2, 1), (3, 1), (6, 1))
report = exceptional_set(poly, 200)
print(f"E({poly}) up to 200: {list(report.exceptions)}")
print("48 in particular is unattainable, which is what removes (2,3,6)")
print("from the universal-triple candidate list (see demo 03).")
