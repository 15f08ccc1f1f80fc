"""Coefficient-space surveys: which coefficient tuples give universal sums.

A handful of small unattainable values prunes the infinite coefficient
space down to finitely many candidates.  Both filters are exact sumsets
of term values (every term value is >= 0, so n is a value exactly when
it is a sum of three term values <= n), so every exclusion here is a
proof, and every survivor is a candidate whose universality needs (and,
for twelve of them, has) a separate argument.  Each sum is first folded on
its low 64 bits, which refute every sum rejected here (the first value a
rejected sum misses is at most 48 for the triples and 17 for the
quadruples); only the sums that pass get the full-width fold.  A term
whose smallest nonzero value exceeds the lowest value the terms before it
miss is never folded: with 1 a test value, no a >= 3 pairs with anything.
Each triple survivor is reduced once, and represent() confirms it with one
scan of its constrained form per test value; reverify_quadruples
re-checks the quadruple survivors to 100000 with one sieve each, an
independent engine.
"""

from terna import filter_universal_quadruples, filter_universal_triples, represent, triple_poly
from terna.survey import DEFAULT_TEST_VALUES, reverify_quadruples

print(f"== triples (a, b, c): x(ax+1)+y(by+1)+z(cz+1), test values {DEFAULT_TEST_VALUES} ==")
survivors = filter_universal_triples(c_max=50)
for t in survivors:
    print(f"  {t}")
print(f"{len(survivors)} survivors with c up to 50")
print(f"(2,3,6) is out because represent(..., 48) = {represent(triple_poly((2, 3, 6)), 48)}")
same = filter_universal_triples(c_max=10**4) == survivors
print(f"c up to 10^4 (evidence past the paper's range, not proof): the same {len(survivors)} survivors: {same}")

print()
print("== quadruples (a, b, c, d): x(ax+b)+y(ay+c)+z(az+d), a in [3, 13] ==")
quads = filter_universal_quadruples((3, 13), 1000)
print(f"survivors with no counterexample up to 1000: {quads}")
print(f"still no counterexample up to 100000: {reverify_quadruples(quads, 10**5)}")

print()
print("== the same scan for a in [1, 2] ==")
small = filter_universal_quadruples((1, 2), 1000)
for q in small:
    print(f"  {q}")
print("note: (2,1,1,2) is x(2x+1)+y(2y+1)+z(2z+2), the triangular-number sum")
print("T+T+4T in disguise, and (2,0,1,2) is 2x^2+T+4T; both are genuinely")
print("universal, so this scan finds seven survivors, not five.")
