"""Completing the square, searching for witnesses, constructive pipelines.

Every sum of terms x(ax+b) turns into a congruence-constrained diagonal
form: n is attained exactly when M*n + C is attained by the constrained
form.  A witness can then be found either by scanning the constrained
space (method="search") or by replaying the constructive pipeline for one
of the twelve proven clauses (method="constructive"); either way the
triple passes the same checks of the clause identity before it is lifted.
"""

from terna import (
    PROVEN_QUADRUPLES,
    PROVEN_TRIPLES,
    DiagonalForm,
    evaluate,
    quadruple_witness,
    recipe,
    reduce,
    represent,
    triple_poly,
    triple_witness,
    verify,
)

print("== the reduction, on x(x+1) + y(2y+1) + z(3z+1) ==")
poly = triple_poly((1, 2, 3))
rd = reduce(poly)
classes = ", ".join(f"{v} = {c.residue} (mod {c.modulus})" for v, c in zip("xyz", rd.constrained.classes))
print(f"{poly}  represents n  iff  {DiagonalForm(rd.constrained.coeffs)} with {classes}")
print(f"represents {rd.M}n + {rd.C}")

print()
print("== search witnesses ==")
for n in (0, 1, 9, 2024):
    w = represent(poly, n)
    print(f"n = {n}: witness {tuple(w)}, check evaluate = {evaluate(poly, w)}")

print()
print("== constructive witnesses for all twelve proven clauses ==")
n = 31_415
for trip in PROVEN_TRIPLES:
    w = triple_witness(trip, n, method="constructive")
    rec = recipe(trip)
    assert verify(triple_poly(trip), n, w)
    print(f"triple {trip} (clause {rec.id:>3}): n = {n} at (x,y,z) = {tuple(w)}")
for quad in PROVEN_QUADRUPLES:
    w = quadruple_witness(quad, n, method="constructive")
    rec = recipe(quad)
    print(f"quadruple {quad} (clause {rec.id:>3}): n = {n} at (x,y,z) = {tuple(w)}")

print()
print("== the pipelines never disagree with plain search about representability ==")
trip = (2, 2, 5)
for n in range(5):
    built = triple_witness(trip, n, method="constructive")
    found = triple_witness(trip, n, method="search")
    print(f"n = {n}: constructive {tuple(built)}, search {tuple(found)} (both verify)")
