"""The constructive decompositions behind the witness pipelines.

The five_descent rotation rewrites a sum of two squares divisible by 5 so
that neither coordinate is divisible by 5; rep_5x2_5y2_z2_odd chains it
into a decomposition 20n+r = 5x^2+5y^2+z^2 with z odd.  The remaining
helpers are deterministic exhaustive searches for decompositions whose
existence is a known fact, each one call into the same search engine as
represent, with its constraints as residue classes.  One of them (odd
coordinates in x^2+2y^2) has a stated form that fails for many inputs:
an odd-odd decomposition exists exactly for the values = 3 (mod 8), and
the failures are surfaced honestly rather than patched over.
"""

from terna import (
    NoOddRepresentationError,
    anomalies_x2_2y2,
    check_3x2_6y2,
    five_descent,
    rep_5x2_5y2_z2_odd,
    rep_x2_2y2_odd,
    rep_x2_3y2_6z2,
    rep_x2_y2_2z2_coprime3,
)

print("== a 5-adic descent, step by step ==")
(x, y), trace = five_descent(75, 50)
print(f"75^2 + 50^2 = {75**2 + 50**2} = {x}^2 + {y}^2, neither coordinate divisible by 5")
print(f"stripped 5-power: {trace.initial_order}")
for step in trace.steps:
    print(f"  {step.before} --signs {step.signs}--> {step.after}   (square sum x 25)")

print()
print("== odd-z decompositions 20n+r = 5x^2+5y^2+z^2 ==")
for n, r in ((0, 6), (0, 14), (7, 6), (123, 14)):
    px, py, pz = rep_5x2_5y2_z2_odd(n, r)
    print(f"20*{n}+{r} = 5*({px})^2 + 5*({py})^2 + ({pz})^2, z odd")

print()
print("== odd-odd decompositions of x^2+2y^2 values, and their failure set ==")
for w in (3, 11, 19, 27):
    u, v = rep_x2_2y2_odd(w)
    print(f"{w} = {u}^2 + 2*{v}^2 with both odd")
try:
    rep_x2_2y2_odd(9)
except NoOddRepresentationError as e:
    print(f"9: {e}")
anomalies = anomalies_x2_2y2(200)
print(f"values up to 200 that are x^2+2y^2 but never odd-odd: {anomalies[:14]} ...")
print("(exactly the attainable values not congruent to 3 mod 8)")

print()
print("== the 3x^2+6y^2 equivalence and two constrained three-term searches ==")
print(f"w=12: {check_3x2_6y2(12)}  w=14: {check_3x2_6y2(14)}")
print(f"6*10+1 = 61: even-x decomposition {rep_x2_3y2_6z2(10, 0)}, odd-x {rep_x2_3y2_6z2(10, 1)}")
print(f"6*10+1 = 61 as x^2+y^2+2z^2 avoiding multiples of 3: {rep_x2_y2_2z2_coprime3(10)}")
