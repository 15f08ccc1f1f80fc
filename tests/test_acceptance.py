"""Acceptance suite: one test per criterion, full stated ranges.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s, or
in captured output on failure) and asserts the criterion exactly as
stated, with no loosened tolerances.  Criterion 5 is expected to fail on
its small-coefficient clause: the scan provably finds seven surviving
quadruples for a in {1, 2}, not the listed five; see the regression test
in test_survey.py pinning the verified behavior.
"""

import time
from pathlib import Path

import oracles
from terna import (
    CongruenceClass,
    DiagonalForm,
    anomalies_x2_2y2,
    crosscheck,
    diagonal_bridge,
    embed,
    evaluate,
    exceptional_set,
    filter_universal_quadruples,
    filter_universal_triples,
    five_descent,
    lift,
    quadruple_poly,
    quadruple_witness,
    recipe,
    reduce,
    rep_5x2_5y2_z2_odd,
    rep_x2_3y2_6z2,
    rep_x2_y2_2z2_coprime3,
    represent,
    scan_5x2_5y2_4z2,
    triple_poly,
    triple_witness,
    verify,
)
from terna.families import FAMILIES
from terna.lemmas import _is_square, scan_3x2_6y2
from terna.witnesses import (
    LIOUVILLE_TRIPLES,
    MIXED_SQUARE_SUMS,
    PROVEN_QUADRUPLES,
    PROVEN_TRIPLES,
    SMALL_QUADRUPLES,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

SEVENTEEN_TRIPLES = [
    (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10),
]
FIVE_QUADRUPLES = [(3, 0, 1, 2), (3, 1, 1, 2), (3, 1, 2, 2), (3, 1, 2, 3), (4, 1, 2, 3)]
LISTED_SMALL_QUADRUPLES = [(1, 0, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1)]
CONJECTURED = [(2, 2, 6), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10)]


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_gauss_legendre_sieve_1e5():
    t0 = time.perf_counter()
    result = exceptional_set(DiagonalForm((1, 1, 1)), 10**5, workers=1)
    elapsed = time.perf_counter() - t0
    expected = [n for n in range(10**5 + 1) if oracles.gauss_legendre_excluded(n)]
    ok = list(result.exceptions) == expected and elapsed < 60.0
    report(1, "E(x^2+y^2+z^2) to 1e5 matches the 4^k(8l+7) filter, < 60 s",
           ok, f"{len(result.exceptions)} exceptions, {elapsed:.2f}s")


def test_criterion_02_dickson_crosschecks_1e5():
    bad = {}
    for key in ("dickson-113", "dickson-1052"):
        rep = crosscheck(FAMILIES[key], 10**5)
        if not rep.agrees():
            bad[key] = rep.discrepancies[:5]
    report(2, "Dickson formulas for x^2+y^2+3z^2 and 10x^2+5y^2+2z^2 match sieves to 1e5",
           not bad, str(bad) if bad else "0 discrepancies")


def test_criterion_03_proven_triples():
    nonempty = [t for t in PROVEN_TRIPLES if not exceptional_set(triple_poly(t), 10**6).is_empty()]
    failures = []
    for trip in PROVEN_TRIPLES:
        poly = triple_poly(trip)
        for n in range(10**4 + 1):
            w = triple_witness(trip, n, method="constructive")
            if not verify(poly, n, w):
                failures.append((trip, n))
                break
        # the pipeline checks the clause identity multiplier*n + constant =
        # constrained form value for every n; spot-check the stated one here
        multiplier, constant, coeffs, _ = oracles.CLAUSE_IDENTITIES[trip]
        assert multiplier * 0 + constant == sum(
            c * w * w for c, w in zip(coeffs, embed(reduce(poly), triple_witness(trip, 0)))
        )
    ok = not nonempty and not failures
    report(3, "7 proven triples: empty E to 1e6, constructive witnesses verify to 1e4",
           ok, f"nonempty={nonempty} failures={failures[:3]}")


def test_criterion_04_triple_filter():
    got = filter_universal_triples(c_max=50, test_values=(1, 2, 4, 5, 9, 48))
    excluded_236 = represent(triple_poly((2, 3, 6)), 48) is None and (2, 3, 6) not in got
    ok = got == SEVENTEEN_TRIPLES and excluded_236
    report(4, "coefficient scan to c=50 returns exactly the 17 triples, (2,3,6) out via 48",
           ok, f"{len(got)} survivors")


def test_criterion_05_quadruple_filters():
    main = filter_universal_quadruples((3, 13), 1000)
    small = filter_universal_quadruples((1, 2), 1000)
    ten = FIVE_QUADRUPLES + LISTED_SMALL_QUADRUPLES
    from terna.survey import reverify_quadruples

    survivors = reverify_quadruples(ten, 10**5)
    witness_failures = []
    for quad in FIVE_QUADRUPLES:
        poly = quadruple_poly(quad)
        for n in range(10**4 + 1):
            if not verify(poly, n, quadruple_witness(quad, n, method="constructive")):
                witness_failures.append((quad, n))
                break
    ok_main = main == FIVE_QUADRUPLES
    ok_small = small == LISTED_SMALL_QUADRUPLES
    ok_reverify = survivors == ten
    ok = ok_main and ok_small and ok_reverify and not witness_failures
    detail = (
        f"a in [3,13]: {'ok' if ok_main else main}; "
        f"a in [1,2]: {'ok' if ok_small else f'got {len(small)} survivors {small}'}; "
        f"reverify@1e5: {'ok' if ok_reverify else survivors}; witnesses: {witness_failures[:3] or 'ok'}"
    )
    report(5, "quadruple scans match the listed five + five, survive 1e5, witnesses verify to 1e4",
           ok, detail)


def test_criterion_06_conjectured_triples_1e6():
    nonempty = {}
    for t in CONJECTURED:
        rep = exceptional_set(triple_poly(t), 10**6)
        if not rep.is_empty():
            nonempty[t] = rep.exceptions[:5]
    report(6, "all six conjectured triples have empty E to 1e6 (verification, not proof)",
           not nonempty, str(nonempty) if nonempty else "all empty")


def test_criterion_07_even_square_scan_1e4():
    rep = scan_5x2_5y2_4z2(10**4)
    ok = rep.exceptions[6] == (0, 11) and rep.exceptions[14] == (1, 10)
    report(7, "20n+r vs 5x^2+5y^2+(2z)^2 to 1e4: exceptions exactly {0,11} and {1,10}",
           ok, str(rep.exceptions))


def test_criterion_08_bridge_1e5():
    rep = diagonal_bridge(10**5)
    report(8, "(2,3,7) representability equals 168n+41 = 21x^2+14y^2+6z^2 solvability to 1e5",
           rep.agrees(), f"{len(rep.mismatches)} mismatches")


def test_criterion_09_lemma_suites():
    problems = []

    seen = 0
    for u in range(-1000, 1001):
        uu = u * u
        for v in range(-1000, 1001):
            s = uu + v * v
            if s == 0 or s % 5 or s > 10**6:
                continue
            seen += 1
            (x, y), _ = five_descent(u, v)
            if x * x + y * y != s or x % 5 == 0 or y % 5 == 0:
                problems.append(("descent", u, v))
    if seen < 10**6:
        problems.append(("descent-coverage", seen))

    for r in (6, 14):
        for n in range(5001):
            x, y, z = rep_5x2_5y2_z2_odd(n, r)
            if 5 * x * x + 5 * y * y + z * z != 20 * n + r or z % 2 == 0:
                problems.append(("5-5-1", n, r))

    mismatches = scan_3x2_6y2(10**5)
    if mismatches:
        problems.append(("3x2-6y2", mismatches[:5]))

    for n in range(5001):
        if not _is_square(6 * n + 1):
            for parity in (0, 1):
                x, y, z = rep_x2_3y2_6z2(n, parity)
                if x * x + 3 * y * y + 6 * z * z != 6 * n + 1 or x % 2 != parity:
                    problems.append(("x2-3y2-6z2", n, parity))
        if n >= 1:
            x, y, z = rep_x2_y2_2z2_coprime3(n)
            if x * x + y * y + 2 * z * z != 6 * n + 1 or not (x % 3 and y % 3 and z % 3):
                problems.append(("x2-y2-2z2", n))

    anomalies = anomalies_x2_2y2(10**4)
    committed = [
        int(line)
        for line in (DATA_DIR / "lemma23i_anomalies_1e4.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    if anomalies != committed:
        problems.append(("anomaly-list", "recomputed list differs from committed file"))
    if 9 not in anomalies or not anomalies:
        problems.append(("anomaly-list", "expected nonempty list containing 9"))

    report(9, "lemma suites valid on full stated ranges; odd-odd anomaly list committed",
           not problems, str(problems[:4]) if problems else f"descent pairs={seen}, anomalies={len(anomalies)}")


def test_criterion_10_reduction_equivalence():
    clauses = PROVEN_TRIPLES + PROVEN_QUADRUPLES
    polys = [triple_poly(k) if len(k) == 3 else quadruple_poly(k) for k in clauses]
    # the other sums, each once: Liouville (2,2,2) is also quadruple (2,1,1,1)
    others = [*map(triple_poly, LIOUVILLE_TRIPLES), *map(quadruple_poly, SMALL_QUADRUPLES), *MIXED_SQUARE_SUMS]
    polys += list(dict.fromkeys(others))
    bad = []
    for poly in polys:
        rd = reduce(poly)
        coeffs = rd.constrained.coeffs
        for x in range(-20, 21):
            for y in range(-20, 21):
                for z in range(-20, 21):
                    w = (x, y, z)
                    ws = embed(rd, w)
                    if sum(c * wi * wi for c, wi in zip(coeffs, ws)) != 4 * rd.L * evaluate(poly, w) + rd.C:
                        bad.append((str(poly), w))
                    elif tuple(lift(rd, ws)) != w:
                        bad.append((str(poly), w, "lift"))
    table_bad = []
    for key, poly in zip(clauses, polys):
        multiplier, constant, coeffs, classes = oracles.CLAUSE_IDENTITIES[key]
        rd = reduce(poly)
        form = DiagonalForm(coeffs, tuple(CongruenceClass(m, r) for m, r in classes))
        if (multiplier, constant, form) != (4 * rd.L, rd.C, rd.constrained) or recipe(key).reduction != rd:
            table_bad.append(recipe(key).id)
    ok = not bad and not table_bad
    report(10, "witness bijection on the +/-20 box for 12 clauses + the 10 other sums; identities = generic reduction",
           ok, f"box={len(polys)} polys; mismatched clauses: {table_bad or 'none'}")


def test_criterion_11_closing_and_liouville_sums_1e6():
    nonempty = {}
    # the small quadruples are covered by criterion 5's families
    for poly in [*map(triple_poly, LIOUVILLE_TRIPLES), *MIXED_SQUARE_SUMS]:
        rep = exceptional_set(poly, 10**6)
        if not rep.is_empty():
            nonempty[str(poly)] = rep.exceptions[:5]
    report(11, "mixed square sums and the four classical triples: empty E to 1e6",
           not nonempty, str(nonempty) if nonempty else "all empty")
