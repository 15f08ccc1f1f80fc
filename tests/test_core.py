import pytest

from terna import (
    CongruenceClass,
    CongruenceViolationError,
    DiagonalForm,
    NoValidSignError,
    PolySum,
    Term,
    Witness,
    embed,
    evaluate,
    lift,
    normalize_sign,
    reduce,
    verify,
)


def test_term_invariants():
    with pytest.raises(ValueError):
        Term(0, 1)
    with pytest.raises(ValueError):
        Term(2, -1)
    assert Term(1, 0).value(3) == 9


def test_polysum_shape_and_zero():
    with pytest.raises(ValueError):
        PolySum((Term(1, 1), Term(2, 1)))
    p = PolySum.of((1, 1), (2, 1), (3, 1))
    assert evaluate(p, (0, 0, 0)) == 0


def test_evaluate_examples():
    p = PolySum.of((1, 1), (2, 1), (3, 1))
    assert evaluate(p, (1, 1, 1)) == 9
    t = PolySum.of((2, 1), (2, 1), (2, 1))
    assert evaluate(t, (-1, 0, 0)) == 1  # x(2x+1) at x=-1 matches x(2x-1) at x=1


def test_reduce_examples():
    rd = reduce(PolySum.of((1, 1), (2, 1), (3, 1)))
    assert (rd.M, rd.C) == (24, 11)
    assert rd.constrained.coeffs == (6, 3, 2)
    assert [(c.modulus, c.residue) for c in rd.constrained.classes] == [(2, 1), (4, 1), (6, 1)]

    rd = reduce(PolySum.of((2, 1), (3, 1), (7, 1)))
    assert (rd.M, rd.C) == (168, 41)
    assert rd.constrained.coeffs == (21, 14, 6)
    assert [(c.modulus, c.residue) for c in rd.constrained.classes] == [(4, 1), (6, 1), (14, 1)]

    rd = reduce(PolySum.of((3, 0), (3, 1), (3, 2)))
    assert (rd.M, rd.C) == (12, 5)
    assert rd.constrained.coeffs == (1, 1, 1)
    assert [(c.modulus, c.residue) for c in rd.constrained.classes] == [(6, 0), (6, 1), (6, 2)]


def test_lift_examples():
    rd = reduce(PolySum.of((1, 1), (2, 1), (3, 1)))
    assert lift(rd, (1, 1, 1)) == Witness(0, 0, 0)
    w = lift(rd, (-1, 1, 1))
    assert w == Witness(-1, 0, 0)
    assert evaluate(rd.source, w) == 0

    rd2 = reduce(PolySum.of((2, 1), (2, 1), (4, 1)))
    w2 = lift(rd2, (1, 5, 1))
    assert w2 == Witness(0, 1, 0)
    assert evaluate(rd2.source, w2) == 3

    with pytest.raises(CongruenceViolationError):
        lift(rd, (2, 1, 1))


def test_verify_examples():
    p = PolySum.of((1, 1), (2, 1), (3, 1))
    assert verify(p, 9, (1, 1, 1))
    t = PolySum.of((2, 1), (2, 1), (2, 1))
    assert not verify(t, 5, (1, 1, -1))  # sums to 7
    assert verify(t, 5, (-1, -1, 1))


def test_normalize_sign_examples():
    assert normalize_sign(7, 4, 1) == -7
    assert normalize_sign(9, 8, 1) == 9
    with pytest.raises(NoValidSignError):
        normalize_sign(3, 8, 1)


def test_normalize_sign_properties():
    for m in (2, 3, 4, 5, 6, 8, 10):
        for r in range(m):
            for w in range(-25, 26):
                ok = w % m == r or (-w) % m == r
                if ok:
                    s = normalize_sign(w, m, r)
                    assert s in (w, -w) and s % m == r
                    if w % m == r:
                        assert s == w  # + sign preferred
                else:
                    with pytest.raises(NoValidSignError):
                        normalize_sign(w, m, r)


REDUCTION_POLYS = [
    ((1, 1), (2, 1), (3, 1)),
    ((1, 1), (2, 1), (4, 1)),
    ((2, 1), (2, 1), (5, 1)),
    ((2, 1), (3, 1), (7, 1)),
    ((3, 0), (3, 1), (3, 2)),
    ((3, 1), (3, 2), (3, 3)),
    ((4, 1), (4, 2), (4, 3)),
    ((1, 0), (3, 1), (3, 2)),
    ((1, 0), (4, 1), (4, 3)),
    ((1, 5), (2, 1), (3, 2)),  # b > a: term takes negative values
    ((5, 3), (2, 2), (7, 0)),
]


@pytest.mark.parametrize("pairs", REDUCTION_POLYS)
def test_reduction_equivalence_small_box(pairs):
    # evaluate(p, t) = n  <=>  sum (L/ai)(2ai ti + bi)^2 = Mn + C,
    # pointwise on a box, plus lift/embed inverse round trips.
    p = PolySum.of(*pairs)
    rd = reduce(p)
    coeffs = rd.constrained.coeffs
    for x in range(-8, 9):
        for y in range(-8, 9):
            for z in range(-8, 9):
                w = (x, y, z)
                ws = embed(rd, w)
                assert sum(c * wi * wi for c, wi in zip(coeffs, ws)) == rd.M * evaluate(p, w) + rd.C
                assert tuple(lift(rd, ws)) == w


def test_embed_lift_identity_on_constrained_triples():
    rd = reduce(PolySum.of((2, 1), (3, 1), (7, 1)))
    for trip in [(1, 1, 1), (5, -5, 15), (-3, 7, -13), (9, 13, 29)]:
        assert embed(rd, lift(rd, trip)) == trip


def test_reflection_invariance_when_shift_equals_coefficient():
    # x(ax+a) = (-x-1)(a(-x-1)+a): third term of (3,1,2,3)
    p = PolySum.of((3, 1), (3, 2), (3, 3))
    for x in range(-10, 11):
        for y in range(-10, 11):
            for z in range(-10, 11):
                assert evaluate(p, (x, y, z)) == evaluate(p, (x, y, -z - 1))


def test_diagonal_form_validation():
    with pytest.raises(ValueError):
        DiagonalForm((0, 1, 1))
    with pytest.raises(ValueError):
        CongruenceClass(4, 4)
    with pytest.raises(ValueError, match="modulus must be positive"):
        CongruenceClass(0, 0)
    assert str(DiagonalForm((21, 14, 6))) == "21x^2+14y^2+6z^2"
    # every variable ranges over all integers unless given a class
    assert DiagonalForm((1, 1, 3)) == DiagonalForm((1, 1, 3), (CongruenceClass(1, 0),) * 3)
    with pytest.raises(ValueError):
        DiagonalForm((1, 1, 1), (CongruenceClass(2, 1),) * 2)
    odd = DiagonalForm((6, 3, 2), (CongruenceClass(2, 1), CongruenceClass(4, 1), CongruenceClass(6, 1)))
    assert str(odd) == "6(2k+1)^2+3(4k+1)^2+2(6k+1)^2"


def test_witness_iteration():
    assert tuple(Witness(1, -2, 3)) == (1, -2, 3)
