import dataclasses

import pytest

import oracles
from terna import FAMILIES, DiagonalForm, ResourceLimitError, crosscheck, families, member, search
from terna.families import (
    DICKSON_1_1_3,
    DICKSON_10_5_2,
    GAUSS_LEGENDRE,
    ExceptionalFamily,
    ProgressionPattern,
    membership,
)


def test_gauss_legendre_membership():
    assert member(GAUSS_LEGENDRE, 7)
    assert member(GAUSS_LEGENDRE, 28)  # 4 * 7
    assert not member(GAUSS_LEGENDRE, 3)
    assert not member(GAUSS_LEGENDRE, 0)
    for n in range(2000):
        assert member(GAUSS_LEGENDRE, n) == oracles.gauss_legendre_excluded(n)


def test_dickson_113_membership():
    assert member(DICKSON_1_1_3, 6)
    assert member(DICKSON_1_1_3, 15)
    assert not member(DICKSON_1_1_3, 7)
    assert member(DICKSON_1_1_3, 9 * 6)  # one scale step


def test_dickson_1052_membership():
    assert member(DICKSON_10_5_2, 3)
    assert not member(DICKSON_10_5_2, 17)  # 17 = 10 + 5 + 2
    assert member(DICKSON_10_5_2, 11)  # 8k+3
    assert member(DICKSON_10_5_2, 25 * 6)  # 25^1 * (5l+1)
    assert not member(DICKSON_10_5_2, 4 * 3)  # {8k+3} does not scale


def test_builtin_families():
    assert list(FAMILIES) == ["gauss", "dickson-113", "dickson-1052"]
    assert [str(f.form) for f in FAMILIES.values()] == ["x^2+y^2+z^2", "x^2+y^2+3z^2", "10x^2+5y^2+2z^2"]


def test_pattern_validation():
    with pytest.raises(ValueError):
        ProgressionPattern(1, 8, 3)
    with pytest.raises(ValueError):
        ProgressionPattern(4, 8, 9)


def test_extra_finite_set():
    fam = ExceptionalFamily(DiagonalForm((1, 1, 1)), (ProgressionPattern(None, 100, 99),), frozenset({5}))
    assert member(fam, 5)
    assert not member(fam, 6)
    assert member(fam, 199)


def test_member_multiplicative_consistency():
    for fam in FAMILIES.values():
        for pattern in fam.patterns:
            if pattern.scale is None:
                continue
            for n in range(1, 3000):
                if pattern.contains(n):
                    assert pattern.contains(pattern.scale * n)


@pytest.mark.parametrize("fam", FAMILIES.values(), ids=lambda f: str(f.form))
def test_membership_bitmap_matches_member(fam):
    assert membership(fam, 10**4) == bytearray(member(fam, n) for n in range(10**4 + 1))


def test_membership_bitmap_residue_zero_and_extra():
    fam = ExceptionalFamily(
        DiagonalForm((1, 1, 1)), (ProgressionPattern(3, 6, 0), ProgressionPattern(None, 100, 99)), frozenset({5, 10**9})
    )
    for limit in (0, 1, 5, 3000):
        assert membership(fam, limit) == bytearray(member(fam, n) for n in range(limit + 1))


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_crosscheck_agrees_to_1e4(key):
    fam = FAMILIES[key]
    report = crosscheck(fam, 10**4)
    assert report.agrees(), report.discrepancies[:10]
    assert report.limit == 10**4
    assert report.family == str(fam.form)


def test_crosscheck_checks_the_bit_cap_before_writing_the_family(monkeypatch):
    # a limit over the cap is refused before membership writes limit bytes
    monkeypatch.setattr(search, "DEFAULT_MAX_BITS", 1000)
    calls = []
    monkeypatch.setattr(families, "membership", lambda *args: calls.append(args))
    with pytest.raises(ResourceLimitError):
        crosscheck(GAUSS_LEGENDRE, 5000)
    assert calls == []


def discrepancies(fam, coeffs, limit):
    missing = set(oracles.naive_diag_exceptions(coeffs, limit))
    return tuple(n for n in range(limit + 1) if member(fam, n) != (n in missing))


# 203 is 3 mod 8, so the last byte of the sieve's bitset is partial
def test_crosscheck_detects_wrong_pairing():
    # deliberately mismatched: Gauss-Legendre's patterns on x^2+y^2+3z^2
    report = crosscheck(dataclasses.replace(GAUSS_LEGENDRE, form=DiagonalForm((1, 1, 3))), 203)
    assert not report.agrees()
    assert report.discrepancies == discrepancies(GAUSS_LEGENDRE, (1, 1, 3), 203)


def test_crosscheck_detects_wrong_extra():
    # the right patterns with two wrong extra values, one past the limit
    fam = dataclasses.replace(GAUSS_LEGENDRE, extra=frozenset({5, 204}))
    report = crosscheck(fam, 203)
    assert report.discrepancies == discrepancies(fam, (1, 1, 1), 203) == (5,)
