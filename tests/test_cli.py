import csv
import dataclasses
import io
import json

import pytest

from terna import DiagonalForm, PolySum, cli, crosscheck, exceptional_set, search
from terna.cli import ArityError, FormParseError, main, parse_form
from terna.families import GAUSS_LEGENDRE
from terna.search import SieveReport
from terna.witnesses import BridgeReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_diagonal():
    assert parse_form("x^2+y^2+z^2") == DiagonalForm((1, 1, 1))
    assert parse_form("21x^2+14y^2+6z^2") == DiagonalForm((21, 14, 6))


def test_parse_polysum():
    assert parse_form("x(2x+1)+y(3y+1)+z(6z+1)") == PolySum.of((2, 1), (3, 1), (6, 1))
    assert parse_form("x(x+1)+y(2y+1)+z(3z+1)") == PolySum.of((1, 1), (2, 1), (3, 1))
    assert parse_form("x(3x)+y(3y+1)+z(3z+2)") == PolySum.of((3, 0), (3, 1), (3, 2))
    # a quadratic term without shift keeps the form a PolySum
    assert parse_form("x(2x)+y(2y)+z(2z)") == PolySum.of((2, 0), (2, 0), (2, 0))


def test_parse_mixed():
    assert parse_form("x^2+y(3y+1)+z(3z+2)") == PolySum.of((1, 0), (3, 1), (3, 2))


def test_parse_whitespace_insensitive():
    assert parse_form(" x^2 + y (3y + 1) + z(3 z+2) ") == parse_form("x^2+y(3y+1)+z(3z+2)")


def test_parse_errors():
    with pytest.raises(FormParseError):
        parse_form("x^2+y^2+w^2")
    with pytest.raises(FormParseError) as e:
        parse_form("x^2++z^2")
    assert e.value.position == 4
    with pytest.raises(FormParseError):
        parse_form("x(2y+1)+y^2+z^2")  # inner variable mismatch
    with pytest.raises(ArityError):
        parse_form("x^2+y^2")
    with pytest.raises(ArityError):
        parse_form("x^2+y^2+y^2")  # duplicate variable
    with pytest.raises(ArityError):
        parse_form("x^2+y^2+z^2+z^2")


@pytest.mark.parametrize(
    "text,position",
    [
        (" x^2 ++ z^2", 6),  # the empty term before the second '+'
        ("x^2 + y^2 + w^2", 12),
        ("(x^2+y^2+z^2", 0),  # the '(' opens no term
        ("x^2+y^2+z^2 )", 12),
        (" 0x^2+y^2+z^2", 1),
        ("x^2 + y(2z + 1) + z^2", 6),
    ],
)
def test_parse_error_positions_index_the_text_as_given(text, position):
    with pytest.raises(FormParseError) as e:
        parse_form(text)
    assert e.value.position == position


def test_printed_form_parses_back():
    texts = [
        "x^2+y^2+z^2",
        "21x^2+14y^2+6z^2",
        "x(2x+1)+y(3y+1)+z(6z+1)",
        "x^2+y(3y+1)+z(3z+2)",
        "z^2+y(3y+1)+x(4x+3)",
        "x(2x)+y(2y+1)+z(2z+2)",
    ]
    for text in texts:
        form = parse_form(text)
        assert parse_form(str(form)) == form


def test_sieve_report_csv():
    from terna.cli import sieve_report_to_csv

    report = exceptional_set(DiagonalForm((1, 1, 1)), 30)
    assert sieve_report_to_csv(report) == "exception\n7\n15\n23\n28\n"
    # the text csv.writer writes, on an empty set and on a dense one
    empty = exceptional_set(PolySum.of((2, 1), (3, 1), (7, 1)), 1000)
    dense = exceptional_set(DiagonalForm((10, 5, 2)), 25000)
    assert not empty.exceptions and len(dense.exceptions) >= 10**4
    for report in (empty, dense):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["exception"])
        writer.writerows([n] for n in report.exceptions)
        assert sieve_report_to_csv(report) == buf.getvalue()


def test_cli_exceptions_human(capsys):
    code, out, _ = run(capsys, "exceptions", "x^2+y^2+z^2", "--limit", "100", "--no-timing")
    assert code == 0
    assert "exceptions (15)" in out
    assert out.rstrip().endswith("95")


def test_cli_exceptions_json(capsys):
    code, out, _ = run(capsys, "exceptions", "x^2+y^2+z^2", "--limit", "100", "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "form": "x^2+y^2+z^2",
        "limit": 100,
        "exceptions": [7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95],
        "elapsed_ms": 0,
    }


def test_cli_exceptions_csv(capsys):
    code, out, _ = run(capsys, "exceptions", "x^2+y^2+z^2", "--limit", "30", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "exception"
    assert out.splitlines()[1:] == ["7", "15", "23", "28"]


def test_cli_deterministic_output(capsys):
    args = ("exceptions", "x(2x+1)+y(3y+1)+z(6z+1)", "--limit", "200", "--json", "--no-timing")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cli_threads_do_not_change_output(capsys, monkeypatch):
    # classes of any width, so that x^2+y^2+3z^2 folds its 48 classes; the
    # accepted --threads changes nothing
    monkeypatch.setattr(search, "_FLOOR", 1)
    base = ("exceptions", "x^2+y^2+3z^2", "--limit", "5000", "--json", "--no-timing")
    _, solo, _ = run(capsys, *base, "--threads", "1")
    _, duo, _ = run(capsys, *base, "--threads", "2")
    assert solo == duo


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_cli_rejects_threads_below_one(capsys, threads):
    code, out, err = run(capsys, "exceptions", "x^2+y^2+z^2", "--limit", "30", "--threads", threads)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --threads must be >= 1, got {threads}\n"


@pytest.mark.parametrize("threads", ["junk", "1.5"])
def test_cli_rejects_unparseable_threads(capsys, threads):
    code, out, err = run(capsys, "exceptions", "x^2+y^2+z^2", "--limit", "30", "--threads", threads)
    assert code == 2
    assert out == ""
    assert "--threads" in err and threads in err


def test_cli_represent(capsys):
    code, out, _ = run(capsys, "represent", "x(2x+1)+y(3y+1)+z(6z+1)", "--n", "48")
    assert code == 0
    assert "no representation" in out
    code, out, _ = run(capsys, "represent", "x^2+y^2+z^2", "--n", "2", "--all")
    assert code == 0
    assert len(out.strip().splitlines()) == 12
    # a term x(ax+b) with b > a takes negative values: (-1, 0, 0) gives -3
    code, out, _ = run(capsys, "represent", "x(x+4)+y^2+z^2", "--n", "-3")
    assert code == 0
    assert out == "-3 <- (-1, 0, 0)\n"


def test_cli_witness(capsys):
    code, out, _ = run(capsys, "witness", "--triple", "1,2,3", "--n", "9", "--method", "constructive")
    assert code == 0
    assert "verified" in out
    code, out, _ = run(capsys, "witness", "--quad", "3,1,2,3", "--n", "5", "--method", "search")
    assert code == 0
    assert "verified" in out


def test_cli_witness_usage_errors(capsys):
    code, _, err = run(capsys, "witness", "--n", "9")
    assert code == 2
    code, _, err = run(capsys, "witness", "--triple", "9,9,9", "--n", "1")
    assert code == 2


def test_cli_survey(capsys):
    code, out, _ = run(capsys, "survey", "--theorem", "1.3")
    assert code == 0
    assert "(3,0,1,2)" in out and "(4,1,2,3)" in out and "total: 5" in out
    code, out, _ = run(capsys, "survey", "--theorem", "1.1", "--bounds", "8")
    assert code == 0
    assert "(2,3,7)" in out
    # --n-limit defaults to 1000 for the quadruple surveys
    code, out, _ = run(capsys, "survey", "--theorem", "remark1.3")
    assert code == 0
    assert "n <= 1000:" in out and "total: 7" in out


def test_cli_survey_refuses_a_width_past_the_bit_cap(capsys):
    code, out, err = run(capsys, "survey", "--theorem", "1.3", "--n-limit", "10000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: survey needs 10000000001 bits")


@pytest.mark.parametrize("theorem", ["1.3", "remark1.3"])
@pytest.mark.parametrize("bounds", ["5", "5,3,2"])
def test_cli_survey_quadruple_bounds_need_lo_hi(capsys, theorem, bounds):
    code, out, err = run(capsys, "survey", "--theorem", theorem, "--bounds", bounds)
    assert code == 2
    assert out == ""
    assert err == f"usage error: --theorem {theorem} needs --bounds lo,hi\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--theorem", "1.1", "--bounds", "3,50,7"), "--theorem 1.1 needs --bounds c_max"),
        (("--theorem", "1.3", "--bounds", "9,3"), "--theorem 1.3 needs lo <= hi in --bounds lo,hi"),
        (("--theorem", "remark1.3", "--bounds", "2,1"), "--theorem remark1.3 needs lo <= hi in --bounds lo,hi"),
        (("--theorem", "1.1", "--bounds", "0"), "--theorem 1.1 needs c_max >= 1 in --bounds c_max"),
        (("--theorem", "1.3", "--bounds=-3,-1"), "--theorem 1.3 needs lo >= 1 in --bounds lo,hi"),
        (("--theorem", "remark1.3", "--bounds", "0,2"), "--theorem remark1.3 needs lo >= 1 in --bounds lo,hi"),
        (("--theorem", "1.1", "--n-limit", "100"), "--theorem 1.1 takes no --n-limit; its test values are fixed"),
    ],
    ids=["1.1-three-values", "1.3-lo-above-hi", "remark1.3-lo-above-hi", "1.1-c_max-0", "1.3-negative", "remark1.3-lo-0",
         "1.1-n-limit"],
)
def test_cli_survey_rejects_bounds_it_would_cut(capsys, argv, message):
    code, out, err = run(capsys, "survey", *argv)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_cli_crosscheck(capsys):
    code, out, _ = run(capsys, "crosscheck", "--family", "gauss", "--limit", "2000")
    assert code == 0
    assert "matches sieve" in out


def test_cli_crosscheck_reports_discrepancies(capsys, monkeypatch):
    # Gauss-Legendre's patterns on x^2+y^2+3z^2, as in the families tests
    wrong = dataclasses.replace(GAUSS_LEGENDRE, form=DiagonalForm((1, 1, 3)))
    monkeypatch.setitem(cli.FAMILIES, "gauss", wrong)
    bad = crosscheck(wrong, 203).discrepancies
    code, out, _ = run(capsys, "crosscheck", "--family", "gauss", "--limit", "203", "--threads", "1")
    assert code == 1
    assert out == f"x^2+y^2+3z^2: {len(bad)} discrepancies, first {bad[:10]}\n"


def test_cli_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "--limit", "500")
    assert code == 0
    assert out.count("empty") == 6


def test_cli_conjecture_reports_a_finding(capsys, monkeypatch):
    reports = [((2, 2, 6), SieveReport("f", 500, (), 0)), ((2, 3, 7), SieveReport("g", 500, (11, 40), 0))]
    monkeypatch.setattr(cli, "verify_conjectured_triples", lambda limit: reports)
    code, out, _ = run(capsys, "conjecture", "--limit", "500", "--threads", "1")
    assert code == 1
    assert out == "(2,2,6) up to 500: empty\n(2,3,7) up to 500: EXCEPTIONS (11, 40)\n"


def test_cli_scan_remark21(capsys):
    code, out, _ = run(capsys, "scan-remark21", "--limit", "50")
    assert code == 0
    assert "r=6" in out and "r=14" in out


def test_cli_bridge(capsys):
    code, out, _ = run(capsys, "bridge", "--remark12", "--limit", "50")
    assert code == 0
    assert "agreement" in out


def test_cli_bridge_reports_a_mismatch(capsys, monkeypatch):
    report = BridgeReport(50, ((3, True, False),), (), (3,))
    monkeypatch.setattr(cli, "diagonal_bridge", lambda limit: report)
    code, out, _ = run(capsys, "bridge", "--remark12", "--limit", "50", "--threads", "1")
    assert code == 1
    assert out == "mismatch at n=3: polynomial=True diagonal=False\n"


def test_cli_lemma(capsys):
    code, out, _ = run(capsys, "lemma", "--id", "2.1", "5", "5")
    assert code == 0 and "7^2+1^2" in out
    # a negative value is squared in parentheses, on either side
    code, out, _ = run(capsys, "lemma", "--id", "2.1", "5", "10")
    assert code == 0 and out.startswith("5^2+10^2 = 11^2+(-2)^2,")
    code, out, _ = run(capsys, "lemma", "--id", "2.1", "-3", "4")
    assert code == 0 and out.startswith("(-3)^2+4^2 = (-3)^2+4^2,")
    code, out, _ = run(capsys, "lemma", "--id", "2.2", "1", "6")
    assert code == 0
    code, out, _ = run(capsys, "lemma", "--id", "2.3ii", "12")
    assert code == 0
    assert run(capsys, "lemma", "--id", "2.3i", "3") == (0, "3 = 1^2+2*1^2 (both odd)\n", "")
    assert run(capsys, "lemma", "--id", "2.3iii", "1", "0") == (0, "6*1+1 = 2^2+3*1^2+6*0^2 (x = 0 mod 2)\n", "")
    code, out, _ = run(capsys, "lemma", "--id", "3.1", "4")
    assert code == 0
    # a lemma search that cannot succeed is a reported finding, not a crash:
    # 9 = 1 + 2*2^2 has no odd-odd decomposition, 5 is no value of x^2+2y^2
    for w in ("9", "5"):
        code, out, err = run(capsys, "lemma", "--id", "2.3i", w)
        assert code == 1 and out.startswith("lemma 2.3i failed:") and not err
    # an argument outside the lemma's stated domain is a usage error
    for argv in (("3.1", "0"), ("2.2", "1", "7"), ("2.3iii", "4", "1"), ("2.1", "1", "1"), ("2.3i", "0")):
        code, out, err = run(capsys, "lemma", "--id", *argv)
        assert code == 2 and not out and err.startswith("error:")
    code, _, _ = run(capsys, "lemma", "--id", "2.1", "5")
    assert code == 2  # wrong arity


def test_cli_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "exceptions", "x^2+y^2", "--limit", "10")[0] == 2
    assert run(capsys, "represent", "x^2+y^2+w^2", "--n", "3")[0] == 2
    assert run(capsys, "scan-remark21", "--limit", "-1")[0] == 2
    assert run(capsys, "survey", "--theorem", "1.3", "--n-limit", "-1")[0] == 2
    # each subcommand takes only the options it reads
    assert run(capsys, "represent", "x^2+y^2+z^2", "--n", "3", "--threads", "2")[0] == 2
    assert run(capsys, "lemma", "--id", "2.1", "5", "5", "--no-timing")[0] == 2
    assert run(capsys, "exceptions", "x^2+y^2+z^2", "--limit", "30", "--json", "--csv")[0] == 2
    # an empty field in a comma list is an error, not a skipped value
    assert run(capsys, "witness", "--triple", "1,,2,3", "--n", "9")[0] == 2
    assert run(capsys, "survey", "--theorem", "1.3", "--bounds", "3,,5")[0] == 2
