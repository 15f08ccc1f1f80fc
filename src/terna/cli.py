"""Command-line surface: parse form expressions, run the engines, report.

Accepted form syntax (whitespace-insensitive): a sum of exactly three
terms in the distinct variables x, y, z, each term either ``[k]v^2``
(a square with optional integer coefficient) or ``v([a]v[+b])`` (one
quadratic term, inner coefficient defaulting to 1, shift defaulting
to 0).  Examples: ``21x^2+14y^2+6z^2``, ``x(2x+1)+y(3y+1)+z(6z+1)``,
``x^2+y(3y+1)+z(3z+2)``.  ``parse_form`` returns the core types: a
``DiagonalForm`` when every term is a square, else a ``PolySum``, terms
in written order; ``str()`` of either is a text that parses back to it.
The position a ``FormParseError`` carries indexes the text as given,
whitespace included.

Exit codes: 0 on success/agreement, 1 when a check reports findings
(mismatches, discrepancies, nonempty scans, failed lemma searches),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .core import DiagonalForm, PolySum, PreconditionError, Term, TernaError
from .families import FAMILIES, crosscheck
from .lemmas import (
    check_3x2_6y2,
    five_descent,
    rep_5x2_5y2_z2_odd,
    rep_x2_2y2_odd,
    rep_x2_3y2_6z2,
    rep_x2_y2_2z2_coprime3,
)
from .search import SieveReport, exceptional_set, represent, represent_all
from .survey import (
    DEFAULT_TEST_VALUES,
    filter_universal_quadruples,
    filter_universal_triples,
    scan_5x2_5y2_4z2,
    verify_conjectured_triples,
)
from .witnesses import diagonal_bridge, quadruple_witness, triple_witness


class FormParseError(TernaError):
    """Malformed form expression; carries the character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ArityError(TernaError):
    """A form expression does not use exactly the variables x, y, z once each."""


# one term: [k]v^2, or v([a]v[+b])
_TERM = re.compile(r"(\d*)([xyz])\^2|([xyz])\((\d*)([xyz])(?:\+(\d+))?\)")


def parse_form(text: str) -> DiagonalForm | PolySum:
    """Parse a three-variable form expression; see the module docstring."""
    squeezed = "".join(text.split())
    # where[i]: the position in text of squeezed[i], or of the end of text
    where = [i for i, ch in enumerate(text) if not ch.isspace()] + [len(text)]
    used, terms, squares, pos = [], [], 0, 0
    while True:
        m = _TERM.match(squeezed, pos)
        if not m:
            if squeezed[pos : pos + 1] in ("+", ""):
                raise FormParseError("empty term", where[pos])
            raise FormParseError(f"cannot parse a term from {squeezed[pos:]!r}", where[pos])
        coeff, square, outer, a, inner, shift = m.groups()
        if outer != inner:
            raise FormParseError(f"term mixes variables {outer} and {inner}", where[pos])
        k = int(coeff or a or 1)
        if k < 1:
            raise FormParseError("coefficient must be positive", where[pos])
        used.append(square or outer)
        terms.append(Term(k, int(shift or 0)))
        squares += square is not None
        pos = m.end()
        if pos == len(squeezed):
            break
        if squeezed[pos] != "+":
            raise FormParseError(f"expected '+' or the end, got {squeezed[pos]!r}", where[pos])
        pos += 1
    if len(terms) != 3:
        raise ArityError(f"need exactly 3 terms, got {len(terms)}")
    if sorted(used) != ["x", "y", "z"]:
        raise ArityError(f"need each of x, y, z exactly once, got {used}")
    if squares == 3:
        return DiagonalForm(tuple(t.a for t in terms))
    return PolySum(tuple(terms))


# --- report serialization ---------------------------------------------------


def sieve_report_to_json(report: SieveReport, with_timing: bool = True) -> str:
    return json.dumps(
        {
            "form": report.form,
            "limit": report.limit,
            "exceptions": list(report.exceptions),
            "elapsed_ms": report.elapsed_ms if with_timing else 0,
        }
    )


def sieve_report_to_csv(report: SieveReport) -> str:
    # one integer per row needs no quoting: the text csv.writer would write
    return "\n".join(["exception", *map(str, report.exceptions)]) + "\n"


# --- subcommands ------------------------------------------------------------


def _cmd_exceptions(args) -> int:
    form = parse_form(args.form)
    report = exceptional_set(form, args.limit)
    if args.json:
        print(sieve_report_to_json(report, with_timing=not args.no_timing))
    elif args.csv:
        sys.stdout.write(sieve_report_to_csv(report))
    else:
        print(f"form: {report.form}")
        print(f"limit: {report.limit}")
        print(f"exceptions ({len(report.exceptions)}): {' '.join(map(str, report.exceptions)) or '-'}")
        if not args.no_timing:
            print(f"elapsed_ms: {report.elapsed_ms}")
    return 0


def _cmd_represent(args) -> int:
    form = parse_form(args.form)
    if args.all:
        hits = represent_all(form, args.n)
    else:
        hit = represent(form, args.n)
        hits = [] if hit is None else [hit]
    if not hits:
        print(f"{args.n}: no representation")
        return 0
    for h in hits:
        print(f"{args.n} <- ({', '.join(str(v) for v in h)})")
    return 0


def _cmd_witness(args) -> int:
    if args.triple is not None:
        wit = triple_witness(tuple(args.triple), args.n, method=args.method)
    else:
        wit = quadruple_witness(tuple(args.quad), args.n, method=args.method)
    print(f"{args.n} = value at (x, y, z) = ({wit.x}, {wit.y}, {wit.z})  [{args.method}, verified]")
    return 0


def _cmd_survey(args) -> int:
    if args.theorem == "1.1":
        _expect(args.bounds is None or len(args.bounds) == 1, "--theorem 1.1 needs --bounds c_max")
        _expect(args.n_limit is None, "--theorem 1.1 takes no --n-limit; its test values are fixed")
        c_max = args.bounds[0] if args.bounds else 50
        _expect(c_max >= 1, "--theorem 1.1 needs c_max >= 1 in --bounds c_max")
        rows = filter_universal_triples(c_max=c_max, test_values=DEFAULT_TEST_VALUES)
        print(f"universal-candidate triples with c <= {c_max} (test values {DEFAULT_TEST_VALUES}):")
        for t in rows:
            print("  ({},{},{})".format(*t))
        print(f"total: {len(rows)}")
        return 0
    # "1.3" or "remark1.3": argparse allows nothing else
    _expect(args.bounds is None or len(args.bounds) == 2, f"--theorem {args.theorem} needs --bounds lo,hi")
    _expect(args.bounds is None or args.bounds[0] <= args.bounds[1], f"--theorem {args.theorem} needs lo <= hi in --bounds lo,hi")
    _expect(args.bounds is None or args.bounds[0] >= 1, f"--theorem {args.theorem} needs lo >= 1 in --bounds lo,hi")
    a_range = tuple(args.bounds) if args.bounds else ((3, 13) if args.theorem == "1.3" else (1, 2))
    n_limit = 1000 if args.n_limit is None else args.n_limit
    rows = filter_universal_quadruples(a_range=a_range, n_limit=n_limit)
    print(f"surviving quadruples for a in {a_range}, n <= {n_limit}:")
    for q in rows:
        print("  ({},{},{},{})".format(*q))
    print(f"total: {len(rows)}")
    return 0


def _cmd_conjecture(args) -> int:
    findings = 0
    for triple, report in verify_conjectured_triples(args.limit):
        status = "empty" if report.is_empty() else f"EXCEPTIONS {report.exceptions[:10]}"
        print(f"({triple[0]},{triple[1]},{triple[2]}) up to {args.limit}: {status}")
        if not report.is_empty():
            findings += 1
    return 1 if findings else 0


def _cmd_scan_remark21(args) -> int:
    report = scan_5x2_5y2_4z2(args.limit)
    for r in (6, 14):
        exc = report.exceptions[r]
        print(f"r={r}: exceptions {list(exc)}")
    return 0


def _cmd_bridge(args) -> int:
    report = diagonal_bridge(args.limit)
    if report.agrees():
        print(f"agreement for all n <= {report.limit}")
        return 0
    for n, lhs, rhs in report.mismatches:
        print(f"mismatch at n={n}: polynomial={lhs} diagonal={rhs}")
    return 1


def _cmd_crosscheck(args) -> int:
    report = crosscheck(FAMILIES[args.family], args.limit)
    if report.agrees():
        print(f"{report.family}: formula matches sieve up to {report.limit}")
        return 0
    print(f"{report.family}: {len(report.discrepancies)} discrepancies, first {report.discrepancies[:10]}")
    return 1


def _cmd_lemma(args) -> int:
    vals = args.args
    try:
        if args.id == "2.1":
            _expect(len(vals) == 2, "lemma 2.1 needs: u v")
            (x, y), trace = five_descent(vals[0], vals[1])
            u, v, x, y = (f"({w})" if w < 0 else w for w in (*vals, x, y))
            print(f"{u}^2+{v}^2 = {x}^2+{y}^2, 5-power stripped: {trace.initial_order}, steps: {len(trace.steps)}")
        elif args.id == "2.2":
            _expect(len(vals) == 2, "lemma 2.2 needs: n r")
            x, y, z = rep_5x2_5y2_z2_odd(vals[0], vals[1])
            print(f"20*{vals[0]}+{vals[1]} = 5*({x})^2+5*({y})^2+({z})^2 (z odd)")
        elif args.id == "2.3i":
            _expect(len(vals) == 1, "lemma 2.3i needs: w")
            u, v = rep_x2_2y2_odd(vals[0])
            print(f"{vals[0]} = {u}^2+2*{v}^2 (both odd)")
        elif args.id == "2.3ii":
            _expect(len(vals) == 1, "lemma 2.3ii needs: w")
            lhs, rhs = check_3x2_6y2(vals[0])
            print(f"w={vals[0]}: 3x^2+6y^2 solvable: {lhs}; (3|w and x^2+2y^2 solvable): {rhs}")
            return 0 if lhs == rhs else 1
        elif args.id == "2.3iii":
            _expect(len(vals) == 2, "lemma 2.3iii needs: n delta")
            x, y, z = rep_x2_3y2_6z2(vals[0], vals[1])
            print(f"6*{vals[0]}+1 = {x}^2+3*{y}^2+6*{z}^2 (x = {vals[1]} mod 2)")
        else:  # 3.1, the last of the parser's choices
            _expect(len(vals) == 1, "lemma 3.1 needs: n")
            x, y, z = rep_x2_y2_2z2_coprime3(vals[0])
            print(f"6*{vals[0]}+1 = {x}^2+{y}^2+2*{z}^2 (none divisible by 3)")
    except PreconditionError:
        raise  # an argument outside the lemma's domain is a usage error
    except TernaError as e:
        print(f"lemma {args.id} failed: {e}")
        return 1
    return 0


class _UsageError(Exception):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="terna", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def threads(p):
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="K",
            help="accepted and ignored: the sieve runs in one process; K below 1 is a usage error",
        )

    p = sub.add_parser("exceptions", help="exceptional set of a form up to a limit")
    p.add_argument("form")
    p.add_argument("--limit", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--no-timing", action="store_true", help="suppress timing fields for byte-identical output")
    threads(p)
    p.set_defaults(func=_cmd_exceptions)

    p = sub.add_parser("represent", help="find witnesses of one value")
    p.add_argument("form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all", action="store_true", help="list every witness instead of the first")
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("witness", help="verified witness for a proven triple or quadruple")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--triple", type=_int_list, metavar="a,b,c")
    which.add_argument("--quad", type=_int_list, metavar="a,b,c,d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("constructive", "search"), default="constructive")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("survey", help="coefficient-space searches")
    p.add_argument("--theorem", choices=("1.1", "1.3", "remark1.3"), required=True)
    p.add_argument("--bounds", type=_int_list, default=None, metavar="c_max|lo,hi")
    p.add_argument("--n-limit", type=int, default=None, help="quadruple surveys only (default 1000)")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("conjecture", help="scan the six conjectured triples")
    p.add_argument("--limit", type=int, required=True)
    threads(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("scan-remark21", help="scan 20n+r against 5x^2+5y^2+(2z)^2")
    p.add_argument("--limit", type=int, required=True)
    threads(p)
    p.set_defaults(func=_cmd_scan_remark21)

    p = sub.add_parser("bridge", help="polynomial vs diagonal equivalence scan")
    p.add_argument("--remark12", action="store_true", required=True)
    p.add_argument("--limit", type=int, required=True)
    threads(p)
    p.set_defaults(func=_cmd_bridge)

    p = sub.add_parser("crosscheck", help="family formula vs sieve")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--limit", type=int, required=True)
    threads(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("lemma", help="run one constructive decomposition")
    p.add_argument("--id", required=True, choices=("2.1", "2.2", "2.3i", "2.3ii", "2.3iii", "3.1"))
    p.add_argument("args", type=int, nargs="*")
    p.set_defaults(func=_cmd_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        threads = getattr(args, "threads", 1)
        _expect(threads >= 1, f"--threads must be >= 1, got {threads}")
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (TernaError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
