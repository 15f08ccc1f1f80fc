"""The four benchmark workloads: inputs, operations and their checks.

Every operation calls a public terna function; every check compares its
output with a reference computed here without the engine (the empty
conjectured sets, the 4^k(8l+7) list, plain evaluation of each witness,
and the survivor lists pinned in tests/test_survey.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from terna import cli
from terna.search import exceptional_set
from terna.survey import filter_universal_quadruples, filter_universal_triples
from terna.witnesses import (
    CONJECTURED_TRIPLES,
    PROVEN_QUADRUPLES,
    PROVEN_TRIPLES,
    quadruple_witness,
    recipe,
    triple_poly,
    triple_witness,
)

NAMES = ("sieve-sparse", "sieve-dense", "witness", "survey")

# the unit each workload's throughput counts
UNITS = {
    "sieve-sparse": "values",
    "sieve-dense": "values",
    "witness": "witnesses",
    "survey": "forms",
}

CLI_THREADS = "2"
WITNESS_N_MAX = 10**4
WITNESS_SAMPLE = 4000  # n values drawn per run; a 20 s run uses about 2500
WITNESS_BATCH = 25  # n values per round, each run through all 12 clauses

WITNESS_KEYS = PROVEN_TRIPLES + PROVEN_QUADRUPLES
WITNESS_CLAUSE_IDS = tuple(recipe(k).id for k in WITNESS_KEYS)

SEVENTEEN = [
    (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10),
]
FIVE_QUADRUPLES = [(3, 0, 1, 2), (3, 1, 1, 2), (3, 1, 2, 2), (3, 1, 2, 3), (4, 1, 2, 3)]
# the a in {1, 2} scan provably keeps seven, not the five of the paper's list
SEVEN_SMALL_QUADRUPLES = [
    (1, 0, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1), (2, 0, 1, 1),
    (2, 0, 1, 2), (2, 1, 1, 1), (2, 1, 1, 2),
]


@dataclass(frozen=True)
class Op:
    kind: int  # index into Inputs.kinds, for latency breakdowns
    id: int  # equal ids are repeats of one operation
    span: str  # root span name in a traced run
    fn: Callable
    args: tuple
    units: int  # work decided by this operation
    check: Callable[[object], bool]


def gauss_exceptions(limit: int) -> list[int]:
    """4^k(8l+7) <= limit, sorted."""
    out = []
    p = 1
    while 7 * p <= limit:
        out.extend(range(7 * p, limit + 1, 8 * p))
        p *= 4
    return sorted(out)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# the fixed workloads: (label, span, fn, args, units, check) per operation


def _sparse_ops() -> list[tuple]:
    sizes = [(t, 10**6) for t in CONJECTURED_TRIPLES] + [((2, 3, 7), 10**7)]
    return [
        (
            f"({a},{b},{c})@1e{len(str(limit)) - 1}",
            "search.exceptional_set",
            exceptional_set,
            (triple_poly((a, b, c)), limit, 1),
            limit + 1,
            lambda r, limit=limit: r.limit == limit and r.exceptions == (),
        )
        for (a, b, c), limit in sizes
    ]


def _dense_ops() -> list[tuple]:
    limit, bridge_limit = 10**6, 10**5
    gauss = gauss_exceptions(limit)

    def gauss_json(out):
        rc, text = out
        d = json.loads(text)
        return rc == 0 and d["limit"] == limit and d["elapsed_ms"] == 0 and d["exceptions"] == gauss

    ops = [
        (
            f"crosscheck {fam}",
            "cli.main",
            _run_cli,
            (["crosscheck", "--family", fam, "--limit", str(limit), "--threads", CLI_THREADS],),
            limit + 1,
            lambda out: out[0] == 0 and f"formula matches sieve up to {limit}" in out[1],
        )
        for fam in ("gauss", "dickson-113", "dickson-1052")
    ]
    ops.append(
        (
            "bridge",
            "cli.main",
            _run_cli,
            (["bridge", "--remark12", "--limit", str(bridge_limit), "--threads", CLI_THREADS],),
            bridge_limit + 1,
            lambda out: out == (0, f"agreement for all n <= {bridge_limit}\n"),
        )
    )
    ops.append(
        (
            "exceptions gauss",
            "cli.main",
            _run_cli,
            (["exceptions", "x^2+y^2+z^2", "--limit", str(limit), "--json", "--no-timing", "--threads", CLI_THREADS],),
            limit + 1,
            gauss_json,
        )
    )
    return ops


def _quadruples(lo: int, hi: int) -> int:
    # (a, b, c, d) with a in [lo, hi] and 0 <= b <= c <= d <= a
    return sum(comb(a + 3, 3) for a in range(lo, hi + 1))


def _survey_ops() -> list[tuple]:
    quads = "survey.filter_universal_quadruples"
    return [
        # 1 <= a <= b <= c <= 50
        ("triples c<=50", "survey.filter_universal_triples", filter_universal_triples, (50,),
         comb(52, 3), lambda r: r == SEVENTEEN),
        ("quadruples a in [3,13]", quads, filter_universal_quadruples, ((3, 13), 1000),
         _quadruples(3, 13), lambda r: r == FIVE_QUADRUPLES),
        ("quadruples a in [1,2]", quads, filter_universal_quadruples, ((1, 2), 1000),
         _quadruples(1, 2), lambda r: r == SEVEN_SMALL_QUADRUPLES),
    ]


def _evaluates_to(key: tuple, n: int) -> Callable[[object], bool]:
    if len(key) == 3:
        a, b, c = key
        return lambda w: w.x * (a * w.x + 1) + w.y * (b * w.y + 1) + w.z * (c * w.z + 1) == n
    a, b, c, d = key
    return lambda w: w.x * (a * w.x + b) + w.y * (a * w.y + c) + w.z * (a * w.z + d) == n


class Inputs:
    """Inputs of one workload; ``rounds()`` replays the same endless
    sequence of rounds (lists of operations) on every call.  The seed draws
    the witness sample; the other workloads have fixed inputs."""

    def __init__(self, name: str, seed: int):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        if name == "witness":
            rng = random.Random(seed)
            self.sample = [rng.randrange(WITNESS_N_MAX + 1) for _ in range(WITNESS_SAMPLE)]
            self.kinds = [f"clause {cid}" for cid in WITNESS_CLAUSE_IDS]
        else:
            table = {"sieve-sparse": _sparse_ops, "sieve-dense": _dense_ops, "survey": _survey_ops}[name]()
            self.kinds = [row[0] for row in table]
            self.ops = [Op(i, i, *row[1:]) for i, row in enumerate(table)]

    def rounds(self) -> Iterator[list[Op]]:
        if self.name == "witness":
            yield from self._witness_rounds()
            return
        # a fixed workload repeats the same round; its order is fixed too,
        # since the order changes which large objects live at the same time
        while True:
            yield self.ops

    def _witness_rounds(self) -> Iterator[list[Op]]:
        start = 0
        while True:
            batch = [self.sample[(start + i) % WITNESS_SAMPLE] for i in range(WITNESS_BATCH)]
            start += WITNESS_BATCH
            yield [
                Op(
                    k,
                    n * len(WITNESS_KEYS) + k,
                    "witnesses.triple_witness" if len(key) == 3 else "witnesses.quadruple_witness",
                    triple_witness if len(key) == 3 else quadruple_witness,
                    (key, n, "constructive"),
                    1,
                    _evaluates_to(key, n),
                )
                for n in batch
                for k, key in enumerate(WITNESS_KEYS)
            ]
