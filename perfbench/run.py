"""terna benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; terna is imported from ./src.
One process calls the public API one operation after another (the
only other processes are the --threads 2 sieve workers of sieve-dense).
Rounds of operations repeat until --seconds have passed.

Every measured time is normalized to a nominal host speed by the fixed
probe in hostspeed.py, run between and inside operations; see
perfbench/README.md.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same rounds
twice, first untraced and then with every cross-module call wrapped in a
span, and prints the per-layer metrics; its spans go to perfbench/out/.
The last stdout line is the JSON result; perfbench/README.md explains
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from itertools import islice
from pathlib import Path

import hostspeed  # beside this file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 4  # before and again after the measured rounds
CHILD_PROBES = 3  # host probes at the end of each set-up interpreter
PROBE_EVERY_S = 0.1  # probe the host after this much operation time, and after every round
# traced self times must cover the untraced wall time to within the
# tracing overhead plus this share of it
ACCOUNTING_SLACK = 0.05


class Pass:
    """Outcome of running a number of rounds."""

    def __init__(self):
        # per operation, in compact columns so that bookkeeping adds little
        # to the resident size however many operations run
        self.kinds = array("b")
        self.ids = array("q")
        self.seconds = array("d")  # wall, less the probes taken inside
        self.scale = array("d")  # wall -> normalized seconds
        self.root_ids = array("q")  # root span, in a traced pass
        self.round_rates: list[float] = []  # units per normalized second, one per round
        self.raw_round_rates: list[float] = []  # units per wall second
        self.busy = 0.0  # normalized seconds inside operations
        self.probes = array("d")  # host probe wall times, in order
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}  # exception type -> count


def run_pass(rounds, seconds: float | None, tracer=None, sampler=None) -> Pass:
    """Run rounds until `seconds` have passed (None: until exhausted).
    With an armed hostspeed.InOpSampler, operations are also probed inside."""
    res = Pass()
    t_begin = time.perf_counter()
    last_probe = hostspeed.probe()
    res.probes.append(last_probe)
    for ops in rounds:
        first = len(res.seconds)
        pending: list[list[float]] = []  # probes inside each op since the last probe
        units, since_probe = 0, 0.0
        for j, op in enumerate(ops):
            if tracer is not None:
                res.root_ids.append(len(tracer.names))
            t0 = time.perf_counter()
            if sampler is not None:
                sampler.begin()
            try:
                out = tracer.call(op.span, op.fn, *op.args) if tracer is not None else op.fn(*op.args)
            except Exception as e:  # a failed operation is counted, not fatal
                out, error = None, e
            else:
                error = None
            inside, spent = sampler.end() if sampler is not None else ([], 0.0)
            t1 = time.perf_counter() - spent
            if error is not None:
                ok = False
                res.errors[type(error).__name__] = res.errors.get(type(error).__name__, 0) + 1
            else:
                ok = op.check(out)
            res.attempted += 1
            res.failed += not ok
            res.kinds.append(op.kind)
            res.ids.append(op.id)
            res.seconds.append(t1 - t0)
            res.scale.append(0.0)
            pending.append(inside)
            units += op.units
            since_probe += t1 - t0
            if since_probe >= PROBE_EVERY_S or j == len(ops) - 1:
                p = hostspeed.probe()
                base = len(res.seconds) - len(pending)
                for i, inside in enumerate(pending):
                    res.scale[base + i] = hostspeed.factor([last_probe, *inside, p])
                    res.probes.extend(inside)
                res.probes.append(p)
                last_probe, pending, since_probe = p, [], 0.0
        norm = sum(s * f for s, f in zip(res.seconds[first:], res.scale[first:]))
        res.busy += norm
        res.round_rates.append(units / norm)
        res.raw_round_rates.append(units / sum(res.seconds[first:]))
        if seconds is not None and time.perf_counter() - t_begin >= seconds:
            break
    return res


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Normalized and wall times of fresh interpreters importing terna and
    building the workload's inputs.  Each interpreter then probes the host
    itself, on the core it ran on; the probing is not counted in its time."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
        "workloads.Inputs(sys.argv[3], int(sys.argv[4]))\n"
        "from time import perf_counter; t0 = perf_counter(); import hostspeed, statistics\n"
        f"print(statistics.median(hostspeed.probe() for _ in range({CHILD_PROBES})), perf_counter() - t0)"
    )
    times, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH), workload, str(seed)],
            cwd=ROOT, env=os.environ, check=True, capture_output=True, text=True,
        ).stdout.split()
        t = time.perf_counter() - t0 - float(out[1])
        wall.append(t)
        times.append(t * hostspeed.factor([float(out[0])]))
    return times, wall


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import terna

    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "terna_version": terna.__version__,
    }


def distinct_latencies(res: Pass) -> list[float]:
    """One normalized latency per distinct operation: the median of its
    repeats."""
    by_op: dict[int, list[float]] = {}
    for i, s, f in zip(res.ids, res.seconds, res.scale):
        by_op.setdefault(i, []).append(s * f)
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(res: Pass, setup_s: float, rss_mb: float) -> dict:
    lat = distinct_latencies(res)
    return {
        "throughput_per_s": (statistics.median(res.round_rates), "1/s"),
        "op_ms_p50": (quantile(lat, 50) * 1e3, "ms"),
        "op_ms_p99": (quantile(lat, 99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(labels: list[str], plain: Pass, traced: Pass, tracer, peak: tuple[int, int] | None) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, and detail for the summary
    file.  peak is the sieve's (tracemalloc peak, bitset bytes)."""
    from spans import SCAN_SPANS
    from workloads import WITNESS_CLAUSE_IDS

    rounds = len(traced.round_rates)
    weight = dict(zip(traced.root_ids, traced.scale))
    totals = tracer.totals(weight=weight)

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names) / rounds

    def total_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / rounds

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names) / rounds

    scan_calls = calls(*SCAN_SPANS)
    m = {
        "search.value_mask.s": (total_s("search.value_mask"), "s/round"),
        "search.to_bytes.s": (self_s("search.attainable"), "s/round"),
        "search.extract.s": (self_s("search.exceptional_set"), "s/round"),
        "search.exceptions": (tracer.counts.get("search.exceptions", 0) / rounds, "count/round"),
        "search.scan.calls": (scan_calls, "calls/round"),
        "search.scan.s": (self_s(*SCAN_SPANS), "s/round"),
        "search.scan.hit_ratio": (tracer.counts.get("search.scan.hits", 0) / rounds / scan_calls if scan_calls else 0.0, "ratio"),
        "core.reduce.calls": (calls("core.reduce"), "calls/round"),
        "core.reduce.s": (total_s("core.reduce"), "s/round"),
        "core.lift.s": (total_s("core.lift"), "s/round"),
        "core.normalize_sign.s": (total_s("core.normalize_sign"), "s/round"),
        "core.evaluate.s": (total_s("core.evaluate"), "s/round"),
    }
    for fn in ("rep_5x2_5y2_z2_odd", "rep_x2_3y2_6z2", "rep_x2_y2_2z2_coprime3"):
        m[f"lemmas.{fn}.calls"] = (calls(f"lemmas.{fn}"), "calls/round")
        m[f"lemmas.{fn}.s"] = (total_s(f"lemmas.{fn}"), "s/round")
    m["witnesses.self.s"] = (self_s("witnesses.triple_witness", "witnesses.quadruple_witness"), "s/round")
    by_label: dict[str, list[float]] = {}
    for k, s, f in zip(plain.kinds, plain.seconds, plain.scale):
        by_label.setdefault(labels[k], []).append(s * f)
    for cid in WITNESS_CLAUSE_IDS:
        lat = by_label.get(f"clause {cid}")
        m[f"witnesses.clause.{cid}.ms_p50"] = (quantile(lat, 50) * 1e3 if lat else 0.0, "ms")
        m[f"witnesses.clause.{cid}.ms_p99"] = (quantile(lat, 99) * 1e3 if lat else 0.0, "ms")
    m["witnesses.construction_errors"] = (
        plain.errors.get("ConstructionError", 0) + traced.errors.get("ConstructionError", 0), "count")
    m["witnesses.bridge.self.s"] = (self_s("witnesses.diagonal_bridge"), "s/round")
    m["families.crosscheck.self.s"] = (self_s("families.crosscheck"), "s/round")
    m["cli.self.s"] = (self_s("cli.main"), "s/round")
    m["survey.self.s"] = (self_s("survey.filter_universal_triples", "survey.filter_universal_quadruples"), "s/round")
    m["search.value_mask.peak_mb"] = (peak[0] / 2**20 if peak else 0.0, "MB")
    m["search.peak_over_bitset"] = (peak[0] / peak[1] if peak else 0.0, "ratio")
    overhead = traced.busy / plain.busy
    accounted = sum(row[2] for row in totals.values()) / plain.busy
    m["trace.overhead"] = (overhead, "ratio")
    attempted = plain.attempted + traced.attempted
    m["fail_ratio"] = ((plain.failed + traced.failed) / attempted, "ratio")
    accounting_ok = abs(accounted - 1) <= abs(overhead - 1) + ACCOUNTING_SLACK

    # detail for the summary file: the layer split of the 10^7 sieve alone
    detail = {"trace_accounted": accounted, "accounting_ok": accounting_ok}
    big = {r for k, r in zip(traced.kinds, traced.root_ids) if labels[k] == "(2,3,7)@1e7"}
    if big:
        t = tracer.totals(big, weight)
        n = len(big)
        detail["sieve_1e7_per_call_s"] = {
            "value_mask": t["search.value_mask"][1] / n,
            "to_bytes": t["search.attainable"][2] / n,
            "extract": t["search.exceptional_set"][2] / n,
        }
    detail["op_ms_mean"] = {k: statistics.fmean(v) * 1e3 for k, v in by_label.items()}
    return m, detail


def sieve_peak(limit: int = 10**7) -> tuple[int, int]:
    """tracemalloc peak of one (2,3,7) sieve to limit, and its bitset bytes."""
    from terna.search import exceptional_set
    from terna.witnesses import triple_poly

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = exceptional_set(triple_poly((2, 3, 7)), limit, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if report.exceptions:
        raise RuntimeError("(2,3,7) sieve found exceptions")
    return peak, (limit + 1 + 7) // 8


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "terna" / "__init__.py").is_file():
        print(f"error: no terna sources under {SRC}; run from a terna checkout", file=sys.stderr)
        return 2

    # pin the environment: no inherited worker count
    os.environ.pop("TERNA_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    inputs = workloads.Inputs(args.workload, args.seed)
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": environment()}

    if args.trace == 0:
        setup, setup_wall = setup_probes(args.workload, args.seed)
        with hostspeed.InOpSampler().armed() as sampler:
            res = run_pass(inputs.rounds(), args.seconds, sampler=sampler)
        # before the second probes: a forked child inherits its parent's
        # resident size as its own ru_maxrss
        rss = peak_rss_mb()
        more, more_wall = setup_probes(args.workload, args.seed)
        setup += more
        setup_wall += more_wall
        metrics = end_to_end(res, statistics.median(setup), rss)
        summary.update(setup_samples_s=setup, setup_wall_s=setup_wall)
        correct, attempted, failed = res.failed == 0, res.attempted, res.failed
        summary.update(unit=workloads.UNITS[args.workload], rounds=len(res.round_rates), round_rates=res.round_rates,
                       raw_round_rates=res.raw_round_rates, host_probes_s=list(res.probes),
                       ops=len(res.seconds), distinct_ops=len(distinct_latencies(res)), errors=res.errors)
    else:
        from spans import Tracer

        plain = run_pass(inputs.rounds(), args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(islice(inputs.rounds(), len(plain.round_rates)), None, tracer)
        peak = sieve_peak() if args.workload == "sieve-sparse" else None
        metrics, detail = per_layer(inputs.kinds, plain, traced, tracer, peak)
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        correct = failed == 0 and detail["accounting_ok"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.gz")
        summary.update(rounds=len(plain.round_rates), spans=len(tracer.names),
                       errors={**plain.errors, **traced.errors}, **detail)

    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print("env " + json.dumps(summary["env"]))
    print("samples " + json.dumps({k: summary[k] for k in ("rounds", "ops", "distinct_ops", "spans") if k in summary}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
