"""basketmine benchmark: seeded workloads, checked outputs, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload mine-deep --seed 1 --seconds 20 --trace 0

It benchmarks the program in ``src/`` of the checkout it sits in, in-process
and single-threaded (``threads=1`` throughout). Inputs come from the
benchmark's own seeded generator (``workloads.py``) and are made before any
timing. The timed operations:

  setup     parse the base file and build the trade list (the one raw scan)
  query     remine at the workload's support, generate rules, render both logs
  batch     parse_into one delta batch, add its rows to the index, remine
  update    ``basketmine update --input base --update delta ... --out DIR``
  bench     ``basketmine bench --input base ...`` (both miners, cross-checked)
  generate  ``generate_synthetic`` at the workload's item count and mean length

The two commands run through ``basketmine.cli.main``.

``--trace 0`` repeats rounds of setup, query, the whole batch stream, update,
bench and generate for about ``--seconds`` (at least three rounds), then
measures the peak memory of the two commands in a fresh child process, and
reports the end-to-end metrics. ``--trace 1`` alternates untraced and traced
runs of the two commands for about ``--seconds`` and reports each layer's
self time and work counters from the traced pair of median length (see
``spans.py``).

Every output is compared with the first output of its kind, and that first
one is checked against an independent numpy oracle (``oracle.py``). Each
operation that raises, exits non-zero or fails its check counts in
``failed``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "basketmine" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {SRC / 'basketmine'}; run it from a full checkout")
# The checkout's own source, ahead of any installed copy.
sys.path.insert(0, str(SRC))

from basketmine import (  # noqa: E402
    RuleQuery,
    SupportThreshold,
    SyntheticSpec,
    TradeList,
    generate_rules,
    generate_synthetic,
    parse_confidence,
    parse_database,
    parse_into,
    remine,
)
from basketmine import cli  # noqa: E402
from basketmine.cli import format_freq_log, format_rules_log  # noqa: E402

from oracle import BENCH_HEADER, Oracle, ranks  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Tracer, installed  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

#: A cheap operation is repeated within a round until it has run this long,
#: so that its median rests on enough samples.
MIN_OP_SECONDS = 0.25
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
#: Work of the calibration kernel, and the time it takes at the reference
#: speed (close to the median of a 2-vCPU cloud VM on Python 3.11).
CAL_ROWS = 1250
CAL_MERGES = 3000
REF_CAL_S = 0.0075
#: Batches between two calibrations within the stream.
CAL_EVERY_BATCHES = 10
LOG_NAMES = ("tradelist.log", "freq.log", "conf.log")

END_TO_END_UNITS = {
    "setup_s": "s",
    "remine_s": "s",
    "cli_s": "s",
    "bench_s": "s",
    "generate_s": "s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer time metric -> the span name whose self time it sums.
LAYER_SPANS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.parse_into_s": "ingest.parse_into",
    "model.add_transaction_s": "model.add_transaction",
    "tradelist.build_s": "tradelist.build",
    "tradelist.add_s": "tradelist.add",
    "tradelist.serialize_s": "tradelist.serialize",
    "miner.mine_s": "miner.mine",
    "rules.generate_s": "rules.generate",
    "cli.format_freq_s": "cli.format_freq",
    "cli.format_rules_s": "cli.format_rules",
    "cli.other_s": ROOT_SPAN,
    "apriori.mine_s": "apriori.mine",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "ingest.tx": "count",
    "ingest.input_bytes": "bytes",
    "tradelist.raw_passes": "count",
    "tradelist.entries": "count",
    "tradelist.log_bytes": "bytes",
    "miner.intersections": "count",
    "miner.us_per_intersection": "us",
    "miner.frequent": "count",
    "miner.max_level": "count",
    "miner.yield": "ratio",
    "miner.raw_passes": "count",
    "rules.candidates": "count",
    "rules.emitted": "count",
    "rules.yield": "ratio",
    "cli.log_bytes": "bytes",
    "apriori.raw_passes": "count",
    "apriori.containment_checks": "count",
    "apriori.ns_per_check": "ns",
    "apriori.passes_saved": "count",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


# -- the operations ------------------------------------------------------------

@dataclass(frozen=True)
class Files:
    base: Path
    delta: Path
    out: Path

    @classmethod
    def under(cls, workdir: Path) -> "Files":
        return cls(workdir / "base.txt", workdir / "delta.txt", workdir / "out")


def setup(base_text: str):
    db = parse_database(base_text)
    return db, TradeList.build(db)


def query(w: Workload, db, tl):
    result = remine(tl, SupportThreshold.fractional(w.support))
    rules = generate_rules(result, RuleQuery(parse_confidence(w.confidence)))
    return result, rules, format_freq_log(result, db), format_rules_log(rules, db)


def absorb(w: Workload, db, tl, batch_text: str):
    for tx in parse_into(db, batch_text):
        tl.add_transaction(tx)
    return remine(tl, SupportThreshold.fractional(w.stream_support))


def commands(w: Workload, files: Files) -> dict[str, list[str]]:
    """The two CLI commands, by the name of the operation that times them."""
    return {
        "update": ["update", "--input", str(files.base), "--update", str(files.delta),
                   "--minsupp-frac", w.support, "--minconf", w.confidence, "--out", str(files.out)],
        "bench": ["bench", "--input", str(files.base), "--minsupp-frac", w.bench_support],
    }


def run_cli(argv: list[str], main=None) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = (main or cli.main)(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def generate(w: Workload, seed: int):
    return generate_synthetic(SyntheticSpec(w.n_generate, w.n_items, w.mean_length, seed))


def without_timings(stdout: str) -> tuple[str, ...]:
    """The bench CSV rows minus their elapsed_ms column."""
    lines = stdout.splitlines()
    if BENCH_HEADER not in lines:
        return ()
    rows = (line.split(",") for line in lines[lines.index(BENCH_HEADER) + 1 :])
    return tuple(",".join(fields[:1] + fields[2:]) for fields in rows)


_HAYSTACK = list(range(0, 60, 3))


def calibration_kernel() -> int:
    """Fixed interpreter work in two shapes the program has.

    One part splits, interns and groups labels as parsing and indexing do;
    the other merges sorted integer runs as the miners do. Each tracks the
    host's speed for its own kind of code, and together they track both.
    """
    rows = []
    for i in range(CAL_ROWS):
        key = i * 7919 % 1009
        fields = f"T{i}, I{key},I{key % 97},I{key % 13}".split(",")
        rows.append((fields[0], tuple(sorted({f.strip() for f in fields[1:]}))))
    index: dict[str, list[str]] = {}
    for tid, items in rows:
        for item in items:
            index.setdefault(item, []).append(tid)
    hits = 0
    for i in range(CAL_MERGES):
        j = 0
        for x in (i % 50, i % 50 + 3):
            while j < len(_HAYSTACK) and _HAYSTACK[j] < x:
                j += 1
            if j == len(_HAYSTACK) or _HAYSTACK[j] != x:
                break
            j += 1
        else:
            hits += 1
    return len(index) + hits


# -- bookkeeping -----------------------------------------------------------------

class Ledger:
    """Samples, attempts and failures of the timed operations.

    The host's speed drifts by a fifth over seconds, so the calibration
    kernel runs between timed operations (``calibrate``) and each sample is
    scaled by ``REF_CAL_S`` over the mean of the calibrations just before
    and just after it: samples are seconds at a reference speed. The
    wall-clock times are kept beside them.

    Each output is compared with the first output of its kind; the first is
    checked by the oracle after timing, and if it is wrong every output that
    matched it is counted as failed too.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}
        self.matched: Counter = Counter()
        self._last_cal = REF_CAL_S
        self._pending: list[tuple[str, float]] = []

    def calibrate(self) -> float:
        """Time the kernel and scale the samples taken since the last call; returns the scale."""
        times = []
        gc.disable()  # a collection of the program's heap would be charged to the kernel
        try:
            for _ in range(3):
                start = perf_counter()
                calibration_kernel()
                times.append(perf_counter() - start)
        finally:
            gc.enable()
        cal = statistics.median(times)
        scale = 2 * REF_CAL_S / (self._last_cal + cal)
        for op, elapsed in self._pending:
            self.samples[op].append(elapsed * scale)
        self._pending.clear()
        self._last_cal = cal
        return scale

    def timed(self, op: str, fn):
        """Run ``fn`` as one attempted operation; returns (ok, value)."""
        self.attempted += 1
        start = perf_counter()
        try:
            value = fn()
        except Exception:
            self.fail(f"{op} raised:\n{traceback.format_exc()}")
            return False, None
        elapsed = perf_counter() - start
        self.wall[op].append(elapsed)
        self._pending.append((op, elapsed))
        return True, value

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def compare(self, key, value) -> None:
        if key not in self.first:
            self.first[key] = value
            self.matched[key] += 1
        elif self.first[key] == value:
            self.matched[key] += 1
        else:
            self.fail(f"{key}: output differs from the first run's")

    def verify(self, key, problems: list[str]) -> None:
        for problem in problems:
            self.fail(f"{key}: {problem}", count=0)
        if problems:
            self.failed += self.matched[key]


# -- one benchmark run -------------------------------------------------------------

class Run:
    """A workload's inputs, their oracle, and the ledger of one run."""

    def __init__(self, w: Workload, seed: int, workdir: Path) -> None:
        self.w = w
        self.seed = seed
        self.inputs = make_inputs(w, seed)
        self.files = Files.under(workdir)
        self.files.base.write_text(self.inputs.base_text, encoding="utf-8")
        self.files.delta.write_text(self.inputs.delta_text, encoding="utf-8")
        self.oracle = Oracle(self.inputs.rows, w.n_items)
        self.ledger = Ledger()
        self.n_total = w.n_base + w.n_delta
        self.bench_stdout = ""
        self.setup_log, self.setup_passes = "", 0
        # The full rebuild the batch stream must end equal to; its
        # dictionaries also label every ordinal the stream produces.
        self.rebuilt = setup(self.inputs.base_text + self.inputs.delta_text)
        # Keep the benchmark's own objects out of the program's garbage
        # collections, so they cost what they would in a process of their own.
        gc.collect()
        gc.freeze()

    def ranked(self, itemsets_with_support) -> dict:
        """(ordinal itemset, support) pairs as {item ranks: support}, for the oracle."""
        label = self.rebuilt[0].items.label
        return {ranks(map(label, itemset)): supp for itemset, supp in itemsets_with_support}

    def command(self, name: str, main=None, op: str | None = None) -> bool:
        """Time the CLI command ``name`` (as operation ``op``) and check what it produced."""
        argv = commands(self.w, self.files)[name]
        ok, out = self.ledger.timed(op or name, lambda: run_cli(argv, main))
        self.ledger.calibrate()
        if not ok:
            return False
        code, stdout, stderr = out
        if code != 0:
            self.ledger.fail(f"{name} exited {code}: {stderr.strip()[-300:]}")
            return False
        if name == "update":
            logs = tuple((self.files.out / log).read_text(encoding="utf-8") for log in LOG_NAMES)
            self.ledger.compare(name, logs)
        else:
            if name not in self.ledger.first:
                self.bench_stdout = stdout
            self.ledger.compare(name, without_timings(stdout))
        return True

    def repeated(self, op: str, fn, check) -> object:
        """Run ``op`` until it has taken MIN_OP_SECONDS; returns the last value."""
        spent, value = 0.0, None
        while spent < MIN_OP_SECONDS:
            ok, value = self.ledger.timed(op, fn)
            self.ledger.calibrate()
            if not ok:
                return None
            spent += self.ledger.wall[op][-1]
            check(value)
        return value

    def check_setup(self, state) -> None:
        """Compare a snapshot: the batch stream goes on to grow this index."""
        db, tl = state
        if "setup" not in self.ledger.first:
            self.setup_log, self.setup_passes = tl.serialize_log(), tl.raw_passes
        tidsets = tuple(tuple(tl.tidset(i)) for i in range(tl.n_items))
        self.ledger.compare("setup", (db.items.labels(), db.tids.labels(), tidsets))

    def round(self) -> None:
        """Setup, query, the whole batch stream, update, bench and generate."""
        w, ledger = self.w, self.ledger
        gc.collect()
        ledger.calibrate()
        state = self.repeated("setup", lambda: setup(self.inputs.base_text), self.check_setup)
        if state is None:
            return
        db, tl = state
        self.repeated(
            "query",
            lambda: query(w, db, tl),
            lambda out: ledger.compare("query", (frozenset(out[0].pairs()), tuple(out[1]), out[2], out[3])),
        )
        for j, batch in enumerate(self.inputs.batch_texts):
            ok, result = ledger.timed("batch", lambda: absorb(w, db, tl, batch))
            if (j + 1) % CAL_EVERY_BATCHES == 0 or not ok:
                ledger.calibrate()
            if not ok:
                break
            ledger.compare(("batch", j), frozenset(result.pairs()))
        else:
            if not (tl == self.rebuilt[1] and db == self.rebuilt[0]):
                ledger.fail("batch stream: final state differs from a full rebuild")
        self.command("update")
        self.command("bench")
        self.repeated("generate", lambda: generate(w, self.seed), lambda g: ledger.compare("generate", g))

    # -- oracle checks of each kind's first output

    def verify(self) -> None:
        w, oracle, ledger, first = self.w, self.oracle, self.ledger, self.ledger.first
        n_base, n_total = w.n_base, self.n_total
        minconf = Fraction(w.confidence)
        if "setup" in first:
            problems = oracle.check_tradelist_log(self.setup_log, n_base)
            if self.setup_passes != 1:
                problems.append(f"index build made {self.setup_passes} raw passes, want 1")
            ledger.verify("setup", problems)
        if "query" in first:
            pairs, rules, freq_text, rules_text = first["query"]
            minsupp = oracle.minsupp(w.support, n_base)
            label = self.rebuilt[0].items.label
            confidences = {
                (ranks(map(label, r.antecedent)), ranks(map(label, r.consequent))): r.confidence for r in rules
            }
            ledger.verify(
                "query",
                oracle.check_itemsets(self.ranked(pairs), minsupp, n_base)
                + oracle.check_rules(confidences, len(rules), minsupp, minconf, n_base)
                + oracle.check_freq_log(freq_text, minsupp, n_base)
                + oracle.check_rules_log(rules_text, minsupp, minconf, n_base),
            )
        for j in range(w.batches):
            if ("batch", j) in first:
                n = n_base + (j + 1) * w.batch_size
                minsupp = oracle.minsupp(w.stream_support, n)
                ledger.verify(("batch", j), oracle.check_itemsets(self.ranked(first[("batch", j)]), minsupp, n))
        if "update" in first:
            tradelist_log, freq_log, conf_log = first["update"]
            minsupp = oracle.minsupp(w.support, n_total)
            ledger.verify(
                "update",
                oracle.check_tradelist_log(tradelist_log, n_total)
                + oracle.check_freq_log(freq_log, minsupp, n_total)
                + oracle.check_rules_log(conf_log, minsupp, minconf, n_total),
            )
        if "bench" in first:
            minsupp = oracle.minsupp(w.bench_support, n_base)
            ledger.verify("bench", oracle.check_bench_csv(self.bench_stdout, minsupp, n_base))
        if "generate" in first:
            ledger.verify("generate", self.check_generated(first["generate"]))

    def check_generated(self, db) -> list[str]:
        """The program's own generator: size, labels and lengths as specified."""
        w = self.w
        problems = []
        if db.n_transactions != w.n_generate:
            problems.append(f"generated {db.n_transactions} rows, want {w.n_generate}")
        if db.tids.labels() != tuple(f"T{t + 1}" for t in range(db.n_transactions)):
            problems.append("generated TIDs are not T1..Tn")
        if not set(db.items.labels()) <= {f"I{g + 1}" for g in range(w.n_items)}:
            problems.append(f"generated item labels outside I1..I{w.n_items}")
        if any(not 1 <= len(tx) <= w.n_items for tx in db.transactions):
            problems.append("a generated row has a length outside [1, n_items]")
        return problems

    # -- the two kinds of run

    def end_to_end(self, seconds: float) -> dict[str, float]:
        start, rounds = perf_counter(), 0
        # Start a round only if it is expected to end within the time given.
        while rounds < MIN_ROUNDS or (perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            self.round()
            rounds += 1
        self.verify()
        samples = self.ledger.samples
        if not all(samples[op] for op in ("setup", "query", "batch", "update", "bench", "generate")):
            return {}
        batch_ms = [s * 1000 for s in samples["batch"]]
        metrics = {
            "setup_s": statistics.median(samples["setup"]),
            "remine_s": statistics.median(samples["query"]),
            "cli_s": statistics.median(samples["update"]),
            "bench_s": statistics.median(samples["bench"]),
            "generate_s": statistics.median(samples["generate"]),
            "batch_p50_ms": statistics.median(batch_ms),
            "batch_p90_ms": statistics.quantiles(batch_ms, n=10)[8],
            "peak_rss_mb": self.peak_rss_mb(),
        }
        print(f"rounds: {rounds} in {perf_counter() - start:.1f} s")
        for op, wall in self.ledger.wall.items():
            print(f"  {op:10s} {len(wall):5d} samples, wall-clock median {statistics.median(wall):.6f} s")
        return metrics

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the update and bench commands, in a fresh child process."""
        self.ledger.attempted += 1
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", self.w.name,
                "--seed", str(self.seed), "--seconds", "0", "--child", str(self.files.base.parent)]
        try:
            child = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                   text=True, timeout=CHILD_TIMEOUT_S, check=False)
            if child.returncode != 0:
                self.ledger.fail(f"memory child exited {child.returncode}: {child.stderr.strip()[-300:]}")
        except subprocess.TimeoutExpired:  # killed and waited for
            self.ledger.fail(f"memory child ran past {CHILD_TIMEOUT_S} s")
        # The only child this process waits for, so this is its peak (KiB),
        # also when it failed.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def per_layer(self, seconds: float) -> dict[str, float]:
        """Alternate untraced and traced command pairs; break down the median traced pair.

        Span times are scaled like the samples, by the traced pair's scaled
        time over its wall-clock time.
        """
        ledger = self.ledger
        traced: list[tuple[float, float, Tracer]] = []  # (scaled total, scale, tracer)
        start, pairs = perf_counter(), 0
        while pairs < MIN_ROUNDS or perf_counter() - start < seconds:
            gc.collect()
            ledger.calibrate()
            for traced_turn in ((False, True) if pairs % 2 == 0 else (True, False)):
                if not traced_turn:
                    self.command("update")
                    self.command("bench")
                    continue
                tracer = Tracer()
                main = tracer.wrap(ROOT_SPAN, cli.main)
                with installed(tracer):
                    ok = self.command("update", main, "update-traced") and self.command("bench", main, "bench-traced")
                if ok:
                    ops = ("update-traced", "bench-traced")
                    scale = sum(ledger.samples[op][-1] for op in ops) / sum(ledger.wall[op][-1] for op in ops)
                    tl = tracer.indexes[0]  # the update command's index, after the delta
                    tracer.counts["tradelist.entries"] = sum(len(tl.tidset(i)) for i in range(tl.n_items))
                    tracer.indexes.clear()
                    traced.append((tracer.total_s * scale, scale, tracer))
            pairs += 1
        self.verify()
        if not traced or not ledger.samples["update"] or not ledger.samples["bench"]:
            return {}
        traced.sort(key=lambda entry: entry[0])
        traced_s, scale, tracer = traced[len(traced) // 2]
        tracer.write(ROOT / ".perfbench-trace" / f"{self.w.name}.jsonl")
        self_times = {name: t * scale for name, t in tracer.self_times().items()}
        c = tracer.counts
        metrics = {name: self_times.get(span, 0.0) for name, span in LAYER_SPANS.items()}
        for name in PER_LAYER_UNITS:
            metrics.setdefault(name, float(c[name]))
        metrics["miner.us_per_intersection"] = ratio(metrics["miner.mine_s"] * 1e6, c["miner.intersections"])
        metrics["miner.yield"] = ratio(c["miner.past_level_1"], c["miner.intersections"])
        metrics["rules.yield"] = ratio(c["rules.emitted"], c["rules.candidates"])
        metrics["apriori.ns_per_check"] = ratio(metrics["apriori.mine_s"] * 1e9, c["apriori.containment_checks"])
        metrics["apriori.passes_saved"] = float(
            c["apriori.raw_passes"] - c["tradelist.raw_passes"] - c["miner.raw_passes"]
        )
        untraced_s = statistics.median(ledger.samples["update"]) + statistics.median(ledger.samples["bench"])
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["failed_frac"] = ratio(ledger.failed, ledger.attempted)
        print(
            f"pairs: {len(ledger.samples['update'])} untraced, {len(traced)} traced; "
            f"untraced cli_s + bench_s = {untraced_s:.6f} s; median traced pair {traced_s:.6f} s "
            f"= sum of layer self times {sum(self_times.values()):.6f} s; "
            f"trace.overhead_s = the difference"
        )
        return metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- entry point -------------------------------------------------------------------

def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    # Memory child: run the two commands once on the inputs already in DIR.
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.child is not None:
        for argv_ in commands(w, Files.under(args.child)).values():
            code, _, err = run_cli(argv_)
            if code != 0:
                sys.exit(f"{argv_[0]} exited {code}: {err}")
        return 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = Run(w, args.seed, Path(workdir))
        print(f"workload {w.name} seed {args.seed}: inputs sha256 {run.inputs.digest}")
        if args.trace:
            metrics, units = run.per_layer(args.seconds), PER_LAYER_UNITS
        else:
            metrics, units = run.end_to_end(args.seconds), END_TO_END_UNITS
    ledger = run.ledger
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    missing = [name for name in units if name not in metrics or metrics[name] != metrics[name]]  # absent or NaN
    if missing:
        print(f"perfbench: no measurement of {missing}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
