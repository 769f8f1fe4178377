"""Command-line front end.

Subcommands build and print the trade-list index, mine frequent itemsets,
generate association rules, apply incremental updates, and benchmark the
tidset miner against the level-wise Apriori baseline, which runs only under
``bench``; every other command mines from the trade list. Log files contain
only data and are byte-identical across runs for the same input and flags;
the timestamp lives in the default file name only, and ``--out`` pins an
exact path for golden tests.

argparse owns every flag: a missing, conflicting or malformed one prints the
usage line and exits 2 before any file is read or written. Values are
converted by the library's own constructors, so a flag is rejected by the
same check the library applies. Errors in the data or in file access print
``error: ...`` and exit 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import chain, repeat
from operator import add, floordiv, mul
from pathlib import Path
from statistics import median
from typing import Callable, TypeVar

import numpy as np

from .apriori import mine_apriori
from .ingest import SyntheticSpec, generate_synthetic, parse_database, parse_into
from .miner import MineResult, mine, remine
from .model import Database, MiningError, ParseError, SupportThreshold, UnknownItemError
from .rules import (
    RuleQuery,
    RuleSet,
    _hundredths_text,
    format_percent,
    generate_rules,
    parse_confidence,
)
from .tradelist import TradeList

__all__ = ["main"]

BENCH_CSV_HEADER = "algo,elapsed_ms,raw_passes,work_ops,n_frequent"

T = TypeVar("T")


# ---------------------------------------------------------------------------
# log rendering

def format_freq_log(result: MineResult, db: Database) -> str:
    """Numbered rows ``<n>-<label>, <label>, ...`` by level, then canonical order."""
    joined = _joined(result.itemsets, db, ", ")
    numbers = map(str, range(1, len(joined) + 1))
    return "".join(chain.from_iterable(zip(numbers, repeat("-"), joined, repeat("\n"))))


def format_rules_log(rules: RuleSet, db: Database) -> str:
    """Rows ``X->Y = <pct>`` with comma-joined labels in canonical order.

    No Python statement runs per rule. Each itemset's labels are joined once,
    a level at a time (``_joined``); the top level holds only unions, which
    no rule shows. Every rule's percentage is computed in one pass of
    ``map``s over its (supp(Z), supp(X)) pair, in Python ints, so
    ``20000 * supp(Z)`` cannot overflow, and each distinct percentage is
    rendered once.
    """
    joined = _joined(rules.itemsets[:-1], db, ",")
    supports: list[int] = []
    for level in rules.supports:
        supports += level.tolist()
    z, x, y = rules.sides.T.tolist()
    supp_x = list(map(supports.__getitem__, x))
    # format_percent's floor(supp(Z) / supp(X) * 10000 + 1/2), rule by rule.
    scaled = map(mul, map(supports.__getitem__, z), repeat(20000))
    hundredths = list(map(floordiv, map(add, scaled, supp_x), map(add, supp_x, supp_x)))
    del z, supp_x  # tens of MB on a million rules, not held while the lines are joined
    text = {h: _hundredths_text(h) for h in set(hundredths)}
    lines = zip(
        map(joined.__getitem__, x),
        repeat("->"),
        map(joined.__getitem__, y),
        repeat(" = "),
        map(text.__getitem__, hundredths),
        repeat("\n"),
    )
    return "".join(chain.from_iterable(lines))


def _joined(itemsets: list[np.ndarray], db: Database, sep: str) -> list[str]:
    """Each row's labels joined by ``sep``, by row.

    A level is rendered whole through C-level ``map``s: each column of
    ordinals to labels, then the zipped columns to one string per row.
    """
    label = db.items.label_getter()
    joined: list[str] = []
    try:
        for level in itemsets:
            joined += map(sep.join, zip(*[map(label, column) for column in level.T.tolist()]))
    except IndexError:
        # Records reject negative ordinals when built: this one is past the end.
        n_items = len(db.items)
        bad = next(row for level in itemsets for row in level.tolist() if row[-1] >= n_items)
        message = f"itemset {tuple(bad)} holds an ordinal the database lacks"
        raise UnknownItemError(message) from None
    return joined


# ---------------------------------------------------------------------------
# shared plumbing

def _stamp() -> str:
    return time.strftime("%Y%m%d_%H%M%S")


def _out_path(args: argparse.Namespace, prefix: str) -> Path:
    if args.out is not None:
        return args.out
    return args.outdir / f"{prefix}_{_stamp()}.log"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _read_text(path: Path) -> str:
    """A transaction file's UTF-8 text, less any leading byte-order mark.

    Undecodable bytes are reported with the file's path.
    """
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_database(args: argparse.Namespace) -> Database:
    if args.synthetic is not None:
        return generate_synthetic(args.synthetic)
    return parse_database(_read_text(args.input))


def _run_miner(db: Database, threshold: SupportThreshold) -> tuple[MineResult, int]:
    """Build the trade list and mine it; returns (result, raw passes used)."""
    tl = TradeList.build(db)
    result = mine(tl, threshold)
    return result, tl.raw_passes + result.stats.raw_passes


def _print_mine_summary(result: MineResult, raw_passes: int) -> None:
    per_level = ", ".join(f"L{k}={len(level)}" for k, level in enumerate(result.supports, 1))
    suffix = f" ({per_level})" if per_level else ""
    print(f"frequent itemsets: {result.n_itemsets}{suffix}")
    stats = result.stats
    print(
        f"raw passes: {raw_passes}; work ops: {stats.work_ops}; "
        f"elapsed: {stats.elapsed_s * 1000:.3f} ms"
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_tradelist(args: argparse.Namespace) -> int:
    db = _load_database(args)
    tl = TradeList.build(db)
    path = _out_path(args, "tradelist")
    _write_text(path, tl.serialize_log())
    print(f"trade list: {tl.n_items} items, {tl.n_transactions} transactions")
    print(f"wrote {path}")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    db = _load_database(args)
    result, raw_passes = _run_miner(db, args.threshold)
    path = _out_path(args, "freq")
    _write_text(path, format_freq_log(result, db))
    _print_mine_summary(result, raw_passes)
    print(f"wrote {path}")
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    db = _load_database(args)
    result, raw_passes = _run_miner(db, args.threshold)
    rules = generate_rules(result, args.query)
    path = _out_path(args, "conf")
    _write_text(path, format_rules_log(rules, db))
    print(
        f"rules: {len(rules)} at min confidence {format_percent(args.query.min_confidence)} "
        f"(from {result.n_itemsets} frequent itemsets, raw passes: {raw_passes})"
    )
    print(f"wrote {path}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Build once, absorb the update file incrementally, re-mine, emit all logs."""
    db = _load_database(args)
    tl = TradeList.build(db)
    added = parse_into(db, _read_text(args.update))
    for row in added:
        tl.add_transaction(row)
    result = remine(tl, args.threshold)
    rules = generate_rules(result, args.query)

    if args.out is not None:
        # --out names a directory here: the update emits all three logs.
        outdir = args.out
        names = ("tradelist.log", "freq.log", "conf.log")
    else:
        outdir = args.outdir
        stamp = _stamp()
        names = (f"tradelist_{stamp}.log", f"freq_{stamp}.log", f"conf_{stamp}.log")
    texts = (
        tl.serialize_log(),
        format_freq_log(result, db),
        format_rules_log(rules, db),
    )
    passes = f"build={tl.raw_passes}, update+re-mine={result.stats.raw_passes}"
    print(f"added {len(added)} transactions; raw passes: {passes}")
    _print_mine_summary(result, tl.raw_passes)
    for name, text in zip(names, texts):
        path = outdir / name
        _write_text(path, text)
        print(f"wrote {path}")
    return 0


def _timed(repeat: int, run: Callable[[], T]) -> tuple[T, float]:
    """The last of ``repeat`` calls' results and their median time in ms."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - t0)
    return out, median(times) * 1000


def cmd_bench(args: argparse.Namespace) -> int:
    """Time both algorithms, verify they agree, report one CSV row per algorithm."""
    db = _load_database(args)
    threshold = args.threshold
    (tl_result, tl_raw), tl_ms = _timed(args.repeat, lambda: _run_miner(db, threshold))
    ap_result, ap_ms = _timed(args.repeat, lambda: mine_apriori(db, threshold))
    ap_raw = ap_result.stats.raw_passes

    if tl_result.pairs() != ap_result.pairs():
        only_tl = sorted(tl_result.pairs() - ap_result.pairs())
        only_ap = sorted(ap_result.pairs() - tl_result.pairs())
        print(
            "error: algorithms disagree; no timings reported "
            f"(only tradelist: {only_tl[:5]}, only apriori: {only_ap[:5]})",
            file=sys.stderr,
        )
        return 1
    if tl_raw > ap_raw:
        print(
            f"error: raw-pass inequality violated (tradelist={tl_raw}, apriori={ap_raw})",
            file=sys.stderr,
        )
        return 1

    print(BENCH_CSV_HEADER)
    for algo, ms, raw, result in (
        ("tradelist", tl_ms, tl_raw, tl_result),
        ("apriori", ap_ms, ap_raw, ap_result),
    ):
        print(f"{algo},{ms:.3f},{raw},{result.stats.work_ops},{result.n_itemsets}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _flag(convert: Callable[[str], T]) -> Callable[[str], T]:
    """An argparse ``type=`` that reports ``convert``'s rejection as a usage error."""

    def parse(text: str) -> T:
        try:
            return convert(text)
        except (MiningError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _synthetic(text: str) -> SyntheticSpec:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected N_TX,N_ITEMS,MEAN,SEED, got {text!r}")
    n_tx, n_items, mean, seed = parts
    return SyntheticSpec(int(n_tx), int(n_items), float(mean), int(seed))


def _repeat(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"must be >= 1, got {count}")
    return count


def _add_source_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=Path, help="transaction file (TID,item,item,...)")
    source.add_argument(
        "--synthetic",
        type=_flag(_synthetic),
        metavar="N_TX,N_ITEMS,MEAN,SEED",
        help="generate the input instead of reading a file",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    output = p.add_mutually_exclusive_group()
    output.add_argument("--out", type=Path, help="exact output path (default: timestamped name)")
    output.add_argument(
        "--outdir", type=Path, default=Path("."), help="directory for default-named logs"
    )


def _add_threshold_args(p: argparse.ArgumentParser) -> None:
    threshold = p.add_mutually_exclusive_group(required=True)
    threshold.add_argument(
        "--minsupp",
        dest="threshold",
        metavar="N",
        type=_flag(lambda text: SupportThreshold.absolute(int(text))),
        help="absolute minimum support count",
    )
    threshold.add_argument(
        "--minsupp-frac",
        dest="threshold",
        metavar="FRAC",
        type=_flag(SupportThreshold.fractional),
        help="fractional minimum support, e.g. 0.05",
    )


def _add_minconf_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--minconf",
        dest="query",
        required=True,
        type=_flag(lambda text: RuleQuery(parse_confidence(text))),
        help="minimum confidence, e.g. 0.7 or 70%%",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketmine",
        description="Frequent-itemset and association-rule mining over a "
        "single-scan vertical trade-list index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradelist", help="build the index and write its log")
    _add_source_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_tradelist)

    p = sub.add_parser("mine", help="mine frequent itemsets")
    _add_source_args(p)
    _add_output_args(p)
    _add_threshold_args(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rules", help="mine, then generate association rules")
    _add_source_args(p)
    _add_output_args(p)
    _add_threshold_args(p)
    _add_minconf_arg(p)
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("update", help="add transactions incrementally and re-mine")
    _add_source_args(p)
    _add_output_args(p)
    _add_threshold_args(p)
    p.add_argument("--update", type=Path, required=True, help="file of additional transactions")
    _add_minconf_arg(p)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("bench", help="benchmark both algorithms on one input")
    _add_source_args(p)
    _add_threshold_args(p)
    p.add_argument("--repeat", type=_flag(_repeat), default=1, help="repetitions per algorithm")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MiningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
