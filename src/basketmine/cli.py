"""Command-line front end.

Subcommands build and print the trade-list index, mine frequent itemsets,
generate association rules, apply incremental updates, and benchmark the
tidset miner against the level-wise baseline. Log files contain only data
and are byte-identical across runs for the same input and flags; the
timestamp lives in the default file name only, and ``--out`` pins an exact
path for golden tests.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

from .apriori import mine_apriori
from .ingest import SyntheticSpec, generate_synthetic, parse_database, parse_into
from .miner import MineResult, mine, remine
from .model import Database, MiningError, ParseError, SupportThreshold
from .rules import Rule, RuleQuery, format_percent, generate_rules, parse_confidence
from .tradelist import TradeList

__all__ = ["RunConfig", "main"]

BENCH_CSV_HEADER = "algo,elapsed_ms,raw_passes,work_ops,n_frequent"


class UsageError(MiningError):
    """Bad flag combination; reported on stderr with exit code 2."""


@dataclass
class RunConfig:
    """Everything a subcommand needs, normalized from the parsed flags."""

    input_path: Path | None = None
    synthetic: SyntheticSpec | None = None
    update_path: Path | None = None
    threshold: SupportThreshold | None = None
    min_confidence: Fraction | None = None
    algo: str = "tradelist"
    out: Path | None = None
    outdir: Path = Path(".")
    repeat: int = 1


# ---------------------------------------------------------------------------
# log rendering

def format_freq_log(result: MineResult, db: Database) -> str:
    """Numbered rows ``<n>-<label>, <label>, ...`` by level, then canonical order."""
    lines = []
    row = 0
    for level in result.levels:
        for fi in level:
            row += 1
            labels = ", ".join(db.items.label(i) for i in fi.itemset)
            lines.append(f"{row}-{labels}")
    return "".join(line + "\n" for line in lines)


def format_rules_log(rules: list[Rule], db: Database) -> str:
    """Rows ``X->Y = <pct>`` with comma-joined labels in canonical order."""
    lines = []
    for rule in rules:
        lhs = ",".join(db.items.label(i) for i in rule.antecedent)
        rhs = ",".join(db.items.label(i) for i in rule.consequent)
        lines.append(f"{lhs}->{rhs} = {format_percent(rule.confidence)}")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# shared plumbing

def _stamp() -> str:
    return time.strftime("%Y%m%d_%H%M%S")


def _out_path(cfg: RunConfig, prefix: str) -> Path:
    if cfg.out is not None:
        return cfg.out
    return cfg.outdir / f"{prefix}_{_stamp()}.log"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _read_text(path: Path) -> str:
    """A transaction file's text; undecodable bytes are reported with its path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_database(cfg: RunConfig) -> Database:
    if (cfg.input_path is None) == (cfg.synthetic is None):
        raise UsageError("exactly one input source is required: --input or --synthetic")
    if cfg.input_path is not None:
        return parse_database(_read_text(cfg.input_path))
    assert cfg.synthetic is not None
    return generate_synthetic(cfg.synthetic)


def _require_threshold(cfg: RunConfig) -> SupportThreshold:
    if cfg.threshold is None:
        raise UsageError("a support threshold is required: --minsupp N or --minsupp-frac F")
    return cfg.threshold


def _require_confidence(cfg: RunConfig) -> RuleQuery:
    if cfg.min_confidence is None:
        raise UsageError("--minconf is required")
    return RuleQuery(cfg.min_confidence)


def _run_miner(db: Database, algo: str, threshold: SupportThreshold) -> tuple[MineResult, int]:
    """Mine with the named algorithm; returns (result, raw passes used)."""
    if algo == "apriori":
        result = mine_apriori(db, threshold)
        return result, result.stats.raw_passes
    tl = TradeList.build(db)
    result = mine(tl, threshold)
    return result, tl.raw_passes + result.stats.raw_passes


def _print_mine_summary(result: MineResult, raw_passes: int) -> None:
    per_level = ", ".join(f"L{k}={len(level)}" for k, level in enumerate(result.levels, 1))
    suffix = f" ({per_level})" if per_level else ""
    print(f"frequent itemsets: {result.n_itemsets}{suffix}")
    stats = result.stats
    print(
        f"raw passes: {raw_passes}; work ops: {stats.work_ops}; "
        f"elapsed: {stats.elapsed_s * 1000:.3f} ms"
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_tradelist(cfg: RunConfig) -> int:
    db = _load_database(cfg)
    tl = TradeList.build(db)
    path = _out_path(cfg, "tradelist")
    _write_text(path, tl.serialize_log())
    print(f"trade list: {tl.n_items} items, {tl.n_transactions} transactions")
    print(f"wrote {path}")
    return 0


def cmd_mine(cfg: RunConfig) -> int:
    db = _load_database(cfg)
    result, raw_passes = _run_miner(db, cfg.algo, _require_threshold(cfg))
    path = _out_path(cfg, "freq")
    _write_text(path, format_freq_log(result, db))
    _print_mine_summary(result, raw_passes)
    print(f"wrote {path}")
    return 0


def cmd_rules(cfg: RunConfig) -> int:
    query = _require_confidence(cfg)
    db = _load_database(cfg)
    result, raw_passes = _run_miner(db, cfg.algo, _require_threshold(cfg))
    rules = generate_rules(result, query)
    path = _out_path(cfg, "conf")
    _write_text(path, format_rules_log(rules, db))
    print(
        f"rules: {len(rules)} at min confidence {format_percent(query.min_confidence)} "
        f"(from {result.n_itemsets} frequent itemsets, raw passes: {raw_passes})"
    )
    print(f"wrote {path}")
    return 0


def cmd_update(cfg: RunConfig) -> int:
    """Build once, absorb the update file incrementally, re-mine, emit all logs."""
    threshold = _require_threshold(cfg)
    query = _require_confidence(cfg)
    if cfg.update_path is None:
        raise UsageError("--update is required")
    db = _load_database(cfg)
    tl = TradeList.build(db)
    added = parse_into(db, _read_text(cfg.update_path))
    for tx in added:
        tl.add_transaction(tx)
    result = remine(tl, threshold)
    if tl.raw_passes != 1 or result.stats.raw_passes != 0:
        raise MiningError(
            "incremental update touched the raw database "
            f"(build={tl.raw_passes}, re-mine={result.stats.raw_passes})"
        )
    rules = generate_rules(result, query)

    if cfg.out is not None:
        # --out names a directory here: the update emits all three logs.
        outdir = cfg.out
        names = ("tradelist.log", "freq.log", "conf.log")
    else:
        outdir = cfg.outdir
        stamp = _stamp()
        names = (f"tradelist_{stamp}.log", f"freq_{stamp}.log", f"conf_{stamp}.log")
    texts = (
        tl.serialize_log(),
        format_freq_log(result, db),
        format_rules_log(rules, db),
    )
    print(f"added {len(added)} transactions; raw passes: build=1, update+re-mine=0")
    _print_mine_summary(result, tl.raw_passes)
    for name, text in zip(names, texts):
        path = outdir / name
        _write_text(path, text)
        print(f"wrote {path}")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    """Time both algorithms, verify they agree, report one CSV row per algorithm."""
    threshold = _require_threshold(cfg)
    if cfg.repeat < 1:
        raise UsageError("--repeat must be >= 1")
    db = _load_database(cfg)

    rows = []
    results = {}
    for algo in ("tradelist", "apriori"):
        times = []
        result = raw = None
        for _ in range(cfg.repeat):
            t0 = time.perf_counter()
            result, raw = _run_miner(db, algo, threshold)
            times.append(time.perf_counter() - t0)
        assert result is not None and raw is not None
        results[algo] = (result, raw)
        rows.append((algo, median(times) * 1000, raw, result.stats.work_ops, result.n_itemsets))

    tl_result, tl_raw = results["tradelist"]
    ap_result, ap_raw = results["apriori"]
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
    for algo, ms, raw, work, n_frequent in rows:
        print(f"{algo},{ms:.3f},{raw},{work},{n_frequent}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _parse_synthetic(text: str) -> SyntheticSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise UsageError("--synthetic expects n_transactions,n_items,mean_length,seed")
    try:
        return SyntheticSpec(int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise UsageError(f"bad --synthetic value: {exc}") from None


def _add_common_args(p: argparse.ArgumentParser, *, algo: bool = False) -> None:
    p.add_argument("--input", type=Path, help="transaction file (TID,item,item,...)")
    p.add_argument(
        "--synthetic",
        metavar="N_TX,N_ITEMS,MEAN,SEED",
        help="generate the input instead of reading a file",
    )
    p.add_argument("--out", type=Path, help="exact output path (default: timestamped name)")
    p.add_argument(
        "--outdir", type=Path, default=Path("."), help="directory for default-named logs"
    )
    if algo:
        p.add_argument(
            "--algo",
            choices=("tradelist", "apriori"),
            default="tradelist",
            help="mining algorithm (default: tradelist)",
        )


def _add_threshold_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--minsupp", type=int, help="absolute minimum support count")
    p.add_argument("--minsupp-frac", metavar="FRAC", help="fractional minimum support, e.g. 0.05")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketmine",
        description="Frequent-itemset and association-rule mining over a "
        "single-scan vertical trade-list index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradelist", help="build the index and write its log")
    _add_common_args(p)
    p.set_defaults(func=cmd_tradelist)

    p = sub.add_parser("mine", help="mine frequent itemsets")
    _add_common_args(p, algo=True)
    _add_threshold_args(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rules", help="mine, then generate association rules")
    _add_common_args(p, algo=True)
    _add_threshold_args(p)
    p.add_argument("--minconf", help="minimum confidence, e.g. 0.7 or 70%%")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("update", help="add transactions incrementally and re-mine")
    _add_common_args(p)
    _add_threshold_args(p)
    p.add_argument("--update", type=Path, help="file of additional transactions")
    p.add_argument("--minconf", help="minimum confidence, e.g. 0.7 or 70%%")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("bench", help="benchmark both algorithms on one input")
    _add_common_args(p)
    _add_threshold_args(p)
    p.add_argument("--repeat", type=int, default=1, help="repetitions per algorithm")
    p.set_defaults(func=cmd_bench)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.minsupp is not None and getattr(args, "minsupp_frac", None) is not None:
        raise UsageError("give only one of --minsupp / --minsupp-frac")
    threshold = None
    if args.minsupp is not None:
        threshold = SupportThreshold.absolute(args.minsupp)
    elif getattr(args, "minsupp_frac", None) is not None:
        threshold = SupportThreshold.fractional(args.minsupp_frac)
    return RunConfig(
        input_path=args.input,
        synthetic=_parse_synthetic(args.synthetic) if args.synthetic else None,
        update_path=getattr(args, "update", None),
        threshold=threshold,
        min_confidence=(
            parse_confidence(args.minconf)
            if getattr(args, "minconf", None) is not None
            else None
        ),
        algo=getattr(args, "algo", "tradelist"),
        out=args.out,
        outdir=args.outdir,
        repeat=getattr(args, "repeat", 1),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "minsupp"):  # tradelist takes no threshold flags
        args.minsupp = None
    try:
        cfg = _config_from_args(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MiningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
