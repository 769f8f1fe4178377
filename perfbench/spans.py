"""Layer spans recorded from outside the program.

While a :class:`Tracer` is installed, the module-level names that
``basketmine.cli`` calls and the methods of ``Database`` and ``TradeList``
are replaced by wrappers that record a span (name, start, end, parent) around
each call and tally the work counters the call returns. Nothing under the
program's source changes; uninstalling restores the originals.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

from basketmine import cli
from basketmine.model import Database
from basketmine.tradelist import TradeList

#: Span name of the root of every traced CLI call; its self time is the CLI
#: layer's argument handling, printing and file writes.
ROOT = "cli.main"

Span = tuple[str, float, float, int]  # name, start, end, index of parent span (-1: none)


class Tracer:
    """Spans and counters of one traced run of the CLI commands, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.indexes: list[TradeList] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @property
    def total_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def self_times(self) -> dict[str, float]:
        """Per span name: its duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span, times relative to the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent]) + "\n")


# -- counters tallied from what each call returns ----------------------------

def _parsed(tr: Tracer, args, db) -> None:
    tr.counts["ingest.tx"] += db.n_transactions
    tr.counts["ingest.input_bytes"] += len(args[0])  # inputs are ASCII


def _parsed_into(tr: Tracer, args, added) -> None:
    tr.counts["ingest.tx"] += len(added)
    tr.counts["ingest.input_bytes"] += len(args[1])


def _built(tr: Tracer, args, tl) -> None:
    tr.indexes.append(tl)
    tr.counts["tradelist.raw_passes"] = max(tr.counts["tradelist.raw_passes"], tl.raw_passes)


def _serialized(tr: Tracer, args, text) -> None:
    tr.counts["tradelist.log_bytes"] += len(text)


def _mined(tr: Tracer, args, result) -> None:
    tr.counts["miner.intersections"] += result.stats.intersections
    tr.counts["miner.frequent"] += result.n_itemsets
    tr.counts["miner.past_level_1"] += result.n_itemsets - len(result.level(1))
    tr.counts["miner.max_level"] = max(tr.counts["miner.max_level"], len(result.levels))
    tr.counts["miner.raw_passes"] += result.stats.raw_passes


def _ruled(tr: Tracer, args, rules) -> None:
    tr.counts["rules.candidates"] += sum(2 ** len(fi.itemset) - 2 for fi in args[0] if len(fi.itemset) > 1)
    tr.counts["rules.emitted"] += len(rules)


def _rendered(tr: Tracer, args, text) -> None:
    tr.counts["cli.log_bytes"] += len(text)


def _mined_apriori(tr: Tracer, args, result) -> None:
    tr.counts["apriori.raw_passes"] += result.stats.raw_passes
    tr.counts["apriori.containment_checks"] += result.stats.containment_checks


@contextmanager
def installed(tracer: Tracer):
    """Route the program's layer calls through ``tracer`` for the block."""
    patches = [
        (cli, "parse_database", "ingest.parse", _parsed),
        (cli, "parse_into", "ingest.parse_into", _parsed_into),
        (Database, "add_transaction", "model.add_transaction", None),
        (TradeList, "build", "tradelist.build", _built),
        (TradeList, "add_transaction", "tradelist.add", None),
        (TradeList, "serialize_log", "tradelist.serialize", _serialized),
        (cli, "mine", "miner.mine", _mined),
        (cli, "remine", "miner.mine", _mined),
        (cli, "generate_rules", "rules.generate", _ruled),
        (cli, "format_freq_log", "cli.format_freq", _rendered),
        (cli, "format_rules_log", "cli.format_rules", _rendered),
        (cli, "mine_apriori", "apriori.mine", _mined_apriori),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, observe in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
