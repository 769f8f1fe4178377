"""Depth-first frequent-itemset mining over bitmap tidsets.

Frequent single items are picked and ordered by ascending support in one
vectorized pass over the trade list's item supports; each prefix is then
extended only with items later in that order. Each frequent item's tidset
comes from the trade list as a Python ``int`` bitmap (bit t is set when
transaction t contains the item), so a candidate costs one ``prefix & item``
and one ``bit_count()``; ``stats.intersections`` counts exactly those, one
per candidate. The trade list caches those bitmaps across calls and extends
them by the TIDs appended since the last read, so a re-mine after a batch of
appends converts only the batch (``stats.bitmap_tids``). Any extension below
the threshold is pruned together with its whole subtree. No candidate lists
are materialized and the raw transaction database is never touched:
everything runs off the trade-list index, which is why ``stats.raw_passes``
is always 0 here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, starmap
from typing import Iterator

import numpy as np

from .model import Itemset, SupportThreshold, _check_itemset, resolve_threshold
from .tradelist import TradeList

__all__ = ["FrequentItemset", "MineResult", "MineStats", "mine", "remine"]


@dataclass(frozen=True, slots=True)
class FrequentItemset:
    """An itemset (canonical ascending-ordinal tuple) with its support count."""

    itemset: Itemset
    support: int

    def __post_init__(self) -> None:
        _check_itemset(self.itemset, "frequent itemset")


# mine and mine_apriori build each FrequentItemset through its slots' own
# setters, which get past the frozen __setattr__ and the check: their
# itemsets are canonical.
_new_object = object.__new__
_set_itemset = FrequentItemset.__dict__["itemset"].__set__
_set_support = FrequentItemset.__dict__["support"].__set__


def _frequent_itemset(itemset: Itemset, support: int) -> FrequentItemset:
    fi = _new_object(FrequentItemset)
    _set_itemset(fi, itemset)
    _set_support(fi, support)
    return fi


@dataclass(frozen=True)
class MineStats:
    """Instrumentation attached to every mining result.

    ``raw_passes`` counts full scans of the horizontal transaction database.
    ``intersections`` is the tidset miner's work counter and
    ``containment_checks`` the level-wise baseline's; exactly one of them is
    nonzero for a given result, and ``work_ops`` is whichever applies.
    ``bitmap_tids`` counts the TIDs the tidset miner turned into bitmap bits
    in this call: the entries appended to its frequent items since the trade
    list last converted them (none when fewer than two items are frequent).
    It is exact while no other call reads the same trade list's bitmaps.
    """

    raw_passes: int
    intersections: int = 0
    containment_checks: int = 0
    bitmap_tids: int = 0
    elapsed_s: float = 0.0

    @property
    def work_ops(self) -> int:
        return self.intersections + self.containment_checks


@dataclass
class MineResult:
    """Frequent itemsets grouped by size, in canonical order, plus stats.

    ``levels[k-1]`` holds the k-itemsets; every level list is sorted by the
    canonical (ascending item ordinal) tuple, so two correct miners produce
    identical results object-for-object.
    """

    levels: list[list[FrequentItemset]]
    stats: MineStats

    def __iter__(self) -> Iterator[FrequentItemset]:
        return chain.from_iterable(self.levels)

    @property
    def n_itemsets(self) -> int:
        return sum(len(level) for level in self.levels)

    def level(self, k: int) -> list[FrequentItemset]:
        """The frequent k-itemsets (empty list if the result has no level k)."""
        if 1 <= k <= len(self.levels):
            return self.levels[k - 1]
        return []

    def pairs(self) -> set[tuple[Itemset, int]]:
        """The result as a set of (itemset, support) pairs, for equality checks."""
        return {(fi.itemset, fi.support) for fi in self}

    def support_map(self) -> dict[Itemset, int]:
        return {fi.itemset: fi.support for fi in self}


def mine(tl: TradeList, threshold: SupportThreshold | int) -> MineResult:
    """Mine every itemset whose tidset meets the threshold.

    Singleton supports are read straight off the tidset lengths (no
    intersection charged); deeper levels pay one counted bitmap intersection
    per candidate.
    """
    start = time.perf_counter()
    minsupp = resolve_threshold(threshold, tl.n_transactions)
    supports = tl.supports()
    frequent = np.flatnonzero(supports >= minsupp)
    # Stable, so equal supports keep ascending item order.
    frequent = frequent[np.argsort(supports[frequent], kind="stable")]
    order = frequent.tolist()
    found: list[tuple[Itemset, int]] = [
        ((i,), support) for i, support in zip(order, supports[frequent].tolist())
    ]
    n_intersections = 0

    def extend(prefix: Itemset, prefix_bits: int, rest: list[tuple[int, int]]) -> None:
        nonlocal n_intersections
        n_intersections += len(rest)
        for q, (item, bits) in enumerate(rest):
            common = prefix_bits & bits
            support = common.bit_count()
            if support >= minsupp:
                grown = prefix + (item,)
                found.append((grown, support))
                extend(grown, common, rest[q + 1 :])

    tids_before = tl.bitmap_tids
    if len(order) > 1:
        entries = [(i, tl.bitmap(i)) for i in order]
        for p, (item, bits) in enumerate(entries):
            extend((item,), bits, entries[p + 1 :])

    by_level: dict[int, list[tuple[Itemset, int]]] = {}
    for itemset, support in found:
        by_level.setdefault(len(itemset), []).append((tuple(sorted(itemset)), support))
    # Canonical itemsets are distinct, so sorting the pairs sorts by itemset.
    levels = [
        list(starmap(_frequent_itemset, sorted(by_level[k]))) for k in sorted(by_level)
    ]
    stats = MineStats(
        raw_passes=0,
        intersections=n_intersections,
        bitmap_tids=tl.bitmap_tids - tids_before,
        elapsed_s=time.perf_counter() - start,
    )
    return MineResult(levels, stats)


#: Mine again at a changed threshold: the same function as :func:`mine`,
#: named for the support-change scenario, where no raw-database pass occurs
#: (``stats.raw_passes == 0``).
remine = mine
