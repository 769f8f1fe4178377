"""Frequent-itemset mining over bitmap tidsets.

Frequent single items are picked and ordered by ascending support in one
vectorized pass over the trade list's item supports; each frequent itemset
is then extended only with items later in that order, and an extension below
the threshold is never extended further. Each frequent item's tidset comes
from the trade list as a Python ``int`` bitmap (bit t is set when
transaction t contains the item), so a candidate costs one AND and one
popcount; ``stats.intersections`` counts exactly those, one per candidate.
The trade list caches those bitmaps across calls and extends them by the
TIDs appended since the last read, so a re-mine after a batch of appends
converts only the batch (``stats.bitmap_tids``).

Two growers test the same candidates. With few frequent items, a depth-first
search ANDs one ``int`` prefix with one item at a time. With many, a
level-wise pass copies the bitmaps into a ``uint64`` numpy matrix once and
counts all of a level's candidates with a few array operations, a bounded
block of them at a time; the frequent ones' ANDed rows seed the next level.
``LEVELWISE_MIN_PAIRS`` picks between them. The raw transaction database is
never touched: everything runs off the trade-list index, which is why
``stats.raw_passes`` is always 0 here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import starmap, zip_longest
from typing import Iterator

import numpy as np

from .model import Itemset, MiningError, SupportThreshold, _check_itemset, resolve_threshold
from .tradelist import TradeList

__all__ = ["FrequentItemset", "MineResult", "MineStats", "mine", "remine"]


@dataclass(frozen=True, slots=True)
class FrequentItemset:
    """An itemset (canonical ascending-ordinal tuple) with its support count."""

    itemset: Itemset
    support: int

    def __post_init__(self) -> None:
        _check_itemset(self.itemset, "frequent itemset")


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


@dataclass(eq=False, slots=True)
class MineResult:
    """Frequent itemsets grouped by size, in canonical order, plus stats.

    ``itemsets[k-1]`` is an ``n_k x k`` int64 array of the k-itemsets, each
    row's ordinals ascending and the rows in canonical order, and
    ``supports[k-1]`` their supports. Records (iterating, ``levels``,
    ``level(k)``) are built when read, with their checked constructor.

    The constructor reads integer arrays as int64 and rejects a level that is
    not ``n x k`` with ``n`` supports, or a row that is not strictly
    increasing ordinals >= 0. The miners skip the check (``_of``).
    """

    itemsets: list[np.ndarray]
    supports: list[np.ndarray]
    stats: MineStats

    def __post_init__(self) -> None:
        for k, (level, support) in enumerate(zip_longest(self.itemsets, self.supports), 1):
            if not (
                all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in (level, support))
                and level.shape[1:] == (k,)
                and support.shape == level.shape[:1]
            ):
                raise MiningError(f"level {k} is not n x {k} integer itemsets with n supports")
        self.itemsets = [level.astype(np.int64) for level in self.itemsets]
        self.supports = [support.astype(np.int64) for support in self.supports]
        list(self)  # each record checks its row, and an unsigned ordinal past int64 is negative

    @classmethod
    def _of(cls, levels: list[tuple[np.ndarray, np.ndarray]], stats: MineStats) -> MineResult:
        """The result of each level's canonical (itemsets, supports), unchecked."""
        result = object.__new__(cls)
        result.itemsets = [itemsets for itemsets, _ in levels]
        result.supports = [supports for _, supports in levels]
        result.stats = stats
        return result

    def __iter__(self) -> Iterator[FrequentItemset]:
        return starmap(FrequentItemset, self._pairs())

    def _pairs(self) -> Iterator[tuple[Itemset, int]]:
        for level, support in zip(self.itemsets, self.supports):
            yield from zip(map(tuple, level.tolist()), support.tolist())

    @property
    def levels(self) -> list[list[FrequentItemset]]:
        return list(map(self.level, range(1, len(self.itemsets) + 1)))

    @property
    def n_itemsets(self) -> int:
        return sum(map(len, self.supports))

    def level(self, k: int) -> list[FrequentItemset]:
        """The frequent k-itemsets (empty list if the result has no level k)."""
        if 1 <= k <= len(self.itemsets):
            itemsets = map(tuple, self.itemsets[k - 1].tolist())
            return list(map(FrequentItemset, itemsets, self.supports[k - 1].tolist()))
        return []

    def pairs(self) -> set[tuple[Itemset, int]]:
        """The result as a set of (itemset, support) pairs, for equality checks."""
        return set(self._pairs())

    def support_map(self) -> dict[Itemset, int]:
        return dict(self._pairs())


#: ``mine`` counts each level's candidates in one numpy pass once the frequent
#: items make at least this many pairs, and extends one candidate at a time
#: depth-first below it, where each numpy call's fixed cost outweighs the
#: work it batches (the crossover, measured in the ROADMAP).
LEVELWISE_MIN_PAIRS = 250

#: The level-wise pass ANDs at most this many 64-bit words of candidate rows
#: at once (256 KiB), so its scratch memory does not grow with the level.
_BLOCK_WORDS = 1 << 15


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
    levels = [(frequent[:, None], supports[frequent])] if len(frequent) else []
    # Stable, so equal supports keep ascending item order.
    order = frequent[np.argsort(supports[frequent], kind="stable")].tolist()
    n_intersections = 0
    tids_before = tl.bitmap_tids
    if len(order) > 1:
        bitmaps = [tl.bitmap(i) for i in order]
        pairs = len(order) * (len(order) - 1) // 2
        grow = _levelwise if pairs >= LEVELWISE_MIN_PAIRS else _depth_first
        deeper, n_intersections = grow(order, bitmaps, minsupp)
        levels += deeper
    stats = MineStats(
        raw_passes=0,
        intersections=n_intersections,
        bitmap_tids=tl.bitmap_tids - tids_before,
        elapsed_s=time.perf_counter() - start,
    )
    return MineResult._of(levels, stats)


# Both growers take the frequent items in ascending-support order with their
# bitmaps, and extend every frequent itemset with each item after its last
# one in that order: they test the same candidates, one intersection each,
# and return the levels from 2 up, each in canonical order, and that count.

def _depth_first(
    order: list[int], bitmaps: list[int], minsupp: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Extend one prefix at a time, pruning an infrequent one's whole subtree."""
    # Each frequent itemset found, its items ascending and its support
    # appended, by its size.
    found: dict[int, list[tuple[int, ...]]] = {}
    n_intersections = 0

    def extend(prefix: Itemset, prefix_bits: int, rest: list[tuple[int, int]]) -> None:
        nonlocal n_intersections
        n_intersections += len(rest)
        for q, (item, bits) in enumerate(rest):
            common = prefix_bits & bits
            support = common.bit_count()
            if support >= minsupp:
                grown = prefix + (item,)
                found.setdefault(len(grown), []).append((*sorted(grown), support))
                extend(grown, common, rest[q + 1 :])

    entries = list(zip(order, bitmaps))
    for p, (item, bits) in enumerate(entries):
        extend((item,), bits, entries[p + 1 :])
    # A level is small here: sorting its rows in Python and packing them with
    # one np.array costs less than numpy's fixed cost per call for a sort.
    levels = [np.array(sorted(found[k]), dtype=np.int64) for k in sorted(found)]
    return [(level[:, :-1], level[:, -1]) for level in levels], n_intersections


def _levelwise(
    order: list[int], bitmaps: list[int], minsupp: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Count a whole level's candidates at once on a ``uint64`` bitmap matrix.

    Row i of the item matrix is ``bitmaps[i]``; a level's frequent itemsets
    keep their own ANDed rows, which the next level's candidates AND with an
    item row and count with a popcount, a block of candidates at a time.
    """
    m = len(order)
    n_bytes = 8 * ((max(bits.bit_length() for bits in bitmaps) + 63) // 64)
    matrix = b"".join(bits.to_bytes(n_bytes, "little") for bits in bitmaps)
    items = np.frombuffer(matrix, dtype="<u8").reshape(m, -1)
    block = max(1, _BLOCK_WORDS // items.shape[1])
    item_of = np.array(order, dtype=np.int64)
    # The current level: each itemset's ANDed row, the position in ``order``
    # of its last item, and the positions of all its items.
    rows, last = items, np.arange(m)
    paths = last[:, None]
    levels = []
    n_intersections = 0
    while True:
        # Candidate c extends itemset parent[c] with the item at position
        # at[c]: each itemset's candidates run from its last position + 1 to m - 1.
        counts = m - 1 - last
        parent = np.repeat(np.arange(len(last)), counts)
        at = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        n_intersections += len(parent)
        found = []
        for lo in range(0, len(parent), block):
            common = rows[parent[lo : lo + block]]
            common &= items[at[lo : lo + block]]
            # Exact while a row has fewer than 2^32 bits, one per transaction.
            support = np.bitwise_count(common).sum(axis=1, dtype=np.uint32)
            hit = np.flatnonzero(support >= minsupp)
            found.append((common[hit], hit + lo, support[hit]))
        if not sum(len(hit) for _, hit, _ in found):
            break
        # Each level's arrays are let go as soon as they are used, since the
        # next level's can be as large: the last rows before the survivors'
        # are joined, and the rest before the next candidates are made.
        del rows
        rows, kept, supports = map(np.concatenate, zip(*found))
        del found
        last = at[kept]
        paths = np.concatenate((paths[parent[kept]], last[:, None]), axis=1)
        itemsets = item_of[paths]
        itemsets.sort(axis=1)
        rank = np.lexsort(itemsets.T[::-1])
        levels.append((itemsets[rank], supports.astype(np.int64)[rank]))
        del parent, at, kept
    return levels, n_intersections


#: Mine again at a changed threshold: the same function as :func:`mine`,
#: named for the support-change scenario, where no raw-database pass occurs
#: (``stats.raw_passes == 0``).
remine = mine
