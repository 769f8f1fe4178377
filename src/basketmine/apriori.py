"""Level-wise join-and-prune miner over the horizontal database.

The classic baseline (Agrawal & Srikant, VLDB 1994): level k costs one raw
pass over the transactions to count its candidates, so the raw-pass counter
grows with the depth of the result. ``count_support`` takes a list of
same-length itemsets and returns their counts from one pass: it reads
``db.transactions`` afresh, a block of rows at a time, and counts all of
the itemsets on the whole block at once with numpy: each itemset is the AND
of its own items' packed bit columns. Nothing built during a pass outlives
it. ``mine_apriori`` tallies the counters as it goes: one raw pass per
counted level, one containment check per (transaction, candidate) pair, and
one per item read in the level-1 pass. It is single-threaded; its job in
this package is to be an independent second route to the same answer
as the tidset miner, and to make the scan-count difference measurable.
"""

from __future__ import annotations

import time
from itertools import chain, combinations, compress, groupby
from typing import Iterator, Sequence

import numpy as np

from .miner import MineResult, MineStats
from .model import (
    Database,
    Itemset,
    MiningError,
    SupportThreshold,
    resolve_threshold,
)

__all__ = ["count_support", "generate_candidates", "mine_apriori"]

#: The most bytes of scratch one block of a counting pass may take, so that
#: its memory does not grow with |D|. A row of a candidate pass takes one
#: boolean per membership column and one bit per packed column; its
#: candidates are then counted a chunk at a time, whose running AND and one
#: gathered column, both ``uint64``, take at most as many bytes again. A row
#: of the level-1 pass, which only flattens, takes one. The arrays of a
#: block's flattened items grow with its rows' lengths, as the item tuples
#: they are read from do.
_BLOCK_CELLS = 1 << 18


def generate_candidates(frequents: Sequence[Itemset]) -> list[Itemset]:
    """Join k-itemsets sharing a (k-1)-prefix, then prune (apriori-gen).

    Canonical input in, canonical candidates out: ``frequents`` must be in
    canonical order, which keeps equal prefixes contiguous, and the joins
    then come out in canonical order with no sort. Each run of equal
    prefixes joins every pair of its itemsets, in order. A joined candidate
    survives only if every k-subset is itself frequent; anything pruned here
    could not possibly reach the threshold, so the counting pass never sees
    it. The two subsets that dropping either of the last two items gives are
    the joined pair itself, so only the others are checked, and a pair of
    singletons has none. Those of ``a + (y,)`` all end in ``y``, so it
    survives when ``y`` extends each of them, less ``y``, to a frequent
    itemset: one set lookup per joined pair.
    """
    if not frequents:
        return []
    k = len(frequents[0])
    if k == 1:  # every singleton shares the empty prefix
        return [a + b for a, b in combinations(frequents, 2)]
    # The last items that extend each (k-1)-prefix to a frequent itemset.
    extends: dict[Itemset, set[int]] = {}
    for itemset in frequents:
        extends.setdefault(itemset[:-1], set()).add(itemset[-1])
    none: frozenset[int] = frozenset()
    out: list[Itemset] = []
    for prefix, run in groupby(frequents, key=lambda itemset: itemset[:-1]):
        run = list(run)
        # Dropping prefix item j from a + (y,) leaves drops[j] + (a[-1], y).
        drops = [prefix[:j] + prefix[j + 1 :] for j in range(k - 1)]
        for i, a in enumerate(run):
            allowed = extends.get(drops[0] + a[-1:], none)
            for drop in drops[1:]:
                allowed = allowed & extends.get(drop + a[-1:], none)
            out += [a + b[-1:] for b in run[i + 1 :] if b[-1] in allowed]
    return out


def count_support(db: Database, itemsets: Sequence[Itemset]) -> list[int]:
    """Count each itemset's containing transactions in one full pass.

    The itemsets must all have one nonzero length k. Each block of rows
    becomes one packed bit column per item the itemsets use (bit r set when
    row r holds the item); an itemset's count in the block is the popcount
    of its k item columns ANDed together. An ordinal outside ``db.items`` is
    in no row.
    """
    if not itemsets:
        return []
    k = len(itemsets[0])
    if any(len(itemset) != k for itemset in itemsets):
        raise MiningError("candidates of different lengths")
    if not k:
        raise MiningError("an itemset must not be empty")
    return _count(db, np.array(itemsets, dtype=np.int64)).tolist()


def _count(db: Database, itemsets: np.ndarray) -> np.ndarray:
    """``count_support`` of an ``n x k`` int64 array of itemsets, ``n`` and ``k`` nonzero."""
    used, cols = np.unique(itemsets, return_inverse=True)
    # Row i holds the columns of itemset i's items: one column per item a
    # candidate uses, then one that every other item of a row is written to.
    cols = cols.reshape(itemsets.shape)
    other = len(used)
    column_of = np.full(len(db.items), other, dtype=np.intp)
    lo, hi = np.searchsorted(used, [0, len(db.items)]).tolist()
    column_of[used[lo:hi]] = np.arange(lo, hi)
    n = len(itemsets)
    counts = np.zeros(n, dtype=np.int64)
    row_cells = other + 1 + (other + 8) // 8
    for lengths, items in _row_blocks(db.transactions, row_cells):
        # Rows past the block's own, up to a whole word, are in no column.
        words = (len(lengths) + 63) // 64
        member = np.zeros((other + 1, 64 * words), dtype=bool)
        member[column_of[items], np.repeat(np.arange(len(lengths)), lengths)] = True
        bits = np.packbits(member, axis=1).view("<u8")
        del member
        chunk = max(1, _BLOCK_CELLS // (16 * words))
        for start in range(0, n, chunk):
            part = cols[start : start + chunk].T
            common = bits[part[0]]
            for columns in part[1:]:
                common &= bits[columns]
            counts[start : start + chunk] += np.bitwise_count(common).sum(axis=1, dtype=np.int64)
    return counts


def _row_blocks(
    transactions: Sequence[Itemset], row_cells: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Read ``transactions`` once, a block of rows at a time.

    A block has as many rows as fit in ``_BLOCK_CELLS`` at ``row_cells`` per
    row, and at least one. Yields its row lengths and its items, flattened
    in row order.
    """
    n_rows = max(1, _BLOCK_CELLS // row_cells)
    for start in range(0, len(transactions), n_rows):
        rows = transactions[start : start + n_rows]
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        items = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
        yield lengths, items


def mine_apriori(db: Database, threshold: SupportThreshold | int) -> MineResult:
    """Level-wise mining: count, filter, join, repeat until nothing survives.

    ``stats.raw_passes`` ends up equal to the number of counting passes: one
    for the single items plus one per candidate level generated, including a
    final pass whose survivors all fall short.
    """
    start = time.perf_counter()
    minsupp = resolve_threshold(threshold, db.n_transactions)

    # Level 1 is its own counting pass over the raw transactions, charged
    # one containment check per item read.
    raw_passes, checks = 1, 0
    item_counts = np.zeros(len(db.items), dtype=np.intp)
    for _, items in _row_blocks(db.transactions, 1):
        item_counts += np.bincount(items, minlength=len(db.items))
        checks += len(items)
    frequent = np.flatnonzero(item_counts >= minsupp)
    level, counts = frequent[:, None], item_counts[frequent]
    # Each level is held twice, as the result's array and as the tuples
    # generate_candidates joins; both are made once, from the candidates.
    tuples = list(zip(frequent.tolist()))
    levels = []
    while len(level):
        levels.append((level, counts))
        candidates = generate_candidates(tuples)
        if not candidates:
            break
        # Each candidate level is one more pass, charged one check per
        # (transaction, candidate) pair.
        raw_passes += 1
        checks += len(candidates) * db.n_transactions
        # Joined from canonical itemsets, the candidates are canonical.
        joined = np.array(candidates, dtype=np.int64)
        counts = _count(db, joined)
        kept = counts >= minsupp
        level, counts = joined[kept], counts[kept]
        tuples = list(compress(candidates, kept.tolist()))
    stats = MineStats(
        raw_passes=raw_passes,
        containment_checks=checks,
        elapsed_s=time.perf_counter() - start,
    )
    return MineResult._of(levels, stats)
