"""Level-wise join-and-prune miner over the horizontal database.

The classic baseline (Agrawal & Srikant, VLDB 1994): level k costs one raw
pass over the transactions to count its candidates, so the raw-pass counter
grows with the depth of the result. ``count_support`` takes a list of
same-length itemsets and returns their counts from one pass: it reads
``db.transactions`` afresh, a block of rows at a time, and checks the whole
block against all of the itemsets at once with numpy; nothing built during a
pass outlives it. ``mine_apriori`` tallies the counters as it goes: one raw
pass per counted level, one containment check per (transaction, candidate)
pair, and one per item read in the level-1 pass. It is single-threaded; its
job in this package is to be an independent second route to the same answer
as the tidset miner, and to make the scan-count difference measurable.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from itertools import chain
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

#: The most cells one block of a counting pass may take, so that its memory
#: does not grow with |D|. A row of a candidate pass takes one boolean per
#: membership column and two per candidate; a row of the level-1 pass, which
#: only flattens, takes one. The arrays of a block's flattened items grow
#: with its rows' lengths, as the item tuples they are read from do.
_BLOCK_CELLS = 1 << 18


def generate_candidates(frequents: Sequence[Itemset]) -> list[Itemset]:
    """Join k-itemsets sharing a (k-1)-prefix, then prune (apriori-gen).

    Canonical input in, canonical candidates out: ``frequents`` must be in
    canonical order, which keeps equal prefixes contiguous, and the joins
    then come out in canonical order with no sort. A joined candidate
    survives only if every k-subset is itself frequent; anything pruned here
    could not possibly reach the threshold, so the counting pass never sees
    it. The two subsets that dropping either of the last two items gives are
    the joined pair itself, so only the others are looked up.
    """
    if not frequents:
        return []
    k = len(frequents[0])
    known = set(frequents)
    out: list[Itemset] = []
    for a_idx, a in enumerate(frequents):
        for b in frequents[a_idx + 1 :]:
            if a[:-1] != b[:-1]:
                break  # canonical order keeps equal prefixes contiguous
            candidate = a + (b[-1],)
            if all(candidate[:i] + candidate[i + 1 :] in known for i in range(k - 1)):
                out.append(candidate)
    return out


def count_support(db: Database, itemsets: Sequence[Itemset]) -> list[int]:
    """Count each itemset's containing transactions in one full pass.

    The itemsets must all have one length. Each block of rows becomes a
    boolean membership matrix over the items the itemsets use; an itemset is
    contained in a row when the row holds all of its columns. An ordinal
    outside ``db.items`` is in no row.
    """
    if not itemsets:
        return []
    if len(set(map(len, itemsets))) != 1:
        raise MiningError("candidates of different lengths")
    used = sorted(set(chain.from_iterable(itemsets)))
    column = dict(zip(used, range(len(used))))
    # One column per item a candidate uses, then one that every other item
    # of a row is written to.
    other = len(used)
    column_of = np.full(len(db.items), other, dtype=np.intp)
    lo, hi = bisect_left(used, 0), bisect_left(used, len(db.items))
    # An array index: a list index costs numpy a 128 KiB buffer.
    column_of[np.array(used[lo:hi], dtype=np.intp)] = np.arange(lo, hi)
    # Row j of the index holds every candidate's j-th column: a contiguous
    # row gathers without the buffer that a strided column costs numpy.
    index = np.fromiter(
        map(column.__getitem__, chain.from_iterable(itemsets)), dtype=np.intp
    ).reshape(len(itemsets), -1).T.copy()
    counts = np.zeros(len(itemsets), dtype=np.intp)
    for lengths, items in _row_blocks(db.transactions, other + 1 + 2 * len(itemsets)):
        member = np.zeros((len(lengths), other + 1), dtype=bool)
        member[np.repeat(np.arange(len(lengths)), lengths), column_of[items]] = True
        contained = member[:, index[0]]
        for columns in index[1:]:
            contained &= member[:, columns]
        counts += np.count_nonzero(contained, axis=0)
    return counts.tolist()


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
    levels = []
    while len(level):
        levels.append((level, counts))
        candidates = generate_candidates(list(map(tuple, level.tolist())))
        if not candidates:
            break
        # Each candidate level is one more pass, charged one check per
        # (transaction, candidate) pair.
        raw_passes += 1
        checks += len(candidates) * db.n_transactions
        counts = np.array(count_support(db, candidates), dtype=np.int64)
        kept = counts >= minsupp
        # Joined from canonical itemsets, the candidates are canonical.
        level, counts = np.array(candidates, dtype=np.int64)[kept], counts[kept]
    stats = MineStats(
        raw_passes=raw_passes,
        containment_checks=checks,
        elapsed_s=time.perf_counter() - start,
    )
    return MineResult._of(levels, stats)
