"""The trade list: a vertical index mapping each item to its sorted tidset.

Built from one pass over the horizontal database, it answers every support
question from tidset lengths and from intersections of its items' tidsets,
which the miner computes by ANDing the bitmaps handed out here. It indexes
its own database alone: after the build it absorbs that database's new rows
one at a time, in order, by appending their ordinals. It keeps a counter of
how many raw-database scans were ever performed (exactly one: the build).

Each item's tidset is handed out as an ``int`` bitmap (bit t is set when
transaction t contains the item). Bitmaps are cached on first read
and kept warm across mining calls: tidsets only ever grow at the end, with
TIDs above every earlier one, so a cached bitmap stays a prefix of the
current tidset. A later read ORs in a bitmap of only the TIDs appended since,
so re-mining after a batch costs the batch, not the whole history. Appending
leaves the cache alone; reads fill it, and replace an item's entry whole, so
shared reads stay safe. The array of every item's support is kept the same
way, with the number of rows it counts: a read counts in the rows indexed
since from the database itself, or recounts every tidset once those rows hold
half as many entries as there are items.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .model import Database, Itemset, MiningError, UnknownItemError

__all__ = ["TradeList"]


def _bitmap(tids: Sequence[int], offset: int) -> int:
    """An int whose bit ``t - offset`` is set iff t is in ``tids``.

    ``tids`` is strictly increasing and non-empty, with no TID below
    ``offset``; the cost follows the span of ``tids``, not their values.
    """
    flags = np.zeros(tids[-1] - offset + 1, dtype=np.uint8)
    flags[np.fromiter(tids, dtype=np.intp, count=len(tids)) - offset] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class TradeList:
    """Per-item tidsets over a database's transaction ordinals.

    The trade list borrows the owning database's dictionaries for label
    resolution, and indexes that database's rows alone, in order: a row is
    added to the database first and then to the trade list, which rejects
    any row but the database's next one. Reads may be shared freely; updates
    require exclusive access (no internal locking).

    ``raw_passes`` and ``bitmap_tids`` are instrumentation: the raw-database
    scans made, and the TIDs ever turned into cached bitmap bits.
    """

    __slots__ = (
        "_db",
        "_tidsets",
        "_bitmaps",
        "_supports",
        "_counted",
        "n_transactions",
        "raw_passes",
        "bitmap_tids",
    )

    def __init__(self, db: Database) -> None:
        self._db = db
        self._tidsets: list[list[int]] = [[] for _ in range(len(db.items))]
        self._bitmaps: dict[int, int] = {}
        # Every item's support as of the last supports() read (None: never
        # read), and the number of rows it counts.
        self._supports: np.ndarray | None = None
        self._counted = 0
        self.n_transactions = 0
        self.raw_passes = 0
        self.bitmap_tids = 0

    @classmethod
    def build(cls, db: Database) -> "TradeList":
        """Index ``db`` in a single pass over its transactions."""
        tl = cls(db)
        tidsets = tl._tidsets
        for tid, items in enumerate(db.transactions):  # the one and only raw pass
            for item in items:
                tidsets[item].append(tid)
        tl.n_transactions = len(db.transactions)
        tl.raw_passes = 1
        return tl

    @property
    def n_items(self) -> int:
        return len(self._tidsets)

    def supports(self) -> np.ndarray:
        """Every item's support (its tidset's length), indexed by item ordinal.

        A fresh array each call. The one kept since the last call absorbs only
        the rows indexed since, read from the database; once those rows hold
        half as many entries as there are items, this reads every tidset's
        length again instead.
        """
        kept, counted, n = self._supports, self._counted, self.n_transactions
        if kept is not None and counted == n:
            return kept.copy()
        tidsets = self._tidsets
        n_items = len(tidsets)
        # Counting in as many entries as half the items is no cheaper than
        # reading every length again: each entry costs about as much to count
        # in as a length does to read, plus a fixed cost. Every row holds an
        # entry, so that many rows settle it without counting their entries.
        fold = kept is not None and 2 * (n - counted) < n_items
        if fold:
            rows = self._db.transactions[counted:n]
            n_entries = sum(map(len, rows))
            fold = 2 * n_entries < n_items
        if fold:
            appended = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=n_entries)
            supports = np.bincount(appended, minlength=n_items)
            supports[: len(kept)] += kept
        else:
            supports = np.fromiter(map(len, tidsets), dtype=np.intp, count=n_items)
        self._supports, self._counted = supports, n
        return supports.copy()

    def add_transaction(self, items: Itemset) -> None:
        """Index the database's next row, ``items``, without rescanning the others.

        ``items`` must equal the row the database holds at ordinal
        ``n_transactions``, the first one not yet indexed: the tuple
        :meth:`Database.add_transaction` returned. Any other row raises
        ``MiningError``, so the index always equals a fresh build of the rows
        it has absorbed, and every tidset stays strictly increasing. Items
        not seen before extend the index.
        """
        tid, rows = self.n_transactions, self._db.transactions
        if tid >= len(rows) or rows[tid] != items:
            raise MiningError(f"row {items!r} is not the database's row {tid}, the next to index")
        items = rows[tid]  # equal, and the database's own ints
        tidsets = self._tidsets
        grow = items[-1] + 1 - len(tidsets)  # items are increasing: the last is the largest
        if grow > 0:
            tidsets.extend([] for _ in range(grow))
        for item in items:
            tidsets[item].append(tid)
        self.n_transactions = tid + 1

    def _tids(self, item: int) -> list[int]:
        if not 0 <= item < len(self._tidsets):
            raise UnknownItemError(f"unknown item ordinal {item}")
        return self._tidsets[item]

    def tidset(self, item: int) -> tuple[int, ...]:
        """A copy of a single item's tidset."""
        return tuple(self._tids(item))

    def bitmap(self, item: int) -> int:
        """The item's tidset as an int whose bit t is set iff t is in it.

        Extends the cached bitmap by the TIDs appended since the last read,
        and counts them in ``bitmap_tids``.
        """
        tids = self._tids(item)
        bits = self._bitmaps.get(item, 0)
        covered = bits.bit_count()  # one bit per TID already in the bitmap
        if covered < len(tids):
            first = tids[covered]
            bits |= _bitmap(tids[covered:], first) << first
            self._bitmaps[item] = bits
            self.bitmap_tids += len(tids) - covered
        return bits

    def serialize_log(self) -> str:
        """One ``<item> = <tid>, <tid>, ...`` line per item, first-appearance order."""
        item_label, tid_label = self._db.items.label_getter(), self._db.tids.label_getter()
        try:
            return "".join(
                f"{item_label(item)} = {', '.join(map(tid_label, tidset))}\n"
                for item, tidset in enumerate(self._tidsets)
            )
        except IndexError:
            raise UnknownItemError("trade list indexes labels its database lacks") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TradeList):
            return NotImplemented
        # Structural equality; the bitmap cache and the instrumentation
        # counters are not semantics.
        return (
            self.n_transactions == other.n_transactions
            and self._tidsets == other._tidsets
        )

    def __repr__(self) -> str:
        return f"TradeList({self.n_items} items, {self.n_transactions} transactions)"
