"""The trade list: a vertical index mapping each item to its sorted tidset.

Built from one pass over the horizontal database, it answers every support
question from tidset lengths and from tidset intersections, which
``intersect`` here computes. It absorbs new transactions by appending
ordinals, and keeps a counter of how many raw-database scans were ever
performed (exactly one: the build).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    Database,
    DuplicateTidError,
    MiningError,
    Transaction,
    UnknownItemError,
)

__all__ = ["TradeList", "intersect"]


def intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersection of two strictly increasing sequences, as a sorted list."""
    if len(a) > len(b):
        a, b = b, a
    members = set(b)
    return [x for x in a if x in members]


class TradeList:
    """Per-item tidsets over a database's transaction ordinals.

    The trade list borrows the owning database's dictionaries for label
    resolution; transactions added incrementally must be interned through
    that same database. Reads may be shared freely; updates require exclusive
    access (no internal locking).
    """

    __slots__ = ("_db", "_tidsets", "n_transactions", "raw_passes")

    def __init__(self, db: Database) -> None:
        self._db = db
        self._tidsets: list[list[int]] = [[] for _ in range(len(db.items))]
        self.n_transactions = 0
        self.raw_passes = 0

    @classmethod
    def build(cls, db: Database) -> "TradeList":
        """Index ``db`` in a single pass over its transactions."""
        tl = cls(db)
        for tx in db.transactions:  # the one and only raw pass
            for item in tx.items:
                tl._tidsets[item].append(tx.tid)
            tl.n_transactions += 1
        tl.raw_passes = 1
        return tl

    @property
    def n_items(self) -> int:
        return len(self._tidsets)

    @property
    def tidsets(self) -> Sequence[Sequence[int]]:
        """Every item's (read-only) tidset, indexed by item ordinal."""
        return self._tidsets

    def add_transaction(self, tx: Transaction) -> None:
        """Append one new transaction without touching the raw database.

        ``tx.tid`` must be the next transaction ordinal, i.e. the transaction
        was interned against this trade list's database after the last add;
        appending therefore keeps every tidset strictly increasing. Items not
        seen before extend the index.
        """
        if tx.tid < self.n_transactions:
            raise DuplicateTidError(f"transaction ordinal {tx.tid} is already indexed")
        if tx.tid != self.n_transactions:
            raise MiningError(
                f"non-contiguous transaction ordinal {tx.tid}, expected {self.n_transactions}"
            )
        for item in tx.items:
            while item >= len(self._tidsets):
                self._tidsets.append([])
            self._tidsets[item].append(tx.tid)
        self.n_transactions += 1

    def tidset(self, item: int) -> Sequence[int]:
        """The (read-only) tidset of a single item."""
        if not 0 <= item < len(self._tidsets):
            raise UnknownItemError(f"unknown item ordinal {item}")
        return self._tidsets[item]

    def item_support(self, item: int) -> int:
        """Support of one item: the length of its tidset."""
        return len(self.tidset(item))

    def tidset_of(self, itemset: Iterable[int]) -> list[int]:
        """Tidset of an itemset via pairwise intersection, smallest sets first."""
        member_sets = sorted((self.tidset(i) for i in set(itemset)), key=len)
        if not member_sets:
            raise MiningError("empty itemset")
        acc = list(member_sets[0])
        for tids in member_sets[1:]:
            if not acc:
                break
            acc = intersect(acc, tids)
        return acc

    def serialize_log(self) -> str:
        """One ``<item> = <tid>, <tid>, ...`` line per item, first-appearance order."""
        items, tids = self._db.items.labels(), self._db.tids.labels()
        # Indexed items are below len(self._tidsets) and TIDs below n_transactions,
        # so this one check stands in for a bounds check per entry.
        if len(items) < len(self._tidsets) or len(tids) < self.n_transactions:
            raise UnknownItemError("trade list indexes labels its database does not have")
        tid_label = tids.__getitem__
        return "".join(
            f"{label} = {', '.join(map(tid_label, tidset))}\n"
            for label, tidset in zip(items, self._tidsets)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TradeList):
            return NotImplemented
        # Structural equality; instrumentation counters are not semantics.
        return (
            self.n_transactions == other.n_transactions
            and self._tidsets == other._tidsets
        )

    def __repr__(self) -> str:
        return f"TradeList({self.n_items} items, {self.n_transactions} transactions)"
