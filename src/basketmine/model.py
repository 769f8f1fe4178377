"""Core domain types: interned items and TIDs, transactions, databases, and
support thresholds.

Item and transaction-id labels are interned to dense ordinals in order of
first appearance. All mining code works purely on ordinals; labels are
resolved back to strings only when rendering output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Database",
    "DuplicateTidError",
    "Interner",
    "ItemId",
    "Itemset",
    "MiningError",
    "ParseError",
    "SupportThreshold",
    "ThresholdError",
    "Tid",
    "Transaction",
    "UnknownItemError",
    "canonical_itemset",
    "resolve_threshold",
]


class MiningError(Exception):
    """Base class for every error this package raises."""


class _LineError(MiningError):
    """An input error that can name the document line it came from."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(_LineError):
    """Malformed input document."""


class DuplicateTidError(_LineError):
    """A transaction id was seen more than once."""


class UnknownItemError(MiningError):
    """A label or ordinal the database has never seen."""


class ThresholdError(MiningError):
    """Support threshold is invalid or cannot be resolved."""


class ItemId(NamedTuple):
    ordinal: int
    label: str


class Tid(NamedTuple):
    ordinal: int
    label: str


#: An itemset is a strictly increasing tuple of item ordinals.
Itemset = tuple[int, ...]


def canonical_itemset(items: Iterable[int]) -> Itemset:
    """Sort and deduplicate into the canonical ascending-ordinal form."""
    out = tuple(sorted(set(items)))
    if not out:
        raise MiningError("empty itemset")
    return out


class Interner:
    """Bijective label <-> dense-ordinal map; ordinals follow first appearance.

    ``intern``, ``in`` and ``ordinal`` trim surrounding whitespace, and
    ``intern`` rejects a label that is empty after trimming. ``intern_all``
    takes labels its caller has already trimmed and checked. Re-interning a
    known label is a no-op that returns the ordinal assigned the first time.
    """

    __slots__ = ("_labels", "_by_label")

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._by_label: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label.strip() in self._by_label

    def intern(self, label: str) -> int:
        label = label.strip()
        if not label:
            raise ParseError("empty label")
        return self.intern_trimmed(label)

    def intern_trimmed(self, label: str) -> int:
        """:meth:`intern` for a label the caller has already trimmed and checked."""
        n = len(self._labels)
        ordinal = self._by_label.setdefault(label, n)
        if ordinal == n:
            self._labels.append(label)
        return ordinal

    def intern_all(self, labels: Sequence[str]) -> set[int]:
        """The ordinals of already trimmed, checked labels; new ones intern in order."""
        ordinals = set(map(self._by_label.get, labels))
        if None in ordinals:
            ordinals = set(map(self.intern_trimmed, labels))
        return ordinals

    def ordinal(self, label: str) -> int:
        try:
            return self._by_label[label.strip()]
        except KeyError:
            raise UnknownItemError(f"unknown label {label!r}") from None

    def label(self, ordinal: int) -> str:
        if not 0 <= ordinal < len(self._labels):
            raise UnknownItemError(f"unknown ordinal {ordinal}")
        return self._labels[ordinal]

    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    def truncate(self, n: int) -> None:
        """Forget every label interned after the first ``n``."""
        for label in self._labels[n:]:
            del self._by_label[label]
        del self._labels[n:]


@dataclass(frozen=True)
class Transaction:
    """One purchase record: its TID ordinal plus a strictly increasing item tuple."""

    tid: int
    items: Itemset

    def __post_init__(self) -> None:
        items = self.items
        if not items:
            raise MiningError(f"transaction {self.tid} has no items")
        if not all(map(operator.lt, items, items[1:])):
            raise MiningError(f"transaction {self.tid} items not strictly increasing")

    def __len__(self) -> int:
        return len(self.items)


def _check_labels(tid_label: str, item_labels: list[str]) -> None:
    """Reject labels the text format cannot write back; both are already trimmed.

    Runs before the caller's duplicate-TID lookup, so a malformed row raises
    ``ParseError`` even when its TID is also taken.
    """
    if not tid_label:
        raise ParseError("empty TID")
    if tid_label[0] == "#":
        raise ParseError(f"TID {tid_label!r} would read back as a comment")
    if not item_labels:
        raise ParseError(f"transaction {tid_label!r} has no items")
    if "" in item_labels:
        raise ParseError(f"transaction {tid_label!r} has an empty item")
    joined = tid_label + "".join(item_labels)
    if "," in joined or "\n" in joined or "\r" in joined:
        for label in (tid_label, *item_labels):
            if "," in label or "\n" in label or "\r" in label:
                raise ParseError(f"label {label!r} contains a reserved character")


class Database:
    """Ordered transactions plus the item and TID dictionaries (horizontal layout).

    Append-only: transactions are added during parsing or incremental update
    and never removed or reordered, so ordinals stay dense and stable.
    """

    __slots__ = ("items", "tids", "transactions")

    def __init__(self) -> None:
        self.items = Interner()
        self.tids = Interner()
        self.transactions: list[Transaction] = []

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    def add_transaction(self, tid_label: str, item_labels: Iterable[str]) -> Transaction:
        """Intern and append one transaction; duplicate items collapse silently.

        Labels are trimmed and must be representable in the text format:
        non-empty, no commas or line breaks, and a TID may not start with the
        comment marker. Every label is checked before any is interned, so a
        rejected row leaves the database as it was.
        """
        tid_label = tid_label.strip()
        labels = [label.strip() for label in item_labels]
        _check_labels(tid_label, labels)
        n_tids = len(self.tids)
        tid = self.tids.intern_trimmed(tid_label)
        if tid < n_tids:
            raise DuplicateTidError(f"duplicate TID {tid_label!r}")
        tx = Transaction(tid, tuple(sorted(self.items.intern_all(labels))))
        self.transactions.append(tx)
        return tx

    def item(self, ordinal: int) -> ItemId:
        return ItemId(ordinal, self.items.label(ordinal))

    def tid(self, ordinal: int) -> Tid:
        return Tid(ordinal, self.tids.label(ordinal))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return (
            self.items.labels() == other.items.labels()
            and self.tids.labels() == other.tids.labels()
            and self.transactions == other.transactions
        )

    def __repr__(self) -> str:
        return f"Database({self.n_transactions} transactions, {len(self.items)} items)"


@dataclass(frozen=True)
class SupportThreshold:
    """Minimum support: either an absolute count or a fraction of |D|.

    A fractional threshold resolves to ``max(1, ceil(fraction * n))`` so that
    "support >= threshold" matches the percentage reading exactly; ceiling is
    used, never rounding.
    """

    count: int | None = None
    fraction: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.count is None) == (self.fraction is None):
            raise ThresholdError("exactly one of count or fraction must be given")
        if self.count is not None and self.count < 1:
            raise ThresholdError(f"absolute support must be >= 1, got {self.count}")
        if self.fraction is not None and not 0 < self.fraction <= 1:
            raise ThresholdError(f"fractional support must be in (0, 1], got {self.fraction}")

    @classmethod
    def absolute(cls, count: int) -> "SupportThreshold":
        return cls(count=int(count))

    @classmethod
    def fractional(cls, value: Fraction | str | float | int) -> "SupportThreshold":
        """Fractional threshold from an exact rational.

        Strings parse exactly ("0.3" is 3/10); floats are taken at their
        shortest decimal repr, so 0.2 means exactly 1/5 rather than the
        nearest binary double.
        """
        try:
            if isinstance(value, float):
                frac = Fraction(repr(value))
            else:
                frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ThresholdError(f"bad fractional support {value!r}: {exc}") from None
        return cls(fraction=frac)

    def resolve(self, n_transactions: int) -> int:
        """Absolute minimum-support count for a database of the given size."""
        if self.count is not None:
            return self.count
        if n_transactions == 0:
            raise ThresholdError("empty database: cannot resolve a fractional support")
        assert self.fraction is not None
        return max(1, math.ceil(self.fraction * n_transactions))


def resolve_threshold(threshold: SupportThreshold | int, n_transactions: int) -> int:
    """Resolve a threshold (or a bare absolute count) to its absolute form."""
    if not isinstance(threshold, SupportThreshold):
        threshold = SupportThreshold.absolute(threshold)
    return threshold.resolve(n_transactions)
