"""Core domain types: interned items and TIDs, databases, and support thresholds.

Item and transaction-id labels are interned to dense ordinals in order of
first appearance. All mining code works purely on ordinals; labels are
resolved back to strings only when rendering output.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Collection, Iterable, Sequence

__all__ = [
    "Database",
    "DuplicateTidError",
    "Interner",
    "Itemset",
    "MiningError",
    "ParseError",
    "SupportThreshold",
    "ThresholdError",
    "UnknownItemError",
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


#: An itemset is a strictly increasing tuple of item ordinals.
Itemset = tuple[int, ...]


class _Ordinals(dict):
    """Label -> ordinal map whose lookup of a new label interns it as the next ordinal.

    The label list grows before the key is set, so :meth:`Interner.truncate`
    undoes a lookup interrupted between the two.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: list[str]) -> None:
        super().__init__()
        self._labels = labels

    def __missing__(self, label: str) -> int:
        labels = self._labels
        ordinal = len(labels)
        labels.append(label)
        self[label] = ordinal
        return ordinal


class Interner:
    """Bijective label <-> dense-ordinal map; ordinals follow first appearance.

    Labels come in only through :class:`Database`'s appends, which check
    every one, so every interned label can be written back. Looking a label
    up in ``_by_label`` interns it: one dict lookup gives the ordinal of a
    known label and assigns the next one to a new label. Re-interning a
    known label is a no-op that returns the ordinal assigned the first time.
    ``in`` and ``get`` never intern.
    """

    __slots__ = ("_labels", "_by_label")

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._by_label = _Ordinals(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def _intern(self, label: str) -> int:
        """The label's ordinal, the next one if it is new; the caller trimmed and checked it."""
        return self._by_label[label]

    def _extend(self, labels: Collection[str]) -> None:
        """Intern labels the caller checked are new and distinct, in their order.

        The list grows before the dict, so :meth:`truncate` undoes an
        interrupted call too.
        """
        n = len(self._labels)
        self._labels.extend(labels)
        self._by_label.update(zip(labels, range(n, len(self._labels))))

    def label(self, ordinal: int) -> str:
        if not 0 <= ordinal < len(self._labels):
            raise UnknownItemError(f"unknown ordinal {ordinal}")
        return self._labels[ordinal]

    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    def label_getter(self) -> Callable[[int], str]:
        """:meth:`label` without the check, for rendering many ordinals at once.

        It indexes the live list, copying nothing. An ordinal past the end
        raises ``IndexError``. A negative one would count from the end, but no
        record holds one: their constructors reject it (``_check_itemset``),
        and a database's rows hold only ordinals it interned.
        """
        return self._labels.__getitem__

    def truncate(self, n: int) -> None:
        """Forget every label interned after the first ``n``."""
        by_label = self._by_label
        for label in self._labels[n:]:
            by_label.pop(label, None)
        del self._labels[n:]


def _check_itemset(itemset: Itemset, what: str) -> None:
    """Reject all but a non-empty, strictly increasing tuple of ordinals >= 0."""
    ordered = isinstance(itemset, tuple) and all(map(operator.lt, itemset, itemset[1:]))
    if not (ordered and itemset and itemset[0] >= 0):
        raise MiningError(f"{what} {itemset!r} is empty or not strictly increasing ordinals >= 0")


def _check_reserved(labels: Sequence[str]) -> None:
    """Reject a label holding a character the text format reserves; none is empty.

    Reserved: the field separator and every line boundary ``str.splitlines``
    breaks at (\\n, \\r, \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028, \\u2029), since the
    parser splits the document with it.
    """
    joined = "".join(labels)
    if "," in joined or joined.splitlines()[0] != joined:
        for label in labels:
            if "," in label or label.splitlines()[0] != label:
                raise ParseError(f"label {label!r} contains a reserved character")


def _check_row(tid_label: str, item_labels: list[str]) -> None:
    """Reject a row the text format cannot write back; its labels are already trimmed.

    Only the TID is scanned for reserved characters here: an item label that
    is already interned passed that scan when it was interned.
    """
    if not tid_label:
        raise ParseError("empty TID")
    if tid_label[0] == "#":
        raise ParseError(f"TID {tid_label!r} would read back as a comment")
    if tid_label[0] == "\ufeff":
        raise ParseError(f"TID {tid_label!r} starts with a byte-order mark, which a reader drops")
    if not item_labels:
        raise ParseError(f"transaction {tid_label!r} has no items")
    if "" in item_labels:
        raise ParseError(f"transaction {tid_label!r} has an empty item")
    if "," in tid_label or tid_label.splitlines()[0] != tid_label:
        _check_reserved((tid_label,))


class Database:
    """Ordered transactions plus the item and TID dictionaries (horizontal layout).

    A transaction is its item tuple, strictly increasing, and its TID ordinal
    is its position: ``transactions[t]`` holds the items of the row whose TID
    label is ``tids.label(t)``. Append-only: transactions are added during
    parsing or incremental update and never removed or reordered, so
    ordinals stay dense and stable.
    """

    __slots__ = ("items", "tids", "transactions")

    def __init__(self) -> None:
        self.items = Interner()
        self.tids = Interner()
        self.transactions: list[Itemset] = []

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    def add_transaction(self, tid_label: str, item_labels: Iterable[str]) -> Itemset:
        """Intern and append one transaction, returning its item tuple.

        Duplicate items collapse silently. Labels are trimmed and must be
        representable in the text format: non-empty, no commas and no line
        boundary that ``str.splitlines`` breaks at, and a TID may not start
        with the comment marker or with U+FEFF, which a reader drops as a
        byte-order mark at the start of a file. Every label is checked before any is
        interned, so a rejected row leaves the database as it was, and a
        malformed row raises ``ParseError`` even when its TID is taken. Item
        labels are scanned for reserved characters only when they are new.
        A bare ``str`` of items is rejected with ``ParseError`` rather than
        read as one label per character, and so is a label that is not a
        ``str``.
        """
        if not isinstance(tid_label, str):
            raise ParseError(f"transaction TID {tid_label!r} is not a str")
        tid_label = tid_label.strip()
        if isinstance(item_labels, str):
            raise ParseError(f"transaction {tid_label!r} has one str for its items, not labels")
        labels = list(item_labels)
        for label in labels:
            if not isinstance(label, str):
                raise ParseError(f"transaction {tid_label!r} has an item {label!r} that is not a str")
        labels = [label.strip() for label in labels]
        _check_row(tid_label, labels)
        known = self.items._by_label
        ordinals = set(map(known.get, labels))
        if None in ordinals:
            _check_reserved(labels)  # the known ones pass; one joined scan is cheapest
        n_tids = len(self.tids)
        if self.tids._intern(tid_label) < n_tids:
            raise DuplicateTidError(f"duplicate TID {tid_label!r}")
        if None in ordinals:
            # New labels intern in the row's order, so ordinals follow first appearance.
            ordinals = set(map(self.items._intern, labels))
        items = tuple(sorted(ordinals))
        self.transactions.append(items)
        return items

    def _append_rows(self, rows: list[list[str]]) -> bool:
        """Intern and append rows of ``[tid, item, ...]`` labels; False if one is rejected.

        The bulk path of the parser and the generator; it pops each row's TID.
        No label holds a reserved character or surrounding space, and no TID
        starts with ``#`` or U+FEFF. A row with no items, an empty label, or a
        TID repeated in ``rows`` or in the database changes nothing and
        returns False. The TIDs are checked first; then one dict lookup per
        item label interns the new ones, in first-appearance order, as
        row-by-row appends would. An empty one interns too, and is truncated
        away with the rest.
        """
        tids = list(map(list.pop, rows, repeat(0)))
        fresh = dict.fromkeys(tids)
        # Two key views: isdisjoint then walks the smaller, not the database's TIDs.
        if (
            len(fresh) < len(tids)
            or "" in fresh
            or not all(rows)
            or not fresh.keys().isdisjoint(self.tids._by_label.keys())
        ):
            return False
        by_label, n_items = self.items._by_label, len(self.items)
        item_sets = list(map(set, map(map, repeat(by_label.__getitem__), rows)))
        if "" in by_label:
            self.items.truncate(n_items)
            return False
        self.tids._extend(fresh)
        self.transactions.extend(map(tuple, map(sorted, item_sets)))
        return True

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


def _exact_fraction(value: Fraction | str | float | int, what: str) -> Fraction:
    """``value`` exactly: a string as written, a float (numpy's too) at its shortest repr."""
    try:
        if isinstance(value, bool):  # an int subclass, but not a fraction
            raise TypeError("a bool is not a number")
        return Fraction(str(value) if isinstance(value, float) else value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ThresholdError(f"bad {what} {value!r}: {exc}") from None


@dataclass(frozen=True)
class SupportThreshold:
    """Minimum support: either an absolute count or a fraction of |D|.

    A fractional threshold resolves to ``max(1, ceil(fraction * n))`` so that
    "support >= threshold" matches the percentage reading exactly; ceiling is
    used, never rounding. A count must be integral (``operator.index``): a
    float, a string or a ``bool`` is rejected rather than truncated. A
    fraction is stored as an exact ``Fraction``: 0.2 means 1/5, not the
    nearest binary double.
    """

    count: int | None = None
    fraction: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.count is None) == (self.fraction is None):
            raise ThresholdError("exactly one of count or fraction must be given")
        if self.count is not None:
            try:
                if isinstance(self.count, bool):  # an int subclass, but not a count
                    raise TypeError
                count = operator.index(self.count)
            except TypeError:
                raise ThresholdError(
                    f"absolute support must be an integer count, got {self.count!r}; "
                    "use SupportThreshold.fractional for a share of the transactions"
                ) from None
            if count < 1:
                raise ThresholdError(f"absolute support must be >= 1, got {count}")
            object.__setattr__(self, "count", count)
        else:
            fraction = _exact_fraction(self.fraction, "fractional support")
            if not 0 < fraction <= 1:
                raise ThresholdError(f"fractional support must be in (0, 1], got {fraction}")
            object.__setattr__(self, "fraction", fraction)

    @classmethod
    def absolute(cls, count: int) -> "SupportThreshold":
        return cls(count=count)

    @classmethod
    def fractional(cls, value: Fraction | str | float | int) -> "SupportThreshold":
        """Fractional threshold from an exact rational, a string, a float or an int."""
        return cls(fraction=value)

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
