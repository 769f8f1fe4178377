"""Plain-text transaction I/O and a deterministic synthetic-data generator.

File format: one transaction per line, ``TID,item,item,...``. Whitespace
around fields is ignored; blank lines and lines starting with ``#`` are
skipped. Duplicate items within a line collapse to a set; duplicate TIDs are
an error. One byte-order mark (U+FEFF) at the start of a document is dropped.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import (
    Database,
    DuplicateTidError,
    Itemset,
    MiningError,
    ParseError,
    UnknownItemError,
)

__all__ = [
    "SyntheticSpec",
    "generate_synthetic",
    "parse_database",
    "parse_into",
    "write_database",
]


def parse_database(text: str) -> Database:
    """Parse a whole document into a fresh database."""
    db = Database()
    parse_into(db, text)
    return db


#: Lines parsed per bulk step. Each step's lists stay small enough to be
#: cheap to build; one step over a whole 20,000-line file is slower.
_CHUNK_LINES = 256


def parse_into(db: Database, text: str) -> list[Itemset]:
    """Append a document's transactions to ``db`` and return their item tuples.

    This is the incremental-update entry point: labels intern into the
    existing dictionaries (new items extend them), and a TID already present
    in ``db`` is rejected just like a duplicate within one document. The
    update is all or nothing: if any line is rejected, or anything else is
    raised mid-update (``MemoryError``, ``KeyboardInterrupt``), ``db`` is
    truncated back to its transactions and dictionaries on entry before the
    exception propagates, so it never runs ahead of an index built from it.
    Each row's checks are those of :meth:`Database.add_transaction`; their
    errors gain the ``line N:`` prefix and ``line`` attribute of the
    offending line.

    One leading U+FEFF, a byte-order mark, is dropped; a TID that starts
    with one is rejected, since written first in a file it would not read
    back.

    Lines are split and appended ``_CHUNK_LINES`` at a time through
    :meth:`Database._append_rows`, which interns each label with one dict
    lookup. A chunk that fails a check is added again line by line through
    :meth:`Database.add_transaction`, which raises the first rejection.
    """
    n_tx, n_items, n_tids = len(db.transactions), len(db.items), len(db.tids)
    text = text.removeprefix("\ufeff")
    lines = text.splitlines()
    is_ascii = text.isascii()
    # Inside a line, str.strip can remove only these ASCII characters (the
    # rest of ASCII whitespace breaks lines) or some non-ASCII whitespace.
    trim = not is_ascii or " " in text or "\t" in text or "\x1f" in text
    marked = not is_ascii and "\ufeff" in text
    try:
        for start in range(0, len(lines), _CHUNK_LINES):
            chunk = lines[start : start + _CHUNK_LINES]
            kept = map(str.strip, chunk) if trim else chunk
            rows = [line.split(",") for line in kept if line and line[0] != "#"]
            if trim:
                rows = [list(map(str.strip, row)) for row in rows]
            if marked and any(row[0][:1] == "\ufeff" for row in rows) or not db._append_rows(rows):
                _add_each(db, chunk, start + 1)
    except BaseException:
        del db.transactions[n_tx:]
        db.items.truncate(n_items)
        db.tids.truncate(n_tids)
        raise
    return db.transactions[n_tx:]


def _add_each(db: Database, lines: list[str], first_lineno: int) -> None:
    """Add ``lines`` one :meth:`Database.add_transaction` call at a time, naming a rejected line."""
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        tid_label, *item_labels = line.split(",")
        try:
            db.add_transaction(tid_label, item_labels)
        except (ParseError, DuplicateTidError) as exc:
            raise type(exc)(str(exc), line=lineno) from None


def write_database(db: Database) -> str:
    """Inverse of :func:`parse_database`.

    Items are written in ascending ordinal order, which preserves
    first-appearance order on re-parse, so parse(write(db)) == db including
    both dictionaries.
    """
    item_label, tid_label = db.items.label_getter(), db.tids.label_getter()
    lines = []
    try:
        for tid, items in enumerate(db.transactions):
            lines.append(",".join([tid_label(tid), *map(item_label, items)]))
    except IndexError:
        raise UnknownItemError(f"transaction {tid} has an ordinal its database lacks") from None
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic market-basket generator.

    The counts and the seed must be integral (``operator.index``) and are
    stored as ints; the seed must be non-negative, as numpy's generator
    requires. The mean length must be a real number. A ``bool`` is none of
    these.
    """

    n_transactions: int
    n_items: int
    mean_length: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("n_transactions", "n_items", "seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):  # an int subclass, but not a count
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise MiningError(f"{name} must be an integer, got {value!r}") from None
        if self.seed < 0:
            raise MiningError(f"seed must be >= 0, got {self.seed}")
        if self.n_transactions < 1:
            raise MiningError(f"n_transactions must be >= 1, got {self.n_transactions}")
        if self.n_items < 1:
            raise MiningError(f"n_items must be >= 1, got {self.n_items}")
        mean = self.mean_length
        if not isinstance(mean, numbers.Real) or isinstance(mean, bool):
            raise MiningError(f"mean_length must be a real number, got {mean!r}")
        if not mean > 0:
            raise MiningError(f"mean_length must be > 0, got {mean}")
        if mean > self.n_items:
            raise MiningError(f"mean_length {mean} exceeds n_items {self.n_items}")


#: Weighted draws made at once. The rows do not depend on it: numpy's
#: ``random`` stream is the same however its draws are split.
_POOL_DRAWS = 1 << 12


def generate_synthetic(spec: SyntheticSpec) -> Database:
    """Deterministic random database: a pure function of ``spec``.

    Transaction lengths are Poisson(mean_length) clamped to [1, n_items];
    items are drawn without replacement under a 1/rank popularity skew, so a
    few items are common and the long tail is rare, which is what gives the
    miners something to prune. Each row lists its items in draw order.

    One ``rng.poisson`` call gives every length. The items come from one
    flat stream of weighted draws with replacement, already mapped to
    labels and refilled ``_POOL_DRAWS`` at a time as it runs dry: each row
    takes draws from the stream until it holds ``length`` distinct items,
    skipping repeats. Skipping repeats in an independent weighted stream is
    exactly successive weighted sampling without replacement, so no row can
    run out. A row near ``n_items`` long waits for its rarest items, as a
    coupon collector does: at seeds 0 to 2, the rows of
    ``SyntheticSpec(20, 500, 500.0, seed)`` take 23 to 29 draws per item
    they keep.

    Rows go to the database through the parser's bulk writer,
    ``_CHUNK_LINES`` at a time; only one chunk of rows is held at once.
    """
    rng = np.random.default_rng(spec.seed)
    weights = 1.0 / np.arange(1, spec.n_items + 1)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # so every uniform draw in [0, 1) lands on an item
    lengths = np.clip(rng.poisson(spec.mean_length, spec.n_transactions), 1, spec.n_items).tolist()
    labels = list(map("I{}".format, range(1, spec.n_items + 1)))

    def block() -> list[str]:
        draws = np.searchsorted(cdf, rng.random(_POOL_DRAWS), side="right").tolist()
        return list(map(labels.__getitem__, draws))

    stream = chain.from_iterable(iter(block, None))
    db = Database()
    for start in range(0, len(lengths), _CHUNK_LINES):
        rows = []
        for t, length in enumerate(lengths[start : start + _CHUNK_LINES], start=start + 1):
            row: dict[str, None] = {}
            for item in stream:
                row[item] = None
                if len(row) == length:
                    break
            rows.append([f"T{t}", *row])
        if not db._append_rows(rows):
            raise AssertionError(f"generated rows T{start + 1} onwards failed the bulk checks")
    return db
