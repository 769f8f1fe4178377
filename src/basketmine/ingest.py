"""Plain-text transaction I/O and a deterministic synthetic-data generator.

File format: one transaction per line, ``TID,item,item,...``. Whitespace
around fields is ignored; blank lines and lines starting with ``#`` are
skipped. Duplicate items within a line collapse to a set; duplicate TIDs are
an error.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

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


def parse_into(db: Database, text: str) -> list[Itemset]:
    """Append a document's transactions to ``db`` and return their item tuples.

    This is the incremental-update entry point: labels intern into the
    existing dictionaries (new items extend them), and a TID already present
    in ``db`` is rejected just like a duplicate within one document. The
    update is all or nothing: if any line is rejected, ``db`` is truncated
    back to its transactions and dictionaries on entry before the error
    propagates, so it never runs ahead of an index built from it. Each row's
    checks are those of :meth:`Database.add_transaction`; their errors gain
    the ``line N:`` prefix and ``line`` attribute of the offending line.
    """
    n_tx, n_items, n_tids = len(db.transactions), len(db.items), len(db.tids)
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            tid_label, *item_labels = line.split(",")
            try:
                db.add_transaction(tid_label, item_labels)
            except (ParseError, DuplicateTidError) as exc:
                raise type(exc)(str(exc), line=lineno) from None
    except MiningError:
        del db.transactions[n_tx:]
        db.items.truncate(n_items)
        db.tids.truncate(n_tids)
        raise
    return db.transactions[n_tx:]


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


#: Pool draws each row gets: twice its length plus this many. Few rows of the
#: usual shapes run out; those finish with an exact conditional draw.
_POOL_SLACK = 4
#: About this many pool draws are made at once. Small blocks bound the
#: scratch arrays however many rows are asked for, and stay small enough to
#: be reused: blocks of 2^16 draws left the heap about 1.5 MB larger after 20
#: calls at 1,500 rows, blocks of 2^12 about 0.4 MB, at no cost in time.
_POOL_CELLS = 1 << 12


def generate_synthetic(spec: SyntheticSpec) -> Database:
    """Deterministic random database: a pure function of ``spec``.

    Transaction lengths are Poisson(mean_length) clamped to [1, n_items];
    items are drawn without replacement under a 1/rank popularity skew, so a
    few items are common and the long tail is rare, which is what gives the
    miners something to prune. Each row lists its items in draw order.

    The draws are made in bulk: all lengths at once, then, per block of rows,
    one pool of weighted draws with replacement, of which each row takes the
    first ``length`` distinct items in its share. Rejecting repeats is the
    same distribution as successive weighted draws without replacement; a row
    whose share runs out draws the rest from the items it lacks, their weights
    renormalised, which is that distribution's exact conditional law.
    """
    rng = np.random.default_rng(spec.seed)
    weights = 1.0 / np.arange(1, spec.n_items + 1)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # so every uniform draw in [0, 1) lands on an item
    lengths = np.clip(rng.poisson(spec.mean_length, spec.n_transactions), 1, spec.n_items)
    names = [f"I{g + 1}" for g in range(spec.n_items)]
    step = max(1, _POOL_CELLS // int(2 * spec.mean_length + _POOL_SLACK))
    db = Database()
    for lo in range(0, spec.n_transactions, step):
        rows = _draw_rows(rng, weights, cdf, lengths[lo : lo + step])
        for t, row in enumerate(rows, start=lo + 1):
            db.add_transaction(f"T{t}", map(names.__getitem__, row))
    return db


def _draw_rows(
    rng: np.random.Generator, weights: np.ndarray, cdf: np.ndarray, lengths: np.ndarray
) -> list[list[int]]:
    """Distinct weighted item draws per row, ``lengths[r]`` for row ``r``, in draw order."""
    share = 2 * lengths + _POOL_SLACK
    ends = np.cumsum(share)
    starts = ends - share
    pool = np.searchsorted(cdf, rng.random(int(ends[-1])), side="right")
    row = np.repeat(np.arange(lengths.size), share)
    # A draw is new to its row if no earlier draw in the row's share is the
    # same item: a stable sort puts each (row, item) group in draw order.
    key = row * weights.size + pool
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.empty(key.size, dtype=bool)
    new[order] = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    seen = np.cumsum(new)  # new draws up to here, over all rows
    before = seen[starts] - 1  # ... before each row's share, whose first draw is new
    keep = new & (seen - before[row] <= lengths[row])
    held = np.minimum(seen[ends - 1] - before, lengths)
    picks = pool[keep].tolist()
    bounds = np.cumsum(held).tolist()
    rows = [picks[a:b] for a, b in zip([0, *bounds], bounds)]
    for r in np.flatnonzero(held < lengths).tolist():
        p = weights.copy()
        p[rows[r]] = 0.0
        p /= p.sum()
        rest = rng.choice(weights.size, size=int(lengths[r]) - len(rows[r]), replace=False, p=p)
        rows[r] += rest.tolist()
    return rows
