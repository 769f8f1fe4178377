"""Plain-text transaction I/O and a deterministic synthetic-data generator.

File format: one transaction per line, ``TID,item,item,...``. Whitespace
around fields is ignored; blank lines and lines starting with ``#`` are
skipped. Duplicate items within a line collapse to a set; duplicate TIDs are
an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Database, DuplicateTidError, MiningError, ParseError, Transaction

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


def parse_into(db: Database, text: str) -> list[Transaction]:
    """Append a document's transactions to ``db`` and return the new ones.

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
    added: list[Transaction] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            tid_label, *item_labels = line.split(",")
            try:
                added.append(db.add_transaction(tid_label, item_labels))
            except (ParseError, DuplicateTidError) as exc:
                raise type(exc)(str(exc), line=lineno) from None
    except MiningError:
        del db.transactions[n_tx:]
        db.items.truncate(n_items)
        db.tids.truncate(n_tids)
        raise
    return added


def write_database(db: Database) -> str:
    """Inverse of :func:`parse_database`.

    Items are written in ascending ordinal order, which preserves
    first-appearance order on re-parse, so parse(write(db)) == db including
    both dictionaries.
    """
    lines = []
    for tx in db.transactions:
        tid = db.tids.label(tx.tid)
        lines.append(",".join([tid, *(db.items.label(i) for i in tx.items)]))
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic market-basket generator."""

    n_transactions: int
    n_items: int
    mean_length: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_transactions < 1:
            raise MiningError(f"n_transactions must be >= 1, got {self.n_transactions}")
        if self.n_items < 1:
            raise MiningError(f"n_items must be >= 1, got {self.n_items}")
        if not self.mean_length > 0:
            raise MiningError(f"mean_length must be > 0, got {self.mean_length}")
        if self.mean_length > self.n_items:
            raise MiningError(
                f"mean_length {self.mean_length} exceeds n_items {self.n_items}"
            )


def generate_synthetic(spec: SyntheticSpec) -> Database:
    """Deterministic random database: a pure function of ``spec``.

    Transaction lengths are Poisson(mean_length) clamped to [1, n_items];
    items are drawn without replacement under a 1/rank popularity skew, so a
    few items are common and the long tail is rare, which is what gives the
    miners something to prune.
    """
    rng = np.random.default_rng(spec.seed)
    weights = 1.0 / np.arange(1, spec.n_items + 1)
    weights /= weights.sum()
    db = Database()
    for t in range(spec.n_transactions):
        length = int(rng.poisson(spec.mean_length))
        length = min(max(length, 1), spec.n_items)
        picks = rng.choice(spec.n_items, size=length, replace=False, p=weights)
        db.add_transaction(f"T{t + 1}", [f"I{g + 1}" for g in picks])
    return db
