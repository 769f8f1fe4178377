"""Independent brute-force oracles and random-database builders.

The support oracles count by scanning transactions directly,
``brute_rules`` tries every antecedent of every itemset,
``reference_parse_into`` reads a document one line at a time,
``reference_synthetic`` generates rows one draw at a time and
``reference_hundredths_text`` writes a percentage from its decimal digits;
none of it shares code with the miners, the rule generator, the parser, the
generator and the percentage renderer it is used to check.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from basketmine.miner import MineResult, MineStats
from basketmine.model import Database, DuplicateTidError, ParseError
from basketmine.rules import Rule


def db_from_rows(rows):
    """Database from rows of item indices; row t becomes TID ``T{t+1}``."""
    db = Database()
    for row in rows:
        add_row(db, row)
    return db


def add_row(db, row):
    """Append a row of item indices as ``db_from_rows`` does; return its item tuple."""
    return db.add_transaction(f"T{db.n_transactions + 1}", [f"I{i}" for i in row])


def reference_parse_into(db, text):
    """``parse_into`` one line at a time through the checked ``add_transaction``.

    One leading byte-order mark (U+FEFF) is dropped. Each line is stripped;
    blank and ``#`` lines are skipped; the rest split at commas into a TID
    and its items. A rejected row raises its error again with ``line=N``.
    Unlike ``parse_into`` it leaves the rows before a rejected one in ``db``.
    """
    added = []
    if text.startswith("\ufeff"):
        text = text[1:]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tid_label, *item_labels = line.split(",")
        try:
            added.append(db.add_transaction(tid_label, item_labels))
        except (ParseError, DuplicateTidError) as exc:
            raise type(exc)(str(exc), line=lineno) from None
    return added


def reference_synthetic(spec):
    """``generate_synthetic`` one weighted draw at a time, one ``add_transaction`` per row.

    The lengths and the 1/rank cumulative weights are computed as the
    generator computes them. Each draw is one ``rng.random()`` mapped to the
    first item whose cumulative weight exceeds it; a row takes draws until it
    holds ``length`` distinct items, listed in draw order.
    """
    rng = np.random.default_rng(spec.seed)
    weights = 1.0 / np.arange(1, spec.n_items + 1)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    cdf = cdf.tolist()
    lengths = np.clip(rng.poisson(spec.mean_length, spec.n_transactions), 1, spec.n_items)
    db = Database()
    for t, length in enumerate(lengths.tolist(), start=1):
        row = {}
        while len(row) < length:
            row[f"I{bisect_right(cdf, rng.random()) + 1}"] = None
        db.add_transaction(f"T{t}", list(row))
    return db


def reference_hundredths_text(hundredths):
    """A count of hundredths of a percent written from its digits, trailing zeros trimmed."""
    digits = str(hundredths).rjust(3, "0")
    whole, fraction = digits[:-2], digits[-2:].rstrip("0")
    return f"{whole}.{fraction}%" if fraction else f"{whole}%"


def brute_tidset(db, itemset):
    """Transaction ordinals containing every item, by scanning each row."""
    wanted = set(itemset)
    return [tid for tid, items in enumerate(db.transactions) if wanted <= set(items)]


def brute_support_map(db):
    """Support of every non-empty subset of the item universe, by scanning."""
    tx_sets = [set(items) for items in db.transactions]
    out = {}
    for size in range(1, len(db.items) + 1):
        for combo in combinations(range(len(db.items)), size):
            as_set = set(combo)
            out[combo] = sum(1 for tx in tx_sets if as_set <= tx)
    return out


def brute_frequents(db, minsupp):
    """Exhaustive (itemset, support) pairs meeting the threshold."""
    return {
        (itemset, support)
        for itemset, support in brute_support_map(db).items()
        if support >= minsupp
    }


def packed(levels, stats=MineStats(raw_passes=0)):
    """A ``MineResult`` of lists of ``FrequentItemset``, level k at index k - 1.

    It goes through the checked constructor, as a hand-built result must.
    """
    itemsets = [
        np.array([fi.itemset for fi in level], dtype=np.int64).reshape(-1, k)
        for k, level in enumerate(levels, 1)
    ]
    supports = [np.array([fi.support for fi in level], dtype=np.int64) for level in levels]
    return MineResult(itemsets, supports, stats)


def brute_rules(frequents, min_confidence):
    """Every rule over a mining result, by testing all ``2^|Z| - 2`` antecedents of each Z.

    The order is the one ``generate_rules`` promises: by Z, then antecedent
    size ascending, then canonical antecedent order.
    """
    supports = frequents.support_map()
    rules = []
    for level in frequents.levels[1:]:
        for fi in level:
            whole = fi.itemset
            for size in range(1, len(whole)):
                for antecedent in combinations(whole, size):
                    conf = Fraction(fi.support, supports[antecedent])
                    if conf >= min_confidence:
                        consequent = tuple(i for i in whole if i not in antecedent)
                        rules.append(Rule(antecedent, consequent, fi.support, conf))
    return rules


def read_tradelist_log(text):
    """Parse a serialized trade-list log back into {item label: [tid labels]}."""
    out = {}
    for line in text.splitlines():
        label, _, rest = line.partition(" = ")
        out[label] = rest.split(", ") if rest else []
    return out


def random_rows(rng, max_tx=10, max_items=8):
    """Seeded random rows for the acceptance loops (random.Random instance)."""
    n_items = rng.randint(1, max_items)
    n_tx = rng.randint(0, max_tx)
    rows = []
    for _ in range(n_tx):
        size = rng.randint(1, n_items)
        rows.append(sorted(rng.sample(range(n_items), size)))
    return rows


def db_rows(max_tx=10, max_items=8):
    """Hypothesis strategy for rows of item indices (may be empty)."""
    return st.integers(min_value=1, max_value=max_items).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1).map(sorted),
            min_size=0,
            max_size=max_tx,
        )
    )
